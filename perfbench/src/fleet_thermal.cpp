// fleet_thermal: a 2,000-device population of ondemand governors under
// ThermalSocAdapter budgets, streamed through run_any_streaming on two
// workers into a PopulationAggregator.
//
// The inverse of online_il: no ML and a trivial controller.  Set-up is the
// cold Oracle fill of the shared cache (core::oracle + soc, on the pool);
// the timed phase is the warm sweep, carried by per-scenario engine
// overhead, Oracle cache hits under two workers, platform execution and the
// thermal hooks.
#include <cmath>
#include <memory>
#include <optional>

#include "core/domain.h"
#include "core/experiment.h"
#include "core/oracle.h"
#include "core/scenario_factories.h"
#include "fleet/aggregator.h"
#include "fleet/device_population.h"
#include "probe.h"
#include "soc/thermal_platform.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace oal;

constexpr std::size_t kDevices = 2000;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShard = 64;
/// The small population of the one-worker == two-worker check.
constexpr std::size_t kCheckDevices = 32;
constexpr std::size_t kCheckShard = 8;

/// Folds one device result into the lap outcome: validates and digests its
/// applied configurations.
void fold_device(const core::AnyResult& r, Outcome& out) {
  const auto& run = r.as<core::ThermalRunResult>().run;
  static const soc::ConfigSpace space;
  for (const core::SnippetRecord& rec : run.records) {
    if (!space.valid(rec.applied) || !std::isfinite(rec.energy_j)) {
      out.errors.push_back("fleet_thermal: invalid decision in " + r.id());
      continue;
    }
    fnv_mix(out.digest, space.index_of(rec.applied));
    ++out.decisions;
  }
}

class FleetThermal : public Workload {
 public:
  explicit FleetThermal(std::uint64_t seed) : engine_(core::ExperimentOptions{kWorkers}) {
    cfg_.devices = kDevices;
    cfg_.seed = derive_seed(909, seed);
  }

  std::uint64_t decisions_per_lap() const override {
    return cfg_.devices * cfg_.snippets_per_device;
  }
  std::size_t workers() const override { return kWorkers; }

  void setup(Probe* probe) override {
    cache_ = std::make_shared<core::OracleCache>(nullptr, &engine_.pool());
    {
      ScopedSpan span(probe, "fleet.population");
      population_ = std::make_unique<fleet::DevicePopulation>(cfg_, cache_);
    }
    {
      // On the two engine workers alone, like the timed phase.
      ScopedSpan span(probe, "oracle.prefill");
      engine_.pool().run_indexed(population_->size(), [this](std::size_t i) {
        const fleet::DeviceSpec spec = population_->spec(i);
        const soc::BigLittlePlatform platform(spec.platform);
        for (const soc::SnippetDescriptor& s : spec.trace)
          cache_->config(platform, s, core::Objective::kEnergy);
      });
    }
    setup_searches_ = cache_->searches();
    if (probe) {
      probe->add("oracle.searches", static_cast<double>(setup_searches_));
      probe->add("oracle.prefill_searches", static_cast<double>(setup_searches_));
    }
  }

  void teardown() override {
    population_.reset();
    cache_.reset();
  }

  Outcome run(Probe* probe) override {
    Outcome out;
    out.oracle_searches = setup_searches_;
    fleet::PopulationAggregator aggregate(cfg_.t_max_skin_c);
    const auto sink = [&](core::AnyResult&& r) {
      fold_device(r, out);
      ScopedSpan span(probe, "fleet.aggregate");
      aggregate.add(r);
    };
    const std::size_t lookups0 = cache_->lookups();
    const std::size_t hits0 = cache_->hits();
    try {
      ScopedSpan span(probe, "engine.run");
      engine_.run_any_streaming(
          probe ? traced_generator(*probe, span.id()) : population_->generator(), sink,
          core::StreamOptions{kShard});
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("fleet_thermal sweep threw: ") + e.what());
    }
    const fleet::CohortStats& pop = aggregate.population();
    out.clamped = pop.clamped;
    out.energy_ratio = pop.energy_ratio.stats().mean();
    if (probe) {
      probe->add("oracle.lookups", static_cast<double>(cache_->lookups() - lookups0));
      probe->add("oracle.hits", static_cast<double>(cache_->hits() - hits0));
      probe->add("thermal.clamped", static_cast<double>(pop.clamped));
      probe->add("decisions", static_cast<double>(out.decisions));
    }
    return out;
  }

  /// One worker and two deliver the same aggregate (bitwise) on a small
  /// population of this seed.
  void check_invariants(std::vector<std::string>& errors) override {
    fleet::PopulationConfig small = cfg_;
    small.devices = kCheckDevices;
    const auto cache = std::make_shared<core::OracleCache>(nullptr, &engine_.pool());
    const fleet::DevicePopulation population(small, cache);
    core::ExperimentEngine serial(core::ExperimentOptions{1});
    const auto summarize = [&](core::ExperimentEngine& engine) {
      Outcome out;
      fleet::PopulationAggregator aggregate(small.t_max_skin_c);
      engine.run_any_streaming(
          population.generator(),
          [&](core::AnyResult&& r) {
            fold_device(r, out);
            aggregate.add(r);
          },
          core::StreamOptions{kCheckShard});
      const fleet::CohortStats& pop = aggregate.population();
      for (double x : {pop.energy_ratio.stats().mean(), pop.energy_ratio.percentile(50.0),
                       pop.energy_ratio.percentile(99.0), pop.clamp_rate.stats().mean(),
                       pop.peak_skin_c.percentile(99.0)})
        fnv_mix(out.digest, to_bits(x));
      for (std::size_t n : {pop.devices, pop.snippets, pop.clamped, pop.skin_violations})
        fnv_mix(out.digest, n);
      return out;
    };
    try {
      const Outcome one = summarize(serial);
      const Outcome two = summarize(engine_);
      if (one.digest != two.digest || one.decisions != two.decisions ||
          one.decisions != small.devices * small.snippets_per_device || !one.errors.empty() ||
          !two.errors.empty())
        errors.push_back("fleet_thermal: one worker and two workers disagree");
    } catch (const std::exception& e) {
      errors.push_back(std::string("fleet_thermal worker check threw: ") + e.what());
    }
  }

  Outcome pinned() const override {
    Outcome p;
    p.decisions = 72000;
    p.oracle_searches = 12734;
    p.clamped = 5137;
    p.energy_ratio = from_bits(0x4013b6b9ad5f4173ULL);
    p.digest = 0x39dee82ae3901015ULL;
    return p;
  }

 private:
  /// Traced laps rebuild each device's scenario so its controller factory
  /// can be wrapped: the same Scenario fields and thermal limits that
  /// DevicePopulation::scenario sets (its noise-seed formula included), run
  /// through the library's own ThermalDrmScenario path.  The lap check
  /// proves a traced lap simulates what an untraced one does.
  core::ExperimentEngine::AnyGenerator traced_generator(Probe& probe, std::uint32_t parent) {
    auto next = std::make_shared<std::size_t>(0);
    return [this, &probe, parent, next]() -> std::optional<core::AnyScenario> {
      if (*next >= population_->size()) return std::nullopt;
      ScopedSpan span(&probe, "fleet.generate");
      return traced(probe, parent, device_scenario(population_->spec((*next)++), probe));
    };
  }

  core::AnyScenario device_scenario(const fleet::DeviceSpec& spec, Probe& probe) const {
    core::Scenario s;
    s.id = spec.id;
    s.platform = spec.platform;
    s.platform_noise_seed =
        (cfg_.seed * 0x517cc1b727220a95ULL) ^ (0x9e3779b97f4a7c15ULL * (spec.index + 1));
    s.trace = spec.trace;
    s.make_controller = traced(probe, core::governor_factory("ondemand"), "factory.governor",
                               "governor");
    s.oracle_cache = cache_;
    s.on_complete = [](core::DrmController& c, const core::RunResult&) {
      static_cast<TracedDrmController&>(c).flush();
    };
    soc::ThermalConstraintParams thermal;
    thermal.limits.t_max_junction_c = cfg_.t_max_junction_c;
    thermal.limits.t_max_skin_c = cfg_.t_max_skin_c;
    thermal.ambient_c = spec.ambient_c;
    thermal.horizon_s = 0.0;
    return core::AnyScenario(core::ThermalDrmScenario{std::move(s), thermal});
  }

  fleet::PopulationConfig cfg_;
  core::ExperimentEngine engine_;
  std::shared_ptr<core::OracleCache> cache_;
  std::unique_ptr<fleet::DevicePopulation> population_;
  std::size_t setup_searches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_thermal(std::uint64_t seed) {
  return std::make_unique<FleetThermal>(seed);
}

}  // namespace perfbench
