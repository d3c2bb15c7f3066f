// online_il: one device's online-IL governor, on the calling thread alone.
//
// Set-up labels the MiBench collection and the whole Cortex+PARSEC sequence
// with a cold Oracle, trains the offline policy and bootstraps the models;
// the timed phase is the closed loop over the sequence with the Oracle fully
// cached.  So its timed phase is dominated by the controller itself — about
// 95% of it is the periodic policy retrains (ml + core::il_policy) — while
// Oracle search (core::oracle + soc) only moves set-up.
#include <cmath>
#include <memory>

#include "core/online_il.h"
#include "core/oracle.h"
#include "core/runner.h"
#include "probe.h"
#include "workload.h"
#include "workloads/cpu_benchmarks.h"

namespace perfbench {

namespace {

using namespace oal;

constexpr std::size_t kCollectSnippetsPerApp = 40;
constexpr std::size_t kCollectConfigsPerSnippet = 6;
const soc::SocConfig kInitial{4, 4, 8, 10};

std::vector<workloads::AppSpec> sequence_apps() {
  std::vector<workloads::AppSpec> apps = workloads::CpuBenchmarks::of_suite(workloads::Suite::kCortex);
  for (const auto& a : workloads::CpuBenchmarks::of_suite(workloads::Suite::kParsec))
    apps.push_back(a);
  return apps;
}

class OnlineIl : public Workload {
 public:
  explicit OnlineIl(std::uint64_t seed)
      : collect_seed_(derive_seed(7, seed)),
        train_seed_(derive_seed(5, seed)),
        sequence_seed_(derive_seed(99, seed)) {
    common::Rng rng(sequence_seed_);
    sequence_length_ = workloads::CpuBenchmarks::sequence(sequence_apps(), rng).size();
  }

  std::uint64_t decisions_per_lap() const override { return sequence_length_; }
  std::size_t workers() const override { return 0; }

  void setup(Probe* probe) override {
    cache_ = std::make_shared<core::OracleCache>();
    soc::BigLittlePlatform platform;
    {
      ScopedSpan span(probe, "oracle.collect");
      common::Rng rng(collect_seed_);
      offline_ = core::collect_offline_data(
          platform, workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench),
          core::Objective::kEnergy, kCollectSnippetsPerApp, kCollectConfigsPerSnippet, rng,
          cache_.get());
    }
    {
      ScopedSpan span(probe, "il.train_offline");
      policy_ = std::make_unique<core::IlPolicy>(platform.space());
      common::Rng rng(train_seed_);
      policy_->train_offline(offline_.policy, rng);
    }
    {
      ScopedSpan span(probe, "il.bootstrap");
      models_ = std::make_unique<core::OnlineSocModels>(platform.space());
      models_->bootstrap(offline_.model_samples);
    }
    const std::size_t collect_searches = cache_->searches();
    {
      ScopedSpan span(probe, "oracle.prefill");
      common::Rng rng(sequence_seed_);
      sequence_ = workloads::CpuBenchmarks::sequence(sequence_apps(), rng);
      for (const soc::SnippetDescriptor& s : sequence_)
        cache_->config(platform, s, core::Objective::kEnergy);
    }
    setup_searches_ = cache_->searches();
    if (probe) {
      probe->add("oracle.searches", static_cast<double>(setup_searches_));
      probe->add("oracle.prefill_searches", static_cast<double>(setup_searches_ - collect_searches));
    }
  }

  Outcome run(Probe* probe) override {
    Outcome out;
    out.oracle_searches = setup_searches_;
    soc::BigLittlePlatform platform;
    core::RunnerOptions opts;
    opts.oracle_cache = cache_;
    auto il = std::make_unique<core::OnlineIlController>(platform.space(), *policy_, *models_);
    const core::OnlineIlController& il_ref = *il;
    std::unique_ptr<core::DrmController> controller = std::move(il);
    TracedDrmController* traced = nullptr;
    if (probe) {
      auto wrapped = std::make_unique<TracedDrmController>(std::move(controller), *probe, "online_il");
      traced = wrapped.get();
      controller = std::move(wrapped);
    }
    const std::size_t lookups0 = cache_->lookups();
    const std::size_t hits0 = cache_->hits();
    core::RunResult result;
    try {
      ScopedSpan span(probe, "online_il.run");
      core::DrmRunner runner(platform, opts);
      result = runner.run(sequence_, *controller, kInitial);
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("online_il run threw: ") + e.what());
      return out;
    }
    for (const core::SnippetRecord& r : result.records) {
      if (!platform.space().valid(r.applied) || !std::isfinite(r.energy_j)) {
        out.errors.push_back("online_il: invalid decision at snippet " + std::to_string(r.index));
        continue;
      }
      fnv_mix(out.digest, platform.space().index_of(r.applied));
      ++out.decisions;
    }
    out.energy_ratio = result.energy_ratio();
    out.retrains = il_ref.policy_updates();
    if (probe) {
      traced->flush();
      probe->add("oracle.lookups", static_cast<double>(cache_->lookups() - lookups0));
      probe->add("oracle.hits", static_cast<double>(cache_->hits() - hits0));
      probe->add("decisions", static_cast<double>(out.decisions));
    }
    return out;
  }

  void teardown() override {
    cache_.reset();
    offline_ = core::OfflineData{};
    policy_.reset();
    models_.reset();
    sequence_ = {};
  }

  Outcome pinned() const override {
    Outcome p;
    p.decisions = 2500;
    p.oracle_searches = 2900;
    p.retrains = 25;
    p.energy_ratio = from_bits(0x3ff1e343a9080861ULL);
    p.digest = 0x3ccacab24b57a062ULL;
    return p;
  }

 private:
  const std::uint64_t collect_seed_;
  const std::uint64_t train_seed_;
  const std::uint64_t sequence_seed_;
  std::size_t sequence_length_ = 0;

  std::shared_ptr<core::OracleCache> cache_;
  core::OfflineData offline_;
  std::unique_ptr<core::IlPolicy> policy_;
  std::unique_ptr<core::OnlineSocModels> models_;
  std::vector<soc::SnippetDescriptor> sequence_;
  std::size_t setup_searches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_online_il(std::uint64_t seed) {
  return std::make_unique<OnlineIl>(seed);
}

}  // namespace perfbench
