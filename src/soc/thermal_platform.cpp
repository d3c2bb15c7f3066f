#include "soc/thermal_platform.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/stats.h"

namespace oal::soc {

namespace {

// Node indices of thermal::RcThermalNetwork::mobile_soc().
constexpr std::size_t kBigNode = 0;
constexpr std::size_t kLittleNode = 1;
constexpr std::size_t kGpuNode = 2;
constexpr std::size_t kPcbNode = 3;

}  // namespace

// ---------------------------------------------------------------------------
// ThermalBudget
// ---------------------------------------------------------------------------

ThermalBudget::ThermalBudget(ThermalConstraintParams params, common::Vec nominal_shape_w,
                             std::size_t junction_node)
    : params_(std::move(params)),
      net_(thermal::RcThermalNetwork::mobile_soc(params_.ambient_c)),
      shape_w_(std::move(nominal_shape_w)),
      junction_node_(junction_node),
      transient_(net_),
      power_w_(net_.num_nodes()) {
  // A size mismatch against the RC network would silently index out of range
  // deep in the hot loop, so validate every per-node vector up front with
  // sizes in the message.
  const std::size_t n = net_.num_nodes();
  const auto check = [n](const char* field, std::size_t got, bool optional = false) {
    if (got == n || (optional && got == 0)) return;
    throw std::invalid_argument(std::string("ThermalBudget: ") + field + " has " +
                                std::to_string(got) + " entries but the RC network has " +
                                std::to_string(n) + " nodes");
  };
  check("initial_temperature_c", params_.initial_temperature_c.size(), true);
  check("leakage.p0_w", params_.leakage.p0_w.size());
  check("leakage.k_per_c", params_.leakage.k_per_c.size());
  check("nominal shape", shape_w_.size());
  // After the checks: the solver reads every leakage entry.
  solver_ = thermal::FixedPointSolver(net_, params_.leakage);
  if (!params_.initial_temperature_c.empty()) net_.set_temperatures(params_.initial_temperature_c);
  track_peaks();
  refresh_budget();
}

void ThermalBudget::advance(const common::Vec& inject_w, double dt_s) {
  if (inject_w.size() != shape_w_.size())
    throw std::invalid_argument("ThermalBudget::advance: injection size mismatch");
  shape_w_ = inject_w;
  const common::Vec& temp_c = net_.temperatures();
  for (std::size_t i = 0; i < power_w_.size(); ++i)
    power_w_[i] = params_.leakage.node_leakage(i, temp_c[i]) + inject_w[i];
  net_.step(power_w_, dt_s);
  track_peaks();

  since_budget_s_ += dt_s;
  if (since_budget_s_ >= params_.budget_interval_s) {
    refresh_budget();
    since_budget_s_ = 0.0;
  }
}

void ThermalBudget::refresh_budget() {
  if (params_.horizon_s > 0.0) {
    const double scale = thermal::transient_power_headroom(
        net_, params_.leakage, shape_w_, params_.horizon_s, params_.limits, transient_);
    budget_w_ = scale * common::sum(shape_w_);
  } else {
    budget_w_ = thermal::max_sustainable_power(solver_, shape_w_, params_.limits).total_power_w;
  }
}

void ThermalBudget::track_peaks() {
  const common::Vec& t = net_.temperatures();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == params_.limits.skin_node) {
      peak_skin_c_ = std::max(peak_skin_c_, t[i]);
    } else if (i != kPcbNode) {
      peak_junction_c_ = std::max(peak_junction_c_, t[i]);
    }
  }
}

ThermalTelemetry ThermalBudget::telemetry() const {
  ThermalTelemetry t;
  t.constrained = true;
  const common::Vec& temps = net_.temperatures();
  double junction = temps[junction_node_];
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (i == params_.limits.skin_node || i == kPcbNode) continue;
    junction = std::max(junction, temps[i]);
  }
  t.junction_c = junction;
  t.skin_c = temps[params_.limits.skin_node];
  t.junction_limit_c = params_.limits.t_max_junction_c;
  t.skin_limit_c = params_.limits.t_max_skin_c;
  t.ambient_c = params_.ambient_c;
  t.budget_w = budget_w_;
  t.last_power_w = common::sum(shape_w_);
  return t;
}

// ---------------------------------------------------------------------------
// ThermalSocAdapter
// ---------------------------------------------------------------------------

// Nominal big-heavy shape until the first snippet is observed.
ThermalSocAdapter::ThermalSocAdapter(BigLittlePlatform& platform, ThermalConstraintParams params)
    : platform_(&platform), budget_(std::move(params), {0.55, 0.10, 0.0, 0.35, 0.0}, kBigNode) {}

bool throttle_step(SocConfig& c) {
  // Big-cluster knobs are only touched while the cluster is on: with
  // num_big == 0 its frequency has no power effect, and stepping it would
  // record phantom clamps.
  if (c.num_big > 0) {
    if (c.big_freq_idx > 0) {
      --c.big_freq_idx;
    } else {
      --c.num_big;
    }
  } else if (c.little_freq_idx > 0) {
    --c.little_freq_idx;
  } else if (c.num_little > 1) {
    --c.num_little;
  } else {
    return false;
  }
  return true;
}

SocConfig ThermalSocAdapter::arbitrate(const SnippetDescriptor& s, const SocConfig& proposed) {
  SocConfig c = proposed;
  const auto over_budget = [&](const SocConfig& cc) {
    return platform_->execute_ideal(s, cc).avg_power_w > budget_.budget_w();
  };
  // Firmware-style throttle ladder; bottoms out at 1 LITTLE core at minimum
  // frequency (the budget can be infeasible — e.g. base power alone above
  // it — in which case the floor config runs and temperatures keep rising
  // until the next budget refresh).
  while (over_budget(c)) {
    if (!throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

void ThermalSocAdapter::observe(const SnippetDescriptor& s, const SocConfig& applied,
                                const SnippetResult& r) {
  const PowerBreakdown bd = platform_->power_breakdown(s, applied);
  common::Vec inject(budget_.network().num_nodes(), 0.0);
  inject[kBigNode] = bd.big_w;
  inject[kLittleNode] = bd.little_w;
  inject[kPcbNode] = bd.dram_w + bd.base_w;
  budget_.advance(inject, r.exec_time_s);
}

// ---------------------------------------------------------------------------
// ThermalGpuAdapter
// ---------------------------------------------------------------------------

// Nominal render-heavy shape until the first frame is observed.
ThermalGpuAdapter::ThermalGpuAdapter(gpu::GpuPlatform& platform, double period_s,
                                     ThermalGpuConstraintParams params)
    : platform_(&platform),
      period_s_(period_s),
      budget_(std::move(params), {0.0, 0.0, 0.60, 0.40, 0.0}, kGpuNode) {
  if (period_s_ <= 0.0) throw std::invalid_argument("ThermalGpuAdapter: period_s must be > 0");
}

bool gpu_throttle_step(gpu::GpuConfig& c) {
  if (c.freq_idx > 0) {
    --c.freq_idx;
  } else if (c.num_slices > 1) {
    --c.num_slices;
  } else {
    return false;
  }
  return true;
}

gpu::GpuConfig ThermalGpuAdapter::arbitrate(const gpu::FrameDescriptor& f,
                                            const gpu::GpuConfig& proposed) {
  gpu::GpuConfig c = proposed;
  const auto over_budget = [&](const gpu::GpuConfig& cc) {
    // Full producer-side power (PKG + DRAM scope) against the budget — the
    // same total the observer injects into the RC network.
    const double power_w = platform_->render_ideal(f, cc, period_s_).pkg_dram_energy_j / period_s_;
    return power_w > budget_.budget_w();
  };
  // Firmware throttle ladder; bottoms out at 1 slice at minimum frequency
  // (an infeasible budget runs the floor config and temperatures keep rising
  // until the next refresh).
  while (over_budget(c)) {
    if (!gpu_throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

void ThermalGpuAdapter::observe(const gpu::FrameDescriptor& /*f*/,
                                const gpu::GpuConfig& /*applied*/, const gpu::FrameResult& r) {
  common::Vec inject(budget_.network().num_nodes(), 0.0);
  inject[kGpuNode] = r.gpu_energy_j / period_s_;
  inject[kPcbNode] = (r.pkg_dram_energy_j - r.gpu_energy_j) / period_s_;
  budget_.advance(inject, period_s_);
}

}  // namespace oal::soc
