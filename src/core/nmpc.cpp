#include "core/nmpc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/sobol.h"
#include "soc/thermal_platform.h"
#include "workloads/gpu_benchmarks.h"

namespace oal::core {

namespace {

/// Budget context from the last telemetry snapshot: unconstrained while
/// blind (cfg.thermal_aware off) or while no budgeter publishes telemetry.
/// The producer-side energy is the measured non-GPU EWMA once one frame has
/// been observed; before that, the design-time prior from the platform's
/// power parameters.
GpuBudgetState make_budget_state(const NmpcConfig& cfg, const soc::ThermalTelemetry& telemetry,
                                 double producer_energy_j, const GpuOnlineModels& models,
                                 const GpuWorkloadState& w) {
  GpuBudgetState b;
  if (!cfg.thermal_aware || !telemetry.constrained) return b;
  b.constrained = true;
  b.budget_w = telemetry.budget_w * (1.0 - cfg.budget_margin);
  b.other_energy_j = producer_energy_j >= 0.0
                         ? producer_energy_j
                         : models.producer_energy_prior_j(w, 1.0 / cfg.fps_target);
  return b;
}

/// EWMA of the measured per-frame non-GPU producer energy (PKG+DRAM minus
/// GPU scope) — the runtime anchor of the budget predicate.  Tracked only
/// when thermal-aware, so blind controllers carry zero extra state.
void track_producer_energy(const NmpcConfig& cfg, const gpu::FrameResult& r, double& acc) {
  if (!cfg.thermal_aware) return;
  const double other = std::max(r.pkg_dram_energy_j - r.gpu_energy_j, 0.0);
  acc = acc < 0.0 ? other : 0.6 * other + 0.4 * acc;
}

/// Predicted producer power at the arbitrated PKG+DRAM scope.
double pkg_dram_power_w(const GpuOnlineModels& models, const GpuWorkloadState& w,
                        const gpu::GpuConfig& c, double period_s,
                        const GpuBudgetState& budget, common::Vec& phi) {
  return (models.predict_gpu_energy_j(w, c, period_s, phi) + budget.other_energy_j) / period_s;
}

/// Highest frequency at or below c.freq_idx whose predicted PKG+DRAM power
/// fits the budget (slices untouched — they belong to the slow loop); c
/// itself when unconstrained or at minimum frequency.  Shared by both
/// controllers' fast paths so the cap semantics cannot drift.
gpu::GpuConfig cap_freq_to_budget(const GpuOnlineModels& models, const GpuWorkloadState& w,
                                  gpu::GpuConfig c, double period_s,
                                  const GpuBudgetState& budget, std::size_t* eval_counter,
                                  common::Vec& phi) {
  if (!budget.constrained) return c;
  while (c.freq_idx > 0) {
    const double power = pkg_dram_power_w(models, w, c, period_s, budget, phi);
    if (eval_counter != nullptr) *eval_counter += 1;
    if (power <= budget.budget_w) break;
    --c.freq_idx;
  }
  return c;
}

/// Descend the shared firmware ladder (soc::gpu_throttle_step — the same
/// one the arbiter uses) until the predicted power fits the budget or the
/// floor is reached.  Shared by the implicit fallback and the explicit
/// law's safety pass so the two cannot drift.
gpu::GpuConfig ladder_to_budget(const GpuOnlineModels& models, const GpuWorkloadState& w,
                                gpu::GpuConfig c, double period_s,
                                const GpuBudgetState& budget, std::size_t* eval_counter,
                                common::Vec& phi) {
  if (!budget.constrained) return c;
  for (;;) {
    const double power = pkg_dram_power_w(models, w, c, period_s, budget, phi);
    if (eval_counter != nullptr) *eval_counter += 1;
    if (power <= budget.budget_w) break;
    if (!soc::gpu_throttle_step(c)) break;
  }
  return c;
}

}  // namespace

// ---- Implicit NMPC ----------------------------------------------------------

NmpcGpuController::NmpcGpuController(const gpu::GpuPlatform& platform, GpuOnlineModels& models,
                                     NmpcConfig cfg)
    : platform_(&platform), models_(&models), cfg_(cfg) {}

void NmpcGpuController::begin_run(const gpu::GpuConfig& initial) {
  slow_cfg_ = initial;
  state_ = GpuWorkloadState{};
  // Reset the thermal regime: a reused controller must not carry a stale
  // snapshot or power anchor into a fresh run.
  telemetry_ = soc::ThermalTelemetry{};
  producer_energy_j_ = -1.0;
}

void NmpcGpuController::observe_telemetry(const soc::ThermalTelemetry& telemetry) {
  if (cfg_.thermal_aware) telemetry_ = telemetry;
}

GpuBudgetState NmpcGpuController::budget_state() const {
  return make_budget_state(cfg_, telemetry_, producer_energy_j_, *models_, state_);
}

gpu::GpuConfig NmpcGpuController::solve_slow(const GpuWorkloadState& w,
                                             const gpu::GpuConfig& current,
                                             std::size_t* eval_counter,
                                             const GpuBudgetState& budget) const {
  const double period = 1.0 / cfg_.fps_target;
  const double deadline = period * (1.0 - cfg_.deadline_margin);
  const double h = static_cast<double>(cfg_.horizon_periods * cfg_.slow_period_frames);

  gpu::GpuConfig best = current;
  double best_cost = std::numeric_limits<double>::infinity();
  gpu::GpuConfig fastest = current;
  double fastest_t = std::numeric_limits<double>::infinity();
  gpu::GpuConfig least_over = current;
  double least_over_w = std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  bool any_deadline = false;

  for (int n = 1; n <= platform_->params().max_slices; ++n) {
    for (int fi = 0; fi < static_cast<int>(platform_->num_freqs()); ++fi) {
      const gpu::GpuConfig c{fi, n};
      const double t = models_->predict_frame_time_s(w, c, phi_buf_);
      const double e = models_->predict_gpu_energy_j(w, c, period, phi_buf_);
      if (eval_counter != nullptr) *eval_counter += 2;
      if (t < fastest_t) {
        fastest_t = t;
        fastest = c;
      }
      if (t > deadline) continue;
      if (budget.constrained) {
        const double power = (e + budget.other_energy_j) / period;
        if (!any_deadline || power < least_over_w) {
          any_deadline = true;
          least_over_w = power;
          least_over = c;
        }
        // Second feasibility predicate: the config must also fit the power
        // budget the arbiter will hold it to.
        if (power > budget.budget_w) continue;
      }
      // Horizon energy (workload forecast: EWMA held over the horizon) plus
      // one-time actuation cost amortized across the horizon.
      const auto tc = platform_->transition_cost(current, c);
      const double cost = e * h + tc.energy_j;
      if (!any_feasible || cost < best_cost) {
        any_feasible = true;
        best_cost = cost;
        best = c;
      }
    }
  }
  if (any_feasible) return best;
  // Infeasible fallback: the least-over-budget deadline-feasible config
  // (instead of the fastest), then down the same firmware throttle ladder
  // the arbiter descends until the predicted power fits — proposing what the
  // budgeter would grant anyway instead of being corrected by it.  Without a
  // budget (or with nothing deadline-feasible) the legacy fastest pick
  // stands.
  const gpu::GpuConfig fallback = any_deadline ? least_over : fastest;
  return ladder_to_budget(*models_, w, fallback, period, budget, eval_counter, phi_buf_);
}

// oal-lint: hot-path
gpu::GpuConfig NmpcGpuController::fast_trim(const GpuWorkloadState& w,
                                            const gpu::GpuConfig& current,
                                            std::size_t* eval_counter,
                                            const GpuBudgetState& budget) const {
  const double period = 1.0 / cfg_.fps_target;
  const double deadline = period * (1.0 - cfg_.deadline_margin);
  const double target = period * cfg_.fast_target_busy * (1.0 - cfg_.deadline_margin);
  gpu::GpuConfig c = current;
  const double t = models_->predict_frame_time_s(w, c, phi_buf_);
  const double sens = models_->frame_time_freq_sensitivity(w, c);  // s per GHz (negative)
  if (eval_counter != nullptr) *eval_counter += 2;
  if (std::abs(sens) < 1e-12)
    return cap_freq_to_budget(*models_, w, c, period, budget, eval_counter, phi_buf_);
  // Deadbeat step toward the target busy time using the learned sensitivity.
  const double df_ghz = (target - t) / sens;  // GHz change needed
  int steps = static_cast<int>(std::lround(df_ghz * 1000.0 / 50.0));  // 50 MHz bins
  steps = std::clamp(steps, -cfg_.fast_max_step, cfg_.fast_max_step);
  // Never trim below the deadline: verify the trimmed config still fits.
  c.freq_idx = std::clamp(current.freq_idx + steps, 0,
                          static_cast<int>(platform_->num_freqs()) - 1);
  // Never trim *up* through the power budget, and track a tightened budget
  // downward (frequency only — slices belong to the slow loop): the arbiter
  // would claw anything above the budget back and count a clamp.
  c = cap_freq_to_budget(*models_, w, c, period, budget, eval_counter, phi_buf_);
  while (c.freq_idx < static_cast<int>(platform_->num_freqs()) - 1 &&
         models_->predict_frame_time_s(w, c, phi_buf_) > deadline) {
    if (budget.constrained) {
      const gpu::GpuConfig up{c.freq_idx + 1, c.num_slices};
      if (eval_counter != nullptr) *eval_counter += 1;
      if (pkg_dram_power_w(*models_, w, up, period, budget, phi_buf_) > budget.budget_w)
        break;  // deadline escalation stops at the budget
    }
    ++c.freq_idx;
    if (eval_counter != nullptr) *eval_counter += 1;
  }
  return c;
}
// oal-lint: hot-path-end

gpu::GpuConfig NmpcGpuController::step(const gpu::FrameResult& result,
                                       const gpu::GpuConfig& current, std::size_t frame_index) {
  const double period = 1.0 / cfg_.fps_target;
  const GpuWorkloadState before = state_;
  models_->update(before, current, period, result, update_scratch_);
  state_.observe(result, models_->slice_eff(current.num_slices));
  track_producer_energy(cfg_, result, producer_energy_j_);
  const GpuBudgetState budget = budget_state();

  if (frame_index % cfg_.slow_period_frames == 0) {
    slow_cfg_ = solve_slow(state_, current, &evals_, budget);
    return slow_cfg_;
  }
  gpu::GpuConfig c = fast_trim(state_, current, &evals_, budget);
  c.num_slices = slow_cfg_.num_slices;  // fast loop never touches slices
  if (!result.deadline_met) {
    // Hard feedback: an observed miss overrides the model and escalates —
    // but never through the budget (the miss is the budget's price, and an
    // over-budget escalation would only bounce off the arbiter).
    c.freq_idx = std::min(c.freq_idx + cfg_.fast_max_step,
                          static_cast<int>(platform_->num_freqs()) - 1);
    c = cap_freq_to_budget(*models_, state_, c, period, budget, &evals_, phi_buf_);
  }
  return c;
}

// ---- Explicit NMPC ----------------------------------------------------------

ExplicitNmpcGpuController::ExplicitNmpcGpuController(const gpu::GpuPlatform& platform,
                                                     GpuOnlineModels& models, NmpcConfig cfg,
                                                     std::size_t num_samples, std::uint64_t seed)
    : platform_(&platform), models_(&models), cfg_(cfg),
      fast_helper_(platform, models, cfg) {
  // ---- Offline phase: sample the NMPC law on a Sobol grid ----------------
  // State: (work cycles, mem bytes, current freq idx, current slices), plus
  // a power-budget dimension when thermal-aware so the fitted law stays
  // valid under throttling (spanning floor-binding budgets up to the neutral
  // unconstrained value).
  NmpcGpuController reference(platform, models, cfg);
  const double max_f = platform.freq_mhz(static_cast<int>(platform.num_freqs()) - 1) * 1e6;
  const double period = 1.0 / cfg.fps_target;
  // Work range: up to what the fastest configuration can retire per period.
  const double max_work = max_f * 4.0 * period;
  std::vector<double> lo{0.02 * max_work, 1e6, 0.0, 1.0};
  std::vector<double> hi{0.95 * max_work, 60e6, static_cast<double>(platform.num_freqs()) - 1.0,
                         static_cast<double>(platform.params().max_slices)};
  if (cfg.thermal_aware) {
    lo.push_back(0.5);
    hi.push_back(soc::ThermalTelemetry::kUnconstrainedBudgetW);
  }
  const auto grid = common::sobol_grid(num_samples, lo, hi);
  (void)seed;

  std::vector<common::Vec> xs;
  std::vector<double> f_targets;
  std::vector<std::size_t> s_targets;
  xs.reserve(grid.size());
  for (const auto& p : grid) {
    GpuWorkloadState w;
    w.work_cycles = p[0];
    w.mem_bytes = p[1];
    const gpu::GpuConfig cur{static_cast<int>(std::lround(p[2])),
                             static_cast<int>(std::lround(p[3]))};
    GpuBudgetState b;
    double budget_w = soc::ThermalTelemetry::kUnconstrainedBudgetW;
    if (cfg.thermal_aware) {
      budget_w = p[4];  // the telemetry-visible budget is the law feature
      b.constrained = true;
      b.budget_w = budget_w * (1.0 - cfg.budget_margin);
      // Design time has no measurements: the producer-side prior stands in.
      b.other_energy_j = models.producer_energy_prior_j(w, period);
    }
    const gpu::GpuConfig sol = reference.solve_slow(w, cur, &offline_evals_, b);
    xs.push_back(ml::quadratic_features(law_features(w, cur, budget_w)));
    f_targets.push_back(static_cast<double>(sol.freq_idx));
    s_targets.push_back(static_cast<std::size_t>(sol.num_slices - 1));
  }
  freq_law_ = ml::RidgeRegression(1e-6);
  freq_law_.fit(xs, f_targets);
  ml::TreeConfig tree_cfg;
  tree_cfg.max_depth = 10;
  tree_cfg.min_samples_leaf = 3;
  tree_cfg.min_samples_split = 6;
  slice_law_ = ml::ClassificationTree(tree_cfg);
  slice_law_.fit(xs, s_targets, static_cast<std::size_t>(platform.params().max_slices));
}

common::Vec ExplicitNmpcGpuController::law_features(const GpuWorkloadState& w,
                                                    const gpu::GpuConfig& current,
                                                    double budget_w) const {
  const double max_f = platform_->freq_mhz(static_cast<int>(platform_->num_freqs()) - 1) * 1e6;
  const double period = 1.0 / cfg_.fps_target;
  const double max_work = max_f * 4.0 * period;
  common::Vec x{w.work_cycles / max_work, w.mem_bytes * 1e-8,
                static_cast<double>(current.freq_idx) /
                    (static_cast<double>(platform_->num_freqs()) - 1.0),
                static_cast<double>(current.num_slices) /
                    static_cast<double>(platform_->params().max_slices)};
  if (cfg_.thermal_aware) x.push_back(budget_w / soc::ThermalTelemetry::kUnconstrainedBudgetW);
  return x;
}

void ExplicitNmpcGpuController::begin_run(const gpu::GpuConfig& initial) {
  slow_cfg_ = initial;
  state_ = GpuWorkloadState{};
  telemetry_ = soc::ThermalTelemetry{};
  producer_energy_j_ = -1.0;
}

void ExplicitNmpcGpuController::observe_telemetry(const soc::ThermalTelemetry& telemetry) {
  if (cfg_.thermal_aware) telemetry_ = telemetry;
}

GpuBudgetState ExplicitNmpcGpuController::budget_state() const {
  return make_budget_state(cfg_, telemetry_, producer_energy_j_, *models_, state_);
}

gpu::GpuConfig ExplicitNmpcGpuController::step(const gpu::FrameResult& result,
                                               const gpu::GpuConfig& current,
                                               std::size_t frame_index) {
  const double period = 1.0 / cfg_.fps_target;
  const GpuWorkloadState before = state_;
  models_->update(before, current, period, result, update_scratch_);
  state_.observe(result, models_->slice_eff(current.num_slices));
  track_producer_energy(cfg_, result, producer_energy_j_);
  const GpuBudgetState budget = budget_state();

  if (frame_index % cfg_.slow_period_frames == 0) {
    // Evaluate the explicit law: two regressor lookups, O(features) work.
    // The law feature is the *telemetry-visible* budget — the same value the
    // sampler used — not the margined one the solver constrains against.
    const double budget_feature = telemetry_.constrained
                                      ? telemetry_.budget_w
                                      : soc::ThermalTelemetry::kUnconstrainedBudgetW;
    const common::Vec x =
        ml::quadratic_features(law_features(state_, current, budget_feature));
    const int max_idx = static_cast<int>(platform_->num_freqs()) - 1;
    int fi = static_cast<int>(std::lround(freq_law_.predict(x)));
    fi = std::clamp(fi, 0, max_idx);
    int slices = static_cast<int>(slice_law_.predict(x)) + 1;
    slices = std::clamp(slices, 1, platform_->params().max_slices);
    evals_ += 2;
    slow_cfg_ = gpu::GpuConfig{fi, slices};
    // Safety: if the law's pick predictably misses the deadline, escalate
    // frequency (the learned surface is an approximation) — but never
    // through the power budget the arbiter will hold it to.
    const double deadline = period * (1.0 - cfg_.deadline_margin);
    while (slow_cfg_.freq_idx < max_idx &&
           models_->predict_frame_time_s(state_, slow_cfg_, phi_buf_) > deadline) {
      if (budget.constrained) {
        const gpu::GpuConfig up{slow_cfg_.freq_idx + 1, slow_cfg_.num_slices};
        ++evals_;
        if (pkg_dram_power_w(*models_, state_, up, period, budget, phi_buf_) > budget.budget_w)
          break;
      }
      ++slow_cfg_.freq_idx;
      ++evals_;
    }
    // The law approximates the budget-constrained solve; if its pick still
    // predicts over budget, descend the shared firmware ladder like the
    // implicit fallback (and the arbiter) would.
    slow_cfg_ = ladder_to_budget(*models_, state_, slow_cfg_, period, budget, &evals_, phi_buf_);
    return slow_cfg_;
  }
  // Fast rate: identical adaptive sensitivity trim as the implicit NMPC,
  // through the persistent helper (fast_trim is const and stateless w.r.t.
  // the helper's run state).
  gpu::GpuConfig c = fast_helper_.fast_trim(state_, current, &evals_, budget);
  c.num_slices = slow_cfg_.num_slices;
  if (!result.deadline_met) {
    // Miss escalation, capped at the budget ceiling like the implicit NMPC.
    c.freq_idx = std::min(c.freq_idx + cfg_.fast_max_step,
                          static_cast<int>(platform_->num_freqs()) - 1);
    c = cap_freq_to_budget(*models_, state_, c, period, budget, &evals_, phi_buf_);
  }
  return c;
}

// ---- Offline model bootstrap -------------------------------------------------

void bootstrap_gpu_models(gpu::GpuPlatform& platform, GpuOnlineModels& models, double period_s,
                          std::size_t frames, common::Rng& rng) {
  // Generic design-time content mix: one representative mid-intensity
  // workload swept across random configurations.
  const auto& suite = workloads::GpuBenchmarks::fig5_suite();
  GpuOnlineModels::UpdateScratch scratch;
  for (std::size_t i = 0; i < frames; ++i) {
    const auto& spec = suite[i % suite.size()];
    common::Rng frame_rng = rng.fork();
    const auto trace = workloads::GpuBenchmarks::trace(spec, 1, frame_rng);
    const gpu::GpuConfig c{rng.uniform_int(0, static_cast<int>(platform.num_freqs()) - 1),
                           rng.uniform_int(1, platform.params().max_slices)};
    const auto r = platform.render(trace[0], c, period_s);
    // At design time the frame content is known exactly, so the models are
    // trained against the true per-frame descriptors (profiling, not
    // prediction).
    GpuWorkloadState w;
    w.work_cycles = trace[0].render_cycles;
    w.mem_bytes = trace[0].mem_bytes;
    w.cpu_cycles = trace[0].cpu_cycles;
    models.update(w, c, period_s, r, scratch);
  }
}

}  // namespace oal::core
