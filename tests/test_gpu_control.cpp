// Tests for GPU online models, the multi-rate NMPC/explicit-NMPC controllers
// (including the budget-feasibility predicate of the thermal-aware variant)
// and the GPU frame-loop runner.
#include <gtest/gtest.h>

#include "core/gpu_controller.h"
#include "core/gpu_models.h"
#include "core/nmpc.h"
#include "soc/thermal_platform.h"
#include "workloads/gpu_benchmarks.h"

namespace oal::core {
namespace {

constexpr double kPeriod = 1.0 / 30.0;

class GpuModelsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(7);
    models_ = std::make_unique<GpuOnlineModels>(plat_);
    bootstrap_gpu_models(plat_, *models_, kPeriod, 400, rng);
  }
  gpu::GpuPlatform plat_;
  std::unique_ptr<GpuOnlineModels> models_;
  common::Vec phi_;  ///< feature scratch of the model predictions
};

TEST_F(GpuModelsFixture, FrameTimePredictionAccurate) {
  common::Rng rng(3);
  const auto frames = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 10, rng);
  for (const auto& f : frames) {
    GpuWorkloadState w;
    w.work_cycles = f.render_cycles;
    w.mem_bytes = f.mem_bytes;
    for (const gpu::GpuConfig c : {gpu::GpuConfig{4, 1}, gpu::GpuConfig{10, 2},
                                   gpu::GpuConfig{16, 4}}) {
      const auto truth = plat_.render_ideal(f, c, kPeriod);
      const double pred = models_->predict_frame_time_s(w, c, phi_);
      EXPECT_NEAR(pred, truth.frame_time_s, 0.12 * truth.frame_time_s)
          << "config " << c.freq_idx << "/" << c.num_slices;
    }
  }
}

TEST_F(GpuModelsFixture, EnergyPredictionAccurate) {
  common::Rng rng(4);
  const auto frames = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("FruitNinja"), 5, rng);
  for (const auto& f : frames) {
    GpuWorkloadState w;
    w.work_cycles = f.render_cycles;
    w.mem_bytes = f.mem_bytes;
    const gpu::GpuConfig c{8, 2};
    const auto truth = plat_.render_ideal(f, c, kPeriod);
    EXPECT_NEAR(models_->predict_gpu_energy_j(w, c, kPeriod, phi_), truth.gpu_energy_j,
                0.15 * truth.gpu_energy_j);
  }
}

TEST_F(GpuModelsFixture, SensitivityIsNegative) {
  GpuWorkloadState w;
  w.work_cycles = 20e6;
  // More frequency -> less frame time; the learned sensitivity must agree.
  EXPECT_LT(models_->frame_time_freq_sensitivity(w, {8, 2}), 0.0);
}

TEST_F(GpuModelsFixture, NmpcSolveRespectsDeadline) {
  NmpcGpuController nmpc(plat_, *models_);
  GpuWorkloadState w;
  w.work_cycles = 30e6;
  w.mem_bytes = 15e6;
  std::size_t evals = 0;
  const gpu::GpuConfig sol = nmpc.solve_slow(w, {9, 4}, &evals);
  EXPECT_TRUE(plat_.valid(sol));
  EXPECT_GT(evals, 0u);
  EXPECT_LE(models_->predict_frame_time_s(w, sol, phi_), kPeriod);
}

TEST_F(GpuModelsFixture, NmpcPrefersFewSlicesForLightLoad) {
  NmpcGpuController nmpc(plat_, *models_);
  GpuWorkloadState light;
  light.work_cycles = 4e6;
  light.mem_bytes = 3e6;
  GpuWorkloadState heavy;
  heavy.work_cycles = 70e6;
  heavy.mem_bytes = 40e6;
  std::size_t evals = 0;
  const auto sol_light = nmpc.solve_slow(light, {9, 4}, &evals);
  const auto sol_heavy = nmpc.solve_slow(heavy, {9, 4}, &evals);
  EXPECT_LT(sol_light.num_slices, sol_heavy.num_slices);
}

TEST_F(GpuModelsFixture, ProducerEnergyPriorMatchesPlatformProducerSide) {
  gpu::FrameDescriptor f;
  f.render_cycles = 25e6;
  f.mem_bytes = 18e6;
  f.cpu_cycles = 9e6;
  GpuWorkloadState w;
  w.cpu_cycles = f.cpu_cycles;
  w.mem_bytes = f.mem_bytes;
  const auto truth = plat_.render_ideal(f, {10, 2}, kPeriod);
  // The prior mirrors render_ideal's config-independent producer side
  // (CPU + package base + DRAM) exactly.
  EXPECT_DOUBLE_EQ(models_->producer_energy_prior_j(w, kPeriod),
                   truth.pkg_dram_energy_j - truth.gpu_energy_j);
}

TEST_F(GpuModelsFixture, BudgetPredicateConstrainsSlowSolve) {
  NmpcGpuController nmpc(plat_, *models_);
  GpuWorkloadState w;
  w.work_cycles = 30e6;
  w.mem_bytes = 15e6;
  std::size_t evals = 0;
  const gpu::GpuConfig blind = nmpc.solve_slow(w, {9, 4}, &evals);
  const double blind_power =
      (models_->predict_gpu_energy_j(w, blind, kPeriod, phi_) +
       models_->producer_energy_prior_j(w, kPeriod)) / kPeriod;

  // A budget below the blind pick's power forces a different, budget-feasible
  // solution (the predicate, not the arbiter, does the work).
  GpuBudgetState b;
  b.constrained = true;
  b.budget_w = 0.8 * blind_power;
  b.other_energy_j = models_->producer_energy_prior_j(w, kPeriod);
  const gpu::GpuConfig constrained = nmpc.solve_slow(w, {9, 4}, &evals, b);
  EXPECT_TRUE(plat_.valid(constrained));
  EXPECT_TRUE(constrained != blind);
  EXPECT_LE((models_->predict_gpu_energy_j(w, constrained, kPeriod, phi_) + b.other_energy_j) /
                kPeriod,
            b.budget_w);
}

TEST_F(GpuModelsFixture, InfeasibleBudgetFallsToTheThrottleFloor) {
  NmpcGpuController nmpc(plat_, *models_);
  GpuWorkloadState w;
  w.work_cycles = 30e6;
  w.mem_bytes = 15e6;
  GpuBudgetState b;
  b.constrained = true;
  b.budget_w = 0.05;  // below even the floor config's power
  b.other_energy_j = models_->producer_energy_prior_j(w, kPeriod);
  std::size_t evals = 0;
  // The fallback descends the shared firmware ladder all the way down: the
  // controller proposes the floor itself instead of bouncing off the arbiter.
  const gpu::GpuConfig sol = nmpc.solve_slow(w, {9, 4}, &evals, b);
  EXPECT_EQ(sol.freq_idx, 0);
  EXPECT_EQ(sol.num_slices, 1);
}

TEST_F(GpuModelsFixture, FastTrimNeverTrimsUpThroughBudget) {
  NmpcGpuController nmpc(plat_, *models_);
  GpuWorkloadState heavy;  // misses the deadline at low frequency: the trim
  heavy.work_cycles = 60e6;  // wants to escalate
  heavy.mem_bytes = 30e6;
  const gpu::GpuConfig current{4, 4};
  std::size_t evals = 0;
  const gpu::GpuConfig unconstrained = nmpc.fast_trim(heavy, current, &evals);
  ASSERT_GT(unconstrained.freq_idx, current.freq_idx);

  // Cap the budget at the current config's predicted power: the escalation
  // must stop at the budget instead of punching through it.
  GpuBudgetState b;
  b.constrained = true;
  b.other_energy_j = models_->producer_energy_prior_j(heavy, kPeriod);
  b.budget_w = (models_->predict_gpu_energy_j(heavy, current, kPeriod, phi_) + b.other_energy_j) /
               kPeriod;
  const gpu::GpuConfig capped = nmpc.fast_trim(heavy, current, &evals, b);
  EXPECT_LE(capped.freq_idx, current.freq_idx);
  EXPECT_LE((models_->predict_gpu_energy_j(heavy, capped, kPeriod, phi_) + b.other_energy_j) /
                kPeriod,
            b.budget_w + 1e-12);
}

TEST(GpuThrottleStep, FrequencyFirstThenSlicesToFloor) {
  gpu::GpuConfig c{2, 3};
  EXPECT_TRUE(soc::gpu_throttle_step(c));
  EXPECT_EQ(c, (gpu::GpuConfig{1, 3}));
  EXPECT_TRUE(soc::gpu_throttle_step(c));
  EXPECT_EQ(c, (gpu::GpuConfig{0, 3}));
  EXPECT_TRUE(soc::gpu_throttle_step(c));
  EXPECT_EQ(c, (gpu::GpuConfig{0, 2}));
  EXPECT_TRUE(soc::gpu_throttle_step(c));
  EXPECT_EQ(c, (gpu::GpuConfig{0, 1}));
  // The floor: 1 slice at minimum frequency is never stepped through.
  EXPECT_FALSE(soc::gpu_throttle_step(c));
  EXPECT_EQ(c, (gpu::GpuConfig{0, 1}));
}

TEST_F(GpuModelsFixture, ExplicitLawApproximatesNmpc) {
  NmpcConfig cfg;
  ExplicitNmpcGpuController enmpc(plat_, *models_, cfg, 1200);
  NmpcGpuController nmpc(plat_, *models_, cfg);
  enmpc.begin_run({9, 4});
  nmpc.begin_run({9, 4});
  // Drive both with the same frames; compare resulting energies end-to-end.
  common::Rng rng(9);
  const auto trace = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("VendettaMark"), 600, rng);
  gpu::GpuPlatform p1({}, 1), p2({}, 1);
  GpuRunner r1(p1, 30.0), r2(p2, 30.0);
  const auto res_n = r1.run(trace, nmpc, {9, 4});
  const auto res_e = r2.run(trace, enmpc, {9, 4});
  EXPECT_NEAR(res_e.gpu_energy_j, res_n.gpu_energy_j, 0.15 * res_n.gpu_energy_j);
  // The explicit law must be far cheaper per slow decision.
  EXPECT_LT(res_e.decision_evals, res_n.decision_evals / 2);
}

TEST(GpuController, BaselineKeepsAllSlices) {
  gpu::GpuPlatform plat;
  BaselineGpuGovernor gov(plat);
  gpu::FrameResult r;
  r.gpu_busy_frac = 0.5;
  r.deadline_met = true;
  const auto next = gov.step(r, {5, 2}, 0);
  EXPECT_EQ(next.num_slices, plat.params().max_slices);
}

TEST(GpuController, BaselineRampsOnMiss) {
  gpu::GpuPlatform plat;
  BaselineGpuGovernor gov(plat);
  gpu::FrameResult r;
  r.gpu_busy_frac = 1.0;
  r.deadline_met = false;
  const auto next = gov.step(r, {5, 4}, 0);
  EXPECT_GT(next.freq_idx, 5);
}

TEST(GpuController, BaselineDecaysWhenIdle) {
  gpu::GpuPlatform plat;
  BaselineGpuGovernor gov(plat);
  gpu::FrameResult r;
  r.gpu_busy_frac = 0.2;
  r.deadline_met = true;
  const auto next = gov.step(r, {10, 4}, 0);
  EXPECT_LT(next.freq_idx, 10);
}

TEST(GpuRunner, AccountsEnergyAndMisses) {
  gpu::GpuPlatform plat;
  GpuRunner runner(plat, 30.0);
  common::Rng rng(11);
  const auto trace = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("SharkDash"), 200, rng);
  MaxGpuGovernor gov(plat);
  const auto res = runner.run(trace, gov, {17, 4});
  EXPECT_EQ(res.frames, 200u);
  EXPECT_GT(res.gpu_energy_j, 0.0);
  EXPECT_GT(res.pkg_energy_j, res.gpu_energy_j);
  EXPECT_GT(res.pkg_dram_energy_j, res.pkg_energy_j);
  EXPECT_EQ(res.deadline_misses, 0u);  // max config renders SharkDash easily
  EXPECT_EQ(res.frame_times_s.size(), 200u);
}

TEST(GpuRunner, TransitionCostsCharged) {
  gpu::GpuPlatform plat;
  GpuRunner runner(plat, 30.0);
  common::Rng rng(12);
  const auto trace = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 100, rng);

  // A controller that flips slice count each frame racks up transition cost.
  class Flipper : public GpuController {
   public:
    std::string name() const override { return "flipper"; }
    gpu::GpuConfig step(const gpu::FrameResult&, const gpu::GpuConfig& cur,
                        std::size_t) override {
      return gpu::GpuConfig{cur.freq_idx, cur.num_slices == 1 ? 2 : 1};
    }
  } flipper;
  const auto res = runner.run(trace, flipper, {10, 1});
  EXPECT_EQ(res.slice_changes, 100u);
  EXPECT_GT(res.transition_energy_j, 0.05);
}

TEST(GpuRunner, TelemetryChannelDoesNotPerturbBlindControllers) {
  // Binding a telemetry source must leave a thermally-blind controller's
  // records byte-identical: the default observe_telemetry is a no-op and the
  // source itself is side-effect free.
  common::Rng rng(21);
  const auto trace = workloads::GpuBenchmarks::trace(
      workloads::GpuBenchmarks::by_name("EpicCitadel"), 120, rng);
  const gpu::GpuConfig init{9, 4};

  const auto run_with = [&](bool bind_telemetry) {
    gpu::GpuPlatform plat({}, 5);
    GpuRunnerHooks hooks;
    if (bind_telemetry) {
      hooks.telemetry = [] {
        soc::ThermalTelemetry t;
        t.constrained = true;
        t.budget_w = 0.5;  // would bind hard if anything listened
        return t;
      };
    }
    GpuRunner runner(plat, 30.0, std::move(hooks));
    GpuOnlineModels models(plat);
    common::Rng boot(7);
    bootstrap_gpu_models(plat, models, kPeriod, 200, boot);
    NmpcConfig cfg;  // thermal_aware defaults to false: blind
    ExplicitNmpcGpuController enmpc(plat, models, cfg, 300);
    return runner.run(trace, enmpc, init);
  };
  const GpuRunResult without = run_with(false);
  const GpuRunResult with = run_with(true);
  ASSERT_EQ(without.configs.size(), with.configs.size());
  for (std::size_t i = 0; i < without.configs.size(); ++i)
    EXPECT_EQ(without.configs[i], with.configs[i]);
  EXPECT_EQ(without.gpu_energy_j, with.gpu_energy_j);
  EXPECT_EQ(without.pkg_dram_energy_j, with.pkg_dram_energy_j);
  EXPECT_EQ(without.deadline_misses, with.deadline_misses);
  EXPECT_EQ(without.decision_evals, with.decision_evals);
}

TEST(GpuWorkloadStateTest, ObserveTracksContent) {
  GpuWorkloadState w;
  gpu::FrameResult r;
  r.busy_cycles = 30e6;  // at eff=1
  r.mem_bytes = 20e6;
  for (int i = 0; i < 20; ++i) w.observe(r, 1.0);
  EXPECT_NEAR(w.work_cycles, 30e6, 1e5);
  EXPECT_NEAR(w.mem_bytes, 20e6, 1e5);
}

}  // namespace
}  // namespace oal::core
