// Tests for feature extraction and the online power/performance models.
#include <gtest/gtest.h>

#include <cmath>

#include "core/features.h"
#include "core/models.h"
#include "core/oracle.h"
#include "ml/scaler.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

common::Vec policy_features(const FeatureExtractor& fx, const soc::PerfCounters& k,
                            const soc::SocConfig& c, const soc::ThermalTelemetry& t = {}) {
  common::Vec out;
  fx.policy_features_into(k, c, out, t);
  return out;
}

common::Vec model_features(const FeatureExtractor& fx, const WorkloadFeatures& w,
                           const soc::SocConfig& c) {
  common::Vec out;
  fx.model_features_into(w, c, out);
  return out;
}

/// Predicted energy (J) of a candidate: exp(log t/I + log P) * I.
double predict_energy_j(const OnlineSocModels& m, const WorkloadFeatures& w,
                        const soc::SocConfig& c, double instructions) {
  common::Vec phi;
  return std::exp(m.predict_log_cost(w, c, phi)) * instructions;
}

soc::SnippetDescriptor sample_snippet() {
  soc::SnippetDescriptor s;
  s.instructions = 20e6;
  s.base_cpi_little = 1.7;
  s.base_cpi_big = 1.0;
  s.l2_mpki = 4.0;
  s.branch_mpki = 3.0;
  s.parallel_fraction = 0.3;
  s.max_threads = 4;
  return s;
}

TEST(WorkloadFeatures, RatesMatchDescriptors) {
  soc::BigLittlePlatform plat;
  const auto s = sample_snippet();
  const soc::SocConfig c{2, 2, 8, 10};
  const auto r = plat.execute_ideal(s, c);
  const WorkloadFeatures w = workload_features(r.counters, c);
  EXPECT_NEAR(w.mpki, s.l2_mpki, 0.01);
  EXPECT_NEAR(w.bmpki, s.branch_mpki, 0.01);
  EXPECT_NEAR(w.mem_ai, s.mem_access_per_inst, 0.01);
  EXPECT_GT(w.cpi_obs, 0.0);
  EXPECT_GE(w.pf_proxy, 0.0);
  EXPECT_LE(w.pf_proxy, 1.0);
  EXPECT_GE(w.runnable, 1.0);
}

TEST(WorkloadFeatures, ParallelismVisibleThroughRunnable) {
  soc::BigLittlePlatform plat;
  auto par = sample_snippet();
  par.parallel_fraction = 0.9;
  auto ser = sample_snippet();
  ser.parallel_fraction = 0.0;
  ser.max_threads = 1;
  const soc::SocConfig one_core{1, 0, 8, 0};
  const auto wp = workload_features(plat.execute_ideal(par, one_core).counters, one_core);
  const auto ws = workload_features(plat.execute_ideal(ser, one_core).counters, one_core);
  EXPECT_GT(wp.runnable, ws.runnable + 1.0);
}

TEST(FeatureExtractor, PolicyFeatureDimension) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  const auto r = plat.execute_ideal(sample_snippet(), {2, 2, 8, 10});
  const auto f = policy_features(fx, r.counters, {2, 2, 8, 10});
  EXPECT_EQ(f.size(), fx.policy_dim());
}

TEST(FeatureExtractor, ThermalAwareAppendsWithoutPerturbingBlindFeatures) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor blind(plat.space());
  const FeatureExtractor aware(plat.space(), /*thermal_aware=*/true);
  EXPECT_EQ(aware.policy_dim(), blind.policy_dim() + FeatureExtractor::kThermalDims);

  const soc::SocConfig c{2, 2, 8, 10};
  const auto r = plat.execute_ideal(sample_snippet(), c);

  soc::ThermalTelemetry hot;
  hot.constrained = true;
  hot.junction_c = 55.0;
  hot.skin_c = 41.0;
  hot.junction_limit_c = 85.0;
  hot.skin_limit_c = 45.0;
  hot.ambient_c = 25.0;
  hot.budget_w = 2.0;

  // A blind extractor must be bitwise-insensitive to telemetry: the blind
  // training/runtime path stays byte-identical whether or not a telemetry
  // source is bound.
  const auto f_blind = policy_features(blind, r.counters, c);
  const auto f_blind_hot = policy_features(blind, r.counters, c, hot);
  ASSERT_EQ(f_blind.size(), blind.policy_dim());
  ASSERT_EQ(f_blind_hot.size(), f_blind.size());
  for (std::size_t i = 0; i < f_blind.size(); ++i)
    EXPECT_DOUBLE_EQ(f_blind[i], f_blind_hot[i]);

  // Aware features: the blind prefix is unchanged, thermal dims appended.
  const auto f_aware_hot = policy_features(aware, r.counters, c, hot);
  ASSERT_EQ(f_aware_hot.size(), aware.policy_dim());
  for (std::size_t i = 0; i < f_blind.size(); ++i)
    EXPECT_DOUBLE_EQ(f_aware_hot[i], f_blind[i]);
  const std::size_t base = blind.policy_dim();
  EXPECT_NEAR(f_aware_hot[base + 0], (55.0 - 25.0) / (85.0 - 25.0), 1e-12);
  EXPECT_NEAR(f_aware_hot[base + 1], (41.0 - 25.0) / (45.0 - 25.0), 1e-12);
  EXPECT_NEAR(f_aware_hot[base + 2], 2.0 / soc::ThermalTelemetry::kUnconstrainedBudgetW, 1e-12);

  // Neutral (default) telemetry encodes a cool, unconstrained device.
  const auto f_aware_neutral = policy_features(aware, r.counters, c);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 0], 0.0);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 1], 0.0);
  EXPECT_DOUBLE_EQ(f_aware_neutral[base + 2], 1.0);
}

TEST(StandardScaler, ConstantFeaturesAreCenteredNotAmplified) {
  // The neutral thermal features are constant across an offline dataset; the
  // scaler must give them scale 1.0 (sklearn behavior), not divide by a ~0
  // std that would launch any runtime deviation to ~1e9.
  ml::StandardScaler scaler;
  scaler.fit({{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}});
  const auto s = scaler.stds();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GT(s[0], 0.5);  // real variance: standardized normally
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  ml::StandardScaler::TransformCache cache;
  common::Vec z;
  scaler.transform_into({2.0, 0.75}, z, cache);
  EXPECT_DOUBLE_EQ(z[0], 0.0);
  EXPECT_DOUBLE_EQ(z[1], 0.75);  // centered at the constant, unscaled

  // Near-constant (but not exactly constant) features are floored, not
  // amplified through a ~0 std: amplification is bounded by 1/kMinScale.
  ml::StandardScaler near;
  near.fit({{0.0}, {1e-5}, {0.0}, {1e-5}});
  EXPECT_DOUBLE_EQ(near.stds()[0], 1e-2);
  ml::StandardScaler::TransformCache near_cache;
  near.transform_into({0.75}, z, near_cache);
  EXPECT_LE(std::abs(z[0]), 100.0);
}

TEST(OfflineData, ThermalAwareCollectionMatchesPolicyDim) {
  soc::BigLittlePlatform plat;
  common::Rng rng(3);
  const std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("SHA")};
  const OfflineData off = collect_offline_data(plat, apps, Objective::kEnergy, 2, 2, rng,
                                               nullptr, /*thermal_aware=*/true);
  ASSERT_FALSE(off.policy.states.empty());
  const FeatureExtractor aware(plat.space(), true);
  for (const auto& s : off.policy.states) EXPECT_EQ(s.size(), aware.policy_dim());
}

TEST(FeatureExtractor, ModelFeatureDimension) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  const WorkloadFeatures w;
  EXPECT_EQ(model_features(fx, w, {1, 0, 0, 0}).size(), fx.model_dim());
  EXPECT_EQ(model_features(fx, w, {4, 4, 12, 18}).size(), fx.model_dim());
}

TEST(FeatureExtractor, PolicyFeaturesIntoOverwritesAReusedBuffer) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor blind(plat.space());
  const FeatureExtractor aware(plat.space(), /*thermal_aware=*/true);
  const soc::SocConfig c{3, 1, 4, 12};
  const auto r = plat.execute_ideal(sample_snippet(), c);
  const WorkloadFeatures w = workload_features(r.counters, c);

  // A stale, longer buffer (the thermal-aware state) is shrunk to the blind
  // dimension and every slot rewritten — nothing of the old contents leaks.
  common::Vec buf(aware.policy_dim(), std::nan(""));
  blind.policy_features_into(r.counters, c, buf);
  ASSERT_EQ(buf.size(), blind.policy_dim());
  const common::Vec fresh = policy_features(blind, r.counters, c);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], fresh[i]) << "slot " << i;

  // The layout: workload rates, then the knob encodings of the current config.
  EXPECT_EQ(buf[0], w.mpki);
  EXPECT_EQ(buf[5], w.cpi_obs);
  EXPECT_EQ(buf[6], w.runnable / 4.0);
  EXPECT_EQ(buf[9], 3.0 / 4.0);
  EXPECT_EQ(buf[10], 1.0 / 4.0);
  EXPECT_EQ(buf[11], 0.5 * (4.0 / 12.0 + 12.0 / 18.0));

  // Growing back to the aware dimension keeps the blind prefix.
  aware.policy_features_into(r.counters, c, buf);
  ASSERT_EQ(buf.size(), aware.policy_dim());
  for (std::size_t i = 0; i < fresh.size(); ++i) EXPECT_EQ(buf[i], fresh[i]) << "slot " << i;
}

TEST(FeatureExtractor, ModelFeaturesIntoOverwritesAReusedBuffer) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  WorkloadFeatures w;
  w.mpki = 3.0;
  w.runnable = 2.0;
  const soc::SocConfig c{2, 3, 6, 9};
  common::Vec buf(40, std::nan(""));
  fx.model_features_into(w, c, buf);
  ASSERT_EQ(buf.size(), fx.model_dim());
  const double f_l = plat.space().little_freq_mhz(c) / 1000.0;
  const double f_b = plat.space().big_freq_mhz(c) / 1000.0;
  EXPECT_EQ(buf[0], 1.0);
  EXPECT_EQ(buf[1], std::log(f_l));
  EXPECT_EQ(buf[2], std::log(f_b));
  EXPECT_EQ(buf[3], 1.0);
  EXPECT_EQ(buf[4], 3.0);
  EXPECT_EQ(buf[5], 3.0 * f_l);
  // Run-queue parallel fraction (r - 1) / r = 0.5 and width min(r, 2 + 3) = 2.
  EXPECT_EQ(buf[8], 0.5);
  EXPECT_EQ(buf[20], 2.0);
  for (double v : buf) EXPECT_TRUE(std::isfinite(v));

  // Reusing the buffer for another candidate rewrites every slot.
  const soc::SocConfig other{1, 0, 0, 0};
  fx.model_features_into(w, other, buf);
  const common::Vec fresh = model_features(fx, w, other);
  ASSERT_EQ(buf.size(), fresh.size());
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], fresh[i]) << "slot " << i;
}

TEST(FeatureExtractor, BigKnobsInertWhenClusterOff) {
  soc::BigLittlePlatform plat;
  const FeatureExtractor fx(plat.space());
  WorkloadFeatures w;
  w.mpki = 3.0;
  const auto a = model_features(fx, w, {2, 0, 5, 3});
  const auto b = model_features(fx, w, {2, 0, 5, 15});
  // With the big cluster gated, its frequency must not change any feature.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

class ModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(11);
    const auto apps = workloads::CpuBenchmarks::all();  // train on everything
    data_ = collect_offline_data(plat_, apps, Objective::kEnergy, 10, 5, rng);
    models_.bootstrap(data_.model_samples);
  }
  soc::BigLittlePlatform plat_;
  OnlineSocModels models_{plat_.space()};
  OfflineData data_;
};

TEST_F(ModelFixture, BootstrapPredictsInDistribution) {
  // On the training distribution the bootstrapped models should predict
  // time within ~30% and power within ~25% on most samples.  (The offline
  // fit is a global linear-in-features model over all 4940 configurations;
  // the online RLS updates are what sharpen it around the operating point —
  // covered by OnlineUpdatesReduceErrorOnNewWorkload below.)
  int good_t = 0, good_p = 0, total = 0;
  common::Vec phi;
  for (std::size_t i = 0; i < data_.model_samples.size(); i += 13) {
    const auto& s = data_.model_samples[i];
    const double pp = models_.predict_power_w(s.workload, s.config, phi);
    const double tp = predict_energy_j(models_, s.workload, s.config, s.instructions) / pp;
    good_t += std::abs(tp - s.time_s) / s.time_s < 0.30;
    good_p += std::abs(pp - s.power_w) / s.power_w < 0.25;
    ++total;
  }
  EXPECT_GT(static_cast<double>(good_t) / total, 0.75);
  EXPECT_GT(static_cast<double>(good_p) / total, 0.8);
}

TEST_F(ModelFixture, OnlineUpdatesReduceErrorOnNewWorkload) {
  // Synthetic workload far from anything in training.
  soc::SnippetDescriptor s;
  s.instructions = 20e6;
  s.base_cpi_little = 2.6;
  s.base_cpi_big = 2.1;
  s.l2_mpki = 16.0;
  s.branch_mpki = 8.0;
  s.parallel_fraction = 0.5;
  s.max_threads = 4;
  const soc::SocConfig c{3, 1, 10, 8};
  soc::BigLittlePlatform plat;
  double first_err = -1.0, last_err = 0.0;
  common::Vec phi;
  for (int i = 0; i < 60; ++i) {
    const auto r = plat.execute_ideal(s, c);
    const auto w = workload_features(r.counters, c);
    const double pred =
        predict_energy_j(models_, w, c, s.instructions) / models_.predict_power_w(w, c, phi);
    const double err = std::abs(pred - r.exec_time_s) / r.exec_time_s;
    if (first_err < 0.0) first_err = err;
    last_err = err;
    models_.update(ModelSample{w, c, r.exec_time_s, 20e6, r.avg_power_w}, phi);
  }
  EXPECT_LT(last_err, 0.05);
  EXPECT_LE(last_err, first_err + 1e-9);
}

TEST_F(ModelFixture, CandidateRankingMatchesGroundTruthLocally) {
  // The models' purpose: rank a local neighborhood like ground truth does.
  soc::BigLittlePlatform plat;
  common::Rng rng(13);
  const auto& app = workloads::CpuBenchmarks::by_name("FFT");
  const auto trace = workloads::CpuBenchmarks::trace(app, 5, rng);
  const soc::SocConfig current{2, 1, 8, 10};
  const auto r = plat.execute_ideal(trace[2], current);
  const auto w = workload_features(r.counters, current);
  std::vector<soc::SocConfig> cands;
  plat.space().neighborhood_into(current, 1, 2, cands);
  // Find predicted and true argmin.
  double best_pred = 1e300, best_true = 1e300;
  soc::SocConfig cp, ct;
  for (const auto& c : cands) {
    const double pe = predict_energy_j(models_, w, c, trace[2].instructions);
    const double te = plat.execute_ideal(trace[2], c).energy_j;
    if (pe < best_pred) { best_pred = pe; cp = c; }
    if (te < best_true) { best_true = te; ct = c; }
  }
  // The config the models pick must be within 5% of the truly best energy.
  const double chosen_true_e = plat.execute_ideal(trace[2], cp).energy_j;
  EXPECT_LT(chosen_true_e / best_true, 1.05);
}

TEST(OnlineSocModels, RejectsBadSamples) {
  soc::BigLittlePlatform plat;
  OnlineSocModels m(plat.space());
  EXPECT_THROW(m.bootstrap({}), std::invalid_argument);
  ModelSample s;
  s.time_s = 0.0;
  s.instructions = 1.0;
  s.power_w = 1.0;
  common::Vec phi;
  EXPECT_THROW(m.update(s, phi), std::invalid_argument);
}

}  // namespace
}  // namespace oal::core
