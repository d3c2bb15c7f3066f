// Bitwise reproducibility of minibatch training across executors.
//
// The training contract (ml/mlp.h): gradient shards have a fixed geometry —
// shard s always covers rows [s*8, s*8+8) of the minibatch — and are reduced
// in ascending shard order, so a ThreadPool only changes who computes a
// shard, never the arithmetic.  Serial, 1-thread, and N-thread training must
// therefore produce bit-identical parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/mlp.h"

namespace oal::ml {
namespace {

using common::Mat;
using common::Rng;
using common::Vec;

Mat random_batch(std::size_t rows, std::size_t cols, Rng& rng) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.5, 1.5);
  return m;
}

/// Trains one Mlp on a fixed deterministic curriculum and probes it.
Vec train_and_probe_mlp(common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {12, 8};
  cfg.learning_rate = 3e-3;
  cfg.l2 = 1e-5;
  cfg.seed = 7;
  cfg.pool = pool;
  Mlp net(4, 2, cfg);
  Rng data_rng(11);
  for (int step = 0; step < 12; ++step) {
    // 20 rows = 3 shards (8 + 8 + 4): exercises the partial tail shard.
    const Mat x = random_batch(20, 4, data_rng);
    Mat t(20, 2);
    for (std::size_t r = 0; r < t.rows(); ++r) {
      t(r, 0) = std::sin(x(r, 0)) + x(r, 1);
      t(r, 1) = x(r, 2) * x(r, 3);
    }
    net.train_batch(x, t);
  }
  Rng probe_rng(13);
  const Mat probes = random_batch(5, 4, probe_rng);
  const Mat y = net.forward_batch(probes);
  Vec flat;
  for (std::size_t r = 0; r < y.rows(); ++r)
    for (std::size_t c = 0; c < y.cols(); ++c) flat.push_back(y(r, c));
  return flat;
}

/// Trains one multi-head classifier over shuffled epochs and probes it.
Vec train_and_probe_multihead(common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {10};
  cfg.learning_rate = 1e-2;
  cfg.seed = 17;
  cfg.pool = pool;
  Mlp net = Mlp::classifier(3, {2, 4}, cfg);
  Rng data_rng(19);
  std::vector<Vec> xs;
  std::vector<std::vector<std::size_t>> labels;
  for (int i = 0; i < 64; ++i) {
    const double a = data_rng.uniform(-1, 1), b = data_rng.uniform(-1, 1),
                 c = data_rng.uniform(-1, 1);
    xs.push_back({a, b, c});
    labels.push_back({a > 0 ? 1u : 0u, (b > 0 ? 1u : 0u) + (c > 0 ? 2u : 0u)});
  }
  Rng train_rng(23);  // same seed everywhere: identical shuffles by contract
  net.train(xs, labels, 4, 24, train_rng);
  Vec flat;
  for (int i = 0; i < 5; ++i) {
    const auto probs = net.predict_proba({0.2 * i - 0.5, 0.3, -0.1 * i});
    for (const Vec& p : probs)
      for (double v : p) flat.push_back(v);
  }
  return flat;
}

TEST(TrainDeterminism, MlpBitwiseIdenticalAcrossThreadCounts) {
  const Vec serial = train_and_probe_mlp(nullptr);
  common::ThreadPool pool1(1);
  const Vec one = train_and_probe_mlp(&pool1);
  common::ThreadPool pool4(4);
  const Vec four = train_and_probe_mlp(&pool4);
  ASSERT_EQ(serial.size(), one.size());
  ASSERT_EQ(serial.size(), four.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], one[i]) << "serial vs 1-thread, output " << i;
    EXPECT_DOUBLE_EQ(serial[i], four[i]) << "serial vs 4-thread, output " << i;
  }
}

TEST(TrainDeterminism, MultiHeadBitwiseIdenticalAcrossThreadCounts) {
  const Vec serial = train_and_probe_multihead(nullptr);
  common::ThreadPool pool1(1);
  const Vec one = train_and_probe_multihead(&pool1);
  common::ThreadPool pool4(4);
  const Vec four = train_and_probe_multihead(&pool4);
  ASSERT_EQ(serial.size(), one.size());
  ASSERT_EQ(serial.size(), four.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], one[i]) << "serial vs 1-thread, output " << i;
    EXPECT_DOUBLE_EQ(serial[i], four[i]) << "serial vs 4-thread, output " << i;
  }
}

// ---- Pinned training bits ---------------------------------------------------
//
// FNV-1a digests of the exported parameter bits and of every step's returned
// loss bits, recorded once and pinned: any change to the backprop, the shard
// reduction, the loss arithmetic or the optimizer step shows up here even
// when the cross-executor comparisons above still agree with themselves.

std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct PinnedDigests {
  std::uint64_t params;
  std::uint64_t losses;
};

PinnedDigests digests_of(const std::vector<double>& params, const std::vector<double>& losses) {
  return {fnv1a_bits(params), fnv1a_bits(losses)};
}

/// The IL-policy shape: 2 softmax heads on a 2-layer tanh trunk, trained by
/// the shuffled epoch driver on 70 rows in 20-row minibatches (shards of
/// 8 + 8 + 4, and a ragged 10-row last batch).
PinnedDigests train_pinned_classifier(OptimizerConfig::Kind kind, common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {10, 6};
  cfg.learning_rate = kind == OptimizerConfig::Kind::kAdam ? 5e-3 : 0.05;
  cfg.l2 = 1e-4;
  cfg.seed = 41;
  cfg.optimizer.kind = kind;
  cfg.optimizer.momentum = 0.9;
  cfg.pool = pool;
  Mlp net = Mlp::classifier(5, {3, 4}, cfg);
  Rng data_rng(43);
  std::vector<Vec> xs;
  std::vector<std::vector<std::size_t>> labels;
  for (int i = 0; i < 70; ++i) {
    Vec x(5);
    for (double& v : x) v = data_rng.uniform(-1.0, 1.0);
    labels.push_back({x[0] + x[1] > 0 ? 2u : x[2] > 0 ? 1u : 0u,
                      (x[3] > 0 ? 1u : 0u) + (x[4] * x[0] > 0 ? 2u : 0u)});
    xs.push_back(std::move(x));
  }
  Rng train_rng(47);
  std::vector<double> losses;
  for (int round = 0; round < 3; ++round) losses.push_back(net.train(xs, labels, 2, 20, train_rng));
  std::vector<double> params;
  net.export_params(params);
  return digests_of(params, losses);
}

/// The DQN shape: a ReLU regression network trained on masked MSE, one
/// target column per row (the taken action) set to r + gamma * max Q_target,
/// with a target network synced by copy_params_from.
PinnedDigests train_pinned_regression(common::ThreadPool* pool) {
  MlpConfig cfg;
  cfg.hidden = {12, 12};
  cfg.activation = Activation::kRelu;
  cfg.learning_rate = 2e-3;
  cfg.seed = 53;
  cfg.pool = pool;
  Mlp online(4, 3, cfg);
  Mlp target(4, 3, cfg);
  target.copy_params_from(online);
  Rng data_rng(59);
  std::vector<double> losses;
  for (int step = 0; step < 24; ++step) {
    const Mat states = random_batch(20, 4, data_rng);
    const Mat next_states = random_batch(20, 4, data_rng);
    const Mat next_q = target.forward_batch(next_states);
    Mat targets = online.forward_batch(states);
    Mat mask(20, 3, 0.0);
    for (std::size_t r = 0; r < 20; ++r) {
      const auto action = static_cast<std::size_t>(data_rng.uniform_int(0, 2));
      double best = next_q(r, 0);
      for (std::size_t a = 1; a < 3; ++a) best = std::max(best, next_q(r, a));
      targets(r, action) = states(r, action) - states(r, 3) + 0.6 * best;
      mask(r, action) = 1.0;
    }
    losses.push_back(online.train_batch(states, targets, &mask));
    if (step % 8 == 7) target.copy_params_from(online);
  }
  std::vector<double> params;
  online.export_params(params);
  return digests_of(params, losses);
}

void expect_pinned(const PinnedDigests& got, std::uint64_t params, std::uint64_t losses,
                   const char* what) {
  EXPECT_EQ(got.params, params) << what << ": parameter bits moved";
  EXPECT_EQ(got.losses, losses) << what << ": loss bits moved";
}

TEST(TrainDeterminism, PinnedClassifierBitsAdam) {
  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool})
    expect_pinned(train_pinned_classifier(OptimizerConfig::Kind::kAdam, p), 0x42dd1a9ed1c64242ULL,
                  0x5d670a5b63c447faULL,
                  p == nullptr ? "serial" : "pool");
}

TEST(TrainDeterminism, PinnedClassifierBitsSgdMomentum) {
  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool})
    expect_pinned(train_pinned_classifier(OptimizerConfig::Kind::kSgd, p), 0x2524e5e62027029fULL,
                  0x6dc3201d2c84f6deULL,
                  p == nullptr ? "serial" : "pool");
}

TEST(TrainDeterminism, PinnedMaskedRegressionBits) {
  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool})
    expect_pinned(train_pinned_regression(p), 0xe8a78e0fe4b361d2ULL, 0x5e2b6e37d494bbaeULL,
                  p == nullptr ? "serial" : "pool");
}

TEST(TrainDeterminism, TrainBatchLossIdenticalAcrossExecutors) {
  MlpConfig cfg;
  cfg.hidden = {6};
  cfg.seed = 29;
  Rng data_rng(31);
  const Mat x = random_batch(17, 3, data_rng);  // 3 shards, ragged tail
  Mat t(17, 1);
  for (std::size_t r = 0; r < t.rows(); ++r) t(r, 0) = x(r, 0) - x(r, 1) * x(r, 2);

  Mlp serial_net(3, 1, cfg);
  const double serial_loss = serial_net.train_batch(x, t);
  common::ThreadPool pool(3);
  cfg.pool = &pool;
  Mlp pooled_net(3, 1, cfg);
  const double pooled_loss = pooled_net.train_batch(x, t);
  EXPECT_DOUBLE_EQ(serial_loss, pooled_loss);
}

}  // namespace
}  // namespace oal::ml
