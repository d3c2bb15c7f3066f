// Multi-layer perceptrons trained with backpropagation (paper Section IV-A3:
// "the policy is represented as a neural network and it is updated using the
// back-propagation algorithm").
//
// Training is batch-first: minibatches travel as matrices (rows = samples)
// through GEMM kernels (common/matrix.h), gradients are reduced over
// fixed-size row shards in ascending shard order, and the reduced gradient is
// handed to a pluggable ml::Optimizer (ml/optimizer.h) for the parameter
// step.  The fixed shard geometry makes training bitwise reproducible at any
// thread count: an optional common::ThreadPool only decides *who* computes a
// shard, never how the reduction is ordered (the engine's parallel == serial
// contract, extended to training).
//
// One network class, ml::Mlp, covers both uses: a shared trunk of hidden
// layers feeding one or more linear heads.  The DQN baseline uses a single
// regression head trained on masked MSE; the IL policy (Mlp::classifier)
// uses one softmax head per control knob (number of little/big cores and
// the little/big frequency levels) trained on summed cross-entropy.  There
// is exactly one backprop implementation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "ml/optimizer.h"

namespace oal::common {
class ThreadPool;
}  // namespace oal::common

namespace oal::ml {

enum class Activation { kTanh, kRelu };

/// One dense layer.  Parameters plus the layer's optimizer; gradients live in
/// caller-owned buffers so shards can backprop concurrently through a const
/// layer.
class DenseLayer {
 public:
  DenseLayer(std::size_t in, std::size_t out, common::Rng& rng,
             std::unique_ptr<Optimizer> opt);
  DenseLayer(const DenseLayer& o);
  DenseLayer& operator=(const DenseLayer& o);
  DenseLayer(DenseLayer&&) = default;
  DenseLayer& operator=(DenseLayer&&) = default;

  /// Writes y = W*x + b into `y` (resized to out_dim(); no reallocation once
  /// capacity suffices).  `y` must not alias `x`.
  void forward_into(const common::Vec& x, common::Vec& y) const;
  /// Batch forward: Y = X * W^T + b (rows = samples).
  common::Mat forward_batch(const common::Mat& x) const;

  /// Parameter gradients of a batch: gw = dY^T * X, gb = column sums of dY.
  void grads(const common::Mat& x, const common::Mat& dy, common::Mat& gw,
             common::Vec& gb) const;
  /// Input gradient of a batch: dX = dY * W.
  common::Mat backprop_input(const common::Mat& dy) const;

  /// One optimizer step on the (batch-averaged) gradients.
  void apply(const common::Mat& gw, const common::Vec& gb);

  std::size_t in_dim() const { return w_.cols(); }
  std::size_t out_dim() const { return w_.rows(); }
  std::size_t num_params() const { return w_.rows() * w_.cols() + b_.size(); }

  const common::Mat& weights() const { return w_; }

  /// Appends w (row-major) then b to `out` — the artifact-store wire format.
  /// Optimizer state is deliberately excluded: a restored layer serves
  /// inference / fresh training, not mid-stream optimizer resumption.
  void append_params(std::vector<double>& out) const;
  /// Reads back what append_params wrote (layer shape must already match);
  /// false on underrun, leaving pos unspecified.
  bool read_params(const std::vector<double>& in, std::size_t& pos);

 private:
  common::Mat w_;  // out x in
  common::Vec b_;  // out
  std::unique_ptr<Optimizer> opt_;
};

struct MlpConfig {
  std::vector<std::size_t> hidden{32};
  Activation activation = Activation::kTanh;
  double learning_rate = 1e-3;
  double l2 = 0.0;
  std::uint64_t seed = 1;
  /// Update rule (ml/optimizer.h); default Adam matches the historical update.
  OptimizerConfig optimizer{};
  /// Optional pool for shard-parallel gradient computation.  Results are
  /// bitwise identical with or without it.  Must not be the pool this
  /// network trains *on* (pool tasks may not block on their own pool), so
  /// controllers built inside ExperimentEngine workers leave it null.
  common::ThreadPool* pool = nullptr;
};

/// A trunk of hidden layers feeding one or more linear heads, trained with
/// backpropagation.  The loss is chosen by the training call: masked MSE on
/// a single head (the DQN's regression network) or summed per-head softmax
/// cross-entropy (the IL policy, one head per control knob).  Both run
/// through the same shard backprop, reduction and optimizer step; only the
/// head-output gradient differs.
class Mlp {
 public:
  /// Regression network: one linear head of `output_dim` outputs.
  Mlp(std::size_t input_dim, std::size_t output_dim, MlpConfig cfg = {});
  /// Classifier: one head per entry of `head_sizes` (the head's class count,
  /// >= 2).  Layers are initialized trunk first, then heads in order, from
  /// one Rng(cfg.seed) stream.
  static Mlp classifier(std::size_t input_dim, std::vector<std::size_t> head_sizes,
                        MlpConfig cfg = {});

  /// Reusable trunk/logit buffers of the single-sample calls.  Sized lazily
  /// on first use (max layer width), then stable: a controller owning one
  /// InferScratch per network performs zero steady-state heap allocations
  /// per call.
  struct InferScratch {
    common::Vec a, b, logits;
  };
  /// Inference on one sample into `out` (must not alias `x`).  Single-head
  /// networks only; throws std::logic_error on a multi-head network.
  void forward_into(const common::Vec& x, common::Vec& out, InferScratch& s) const;
  /// Batch inference: rows = samples.  Single-head networks only.
  common::Mat forward_batch(const common::Mat& x) const;

  /// Per-head argmax written into `cls` (resized to the head count), taken
  /// directly from the head logits — the softmax is skipped entirely.  exp
  /// is strictly increasing and the per-head division by the partition sum
  /// is monotone, so the logit argmax (first-max tie-break, exactly
  /// std::max_element's) equals the argmax of predict_proba(); the
  /// equivalence is asserted in tests/test_hot_path_alloc.cpp.  Zero heap
  /// allocations once the scratch buffers have grown to the layer widths.
  void predict_into(const common::Vec& x, std::vector<std::size_t>& cls, InferScratch& s) const;
  /// Per-head class probabilities.
  std::vector<common::Vec> predict_proba(const common::Vec& x) const;

  /// One optimizer step on 0.5*||mask .* (f(x) - target)||^2 over a
  /// minibatch (rows = samples) of a single-head network; returns the mean
  /// per-sample loss.  mask, when given, has the same shape as targets.
  double train_batch(const common::Mat& x, const common::Mat& targets,
                     const common::Mat* mask = nullptr);
  /// One optimizer step on the summed cross-entropy of all heads; labels[i]
  /// holds one class per head for sample i.  Returns the mean per-sample
  /// loss.
  double train_batch(const common::Mat& x,
                     const std::vector<std::vector<std::size_t>>& labels);

  /// Cross-entropy training for `epochs` passes over the dataset in
  /// minibatches of `batch_size` (0 = whole dataset); each pass visits the
  /// samples in an order drawn from the caller's seeded rng.  Returns the
  /// mean per-sample loss of the final pass.
  double train(const std::vector<common::Vec>& xs,
               const std::vector<std::vector<std::size_t>>& labels, std::size_t epochs,
               std::size_t batch_size, common::Rng& rng);

  std::size_t num_params() const;
  /// Storage footprint in bytes assuming 4-byte fixed-point parameters (the
  /// paper stores the policy in <20 KB of firmware memory).
  std::size_t storage_bytes() const { return num_params() * 4; }

  /// Copies all parameters (and optimizer state) from a network whose every
  /// trunk and head layer has the same shape (used for DQN target
  /// networks).  Throws std::invalid_argument on any shape mismatch and
  /// leaves *this unchanged.
  void copy_params_from(const Mlp& other);

  /// Appends trunk then head parameters to `out` (see
  /// DenseLayer::append_params).
  void export_params(std::vector<double>& out) const;
  /// Restores parameters into a network of identical architecture; false on
  /// underrun.  Inference is then bitwise identical to the exported network's.
  bool import_params(const std::vector<double>& in, std::size_t& pos);

 private:
  Mlp(std::size_t input_dim, std::vector<std::size_t> head_sizes, MlpConfig cfg);

  /// What a minibatch is scored against: targets (+ optional mask) for the
  /// masked MSE, or labels for the cross-entropy.
  struct Objective {
    const common::Mat* targets = nullptr;
    const common::Mat* mask = nullptr;
    const std::vector<std::vector<std::size_t>>* labels = nullptr;
  };
  struct ShardGrads {
    std::vector<common::Mat> gw;  // trunk layers, then heads
    std::vector<common::Vec> gb;
    double loss = 0.0;
  };
  std::size_t trunk_size() const { return layers_.size() - head_sizes_.size(); }
  const common::Vec& trunk_into(const common::Vec& x, InferScratch& s) const;
  void trunk_batch(const common::Mat& x, std::vector<common::Mat>& acts) const;
  void require_single_head(const char* what) const;
  ShardGrads backward_shard(const common::Mat& x, const Objective& obj, std::size_t row0,
                            std::size_t row1) const;
  double step(const common::Mat& x, const Objective& obj);

  std::size_t input_dim_;
  MlpConfig cfg_;
  std::vector<DenseLayer> layers_;  // trunk, then one layer per head
  std::vector<std::size_t> head_sizes_;
};

/// Numerically-stable softmax.
common::Vec softmax(const common::Vec& z);

}  // namespace oal::ml
