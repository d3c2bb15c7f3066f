#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"

namespace oal::ml {

namespace {

// Minibatch rows per gradient shard.  The shard geometry is a property of the
// batch, not of the executor: shard s always covers rows
// [s*kGradShardRows, ...), and shard results are reduced in ascending shard
// order, so training is bitwise identical serial vs. any thread count.
constexpr std::size_t kGradShardRows = 8;

common::Mat slice_rows(const common::Mat& m, std::size_t r0, std::size_t r1) {
  common::Mat s(r1 - r0, m.cols());
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) s(r - r0, c) = m(r, c);
  return s;
}

void activate_vec_inplace(Activation act, common::Vec& a) {
  if (act == Activation::kTanh) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::tanh(a[i]);
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = a[i] > 0.0 ? a[i] : 0.0;
  }
}

void activate_inplace(Activation act, common::Mat& z) {
  if (act == Activation::kTanh) {
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < z.cols(); ++c) z(r, c) = std::tanh(z(r, c));
  } else {
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < z.cols(); ++c)
        if (z(r, c) < 0.0) z(r, c) = 0.0;
  }
}

/// g .*= activation'(z), recomputed from the *post*-activation a = act(z):
/// tanh'(z) = 1 - a^2 (bitwise equal to 1 - tanh(z)^2) and relu'(z) =
/// [a > 0], so the pre-activations never need caching.
void scale_by_activation_grad(Activation act, const common::Mat& post, common::Mat& g) {
  if (act == Activation::kTanh) {
    for (std::size_t r = 0; r < post.rows(); ++r)
      for (std::size_t c = 0; c < post.cols(); ++c) {
        const double t = post(r, c);
        g(r, c) *= 1.0 - t * t;
      }
  } else {
    for (std::size_t r = 0; r < post.rows(); ++r)
      for (std::size_t c = 0; c < post.cols(); ++c) g(r, c) *= post(r, c) > 0.0 ? 1.0 : 0.0;
  }
}

/// Fisher-Yates shuffle with the caller's deterministic RNG (the only source
/// of randomness in a training pass — no hidden engine-global state).
void shuffle_order(std::vector<std::size_t>& order, common::Rng& rng) {
  for (std::size_t i = order.size(); i-- > 1;)
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)))]);
}

}  // namespace

common::Vec softmax(const common::Vec& z) {
  double mx = z.front();
  for (double v : z) mx = std::max(mx, v);
  common::Vec p(z.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    p[i] = std::exp(z[i] - mx);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

// ---- DenseLayer ------------------------------------------------------------

DenseLayer::DenseLayer(std::size_t in, std::size_t out, common::Rng& rng,
                       std::unique_ptr<Optimizer> opt)
    : w_(out, in), b_(out, 0.0), opt_(std::move(opt)) {
  // Xavier/Glorot initialization.
  const double scale = std::sqrt(2.0 / static_cast<double>(in + out));
  for (std::size_t r = 0; r < out; ++r)
    for (std::size_t c = 0; c < in; ++c) w_(r, c) = rng.normal(0.0, scale);
}

DenseLayer::DenseLayer(const DenseLayer& o)
    : w_(o.w_), b_(o.b_), opt_(o.opt_ ? o.opt_->clone() : nullptr) {}

DenseLayer& DenseLayer::operator=(const DenseLayer& o) {
  if (this != &o) {
    w_ = o.w_;
    b_ = o.b_;
    opt_ = o.opt_ ? o.opt_->clone() : nullptr;
  }
  return *this;
}

// oal-lint: hot-path
void DenseLayer::forward_into(const common::Vec& x, common::Vec& y) const {
  if (w_.cols() != x.size()) throw std::invalid_argument("Mat*Vec size mismatch");
  // Same accumulation order as Mat::operator*(Vec) followed by the bias add.
  y.resize(w_.rows());  // oal-lint: allow(hot-path-alloc)  reaches capacity once, then no-op
  for (std::size_t i = 0; i < w_.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < w_.cols(); ++j) s += w_(i, j) * x[j];
    y[i] = s + b_[i];
  }
}
// oal-lint: hot-path-end

common::Mat DenseLayer::forward_batch(const common::Mat& x) const {
  common::Mat y = common::matmul_nt(x, w_);
  common::add_row_broadcast(y, b_);
  return y;
}

void DenseLayer::grads(const common::Mat& x, const common::Mat& dy, common::Mat& gw,
                       common::Vec& gb) const {
  gw = common::matmul_tn(dy, x);
  gb = common::col_sums(dy);
}

common::Mat DenseLayer::backprop_input(const common::Mat& dy) const {
  return common::matmul(dy, w_);
}

void DenseLayer::apply(const common::Mat& gw, const common::Vec& gb) {
  opt_->apply(w_, b_, gw, gb);
}

void DenseLayer::append_params(std::vector<double>& out) const {
  out.insert(out.end(), w_.data().begin(), w_.data().end());
  out.insert(out.end(), b_.begin(), b_.end());
}

bool DenseLayer::read_params(const std::vector<double>& in, std::size_t& pos) {
  const std::size_t nw = w_.rows() * w_.cols();
  if (pos + nw + b_.size() > in.size()) return false;
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
            in.begin() + static_cast<std::ptrdiff_t>(pos + nw), w_.raw());
  pos += nw;
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
            in.begin() + static_cast<std::ptrdiff_t>(pos + b_.size()), b_.begin());
  pos += b_.size();
  return true;
}

// ---- Mlp -------------------------------------------------------------------

Mlp::Mlp(std::size_t input_dim, std::size_t output_dim, MlpConfig cfg)
    : Mlp(input_dim, std::vector<std::size_t>{output_dim}, std::move(cfg)) {}

Mlp::Mlp(std::size_t input_dim, std::vector<std::size_t> head_sizes, MlpConfig cfg)
    : input_dim_(input_dim), cfg_(std::move(cfg)), head_sizes_(std::move(head_sizes)) {
  if (head_sizes_.empty()) throw std::invalid_argument("Mlp: no heads");
  if (input_dim == 0 || std::count(head_sizes_.begin(), head_sizes_.end(), 0u) != 0)
    throw std::invalid_argument("Mlp: zero dimension");
  common::Rng rng(cfg_.seed);
  std::size_t prev = input_dim;
  for (std::size_t h : cfg_.hidden) {
    layers_.emplace_back(prev, h, rng,
                         make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
    prev = h;
  }
  for (std::size_t out : head_sizes_)
    layers_.emplace_back(prev, out, rng,
                         make_optimizer(cfg_.optimizer, cfg_.learning_rate, cfg_.l2));
}

Mlp Mlp::classifier(std::size_t input_dim, std::vector<std::size_t> head_sizes, MlpConfig cfg) {
  for (std::size_t hs : head_sizes)
    if (hs < 2) throw std::invalid_argument("Mlp::classifier: head needs >= 2 classes");
  return Mlp(input_dim, std::move(head_sizes), std::move(cfg));
}

void Mlp::require_single_head(const char* what) const {
  if (head_sizes_.size() != 1)
    throw std::logic_error(std::string(what) + ": multi-head network has no single output");
}

// oal-lint: hot-path
const common::Vec& Mlp::trunk_into(const common::Vec& x, InferScratch& s) const {
  if (x.size() != input_dim_) throw std::invalid_argument("Mlp: input dim mismatch");
  const common::Vec* cur = &x;
  bool use_a = true;
  for (std::size_t l = 0; l < trunk_size(); ++l) {
    common::Vec& dst = use_a ? s.a : s.b;
    layers_[l].forward_into(*cur, dst);
    activate_vec_inplace(cfg_.activation, dst);
    cur = &dst;
    use_a = !use_a;
  }
  return *cur;
}

void Mlp::forward_into(const common::Vec& x, common::Vec& out, InferScratch& s) const {
  require_single_head("Mlp::forward_into");
  layers_.back().forward_into(trunk_into(x, s), out);
}

void Mlp::predict_into(const common::Vec& x, std::vector<std::size_t>& cls,
                       InferScratch& s) const {
  const common::Vec& feat = trunk_into(x, s);
  const std::size_t nheads = head_sizes_.size();
  cls.resize(nheads);  // oal-lint: allow(hot-path-alloc)  reaches capacity once, then no-op
  for (std::size_t h = 0; h < nheads; ++h) {
    layers_[trunk_size() + h].forward_into(feat, s.logits);
    cls[h] = static_cast<std::size_t>(
        std::distance(s.logits.begin(), std::max_element(s.logits.begin(), s.logits.end())));
  }
}
// oal-lint: hot-path-end

std::vector<common::Vec> Mlp::predict_proba(const common::Vec& x) const {
  InferScratch s;
  const common::Vec& feat = trunk_into(x, s);
  std::vector<common::Vec> probs;
  probs.reserve(head_sizes_.size());
  for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
    layers_[trunk_size() + h].forward_into(feat, s.logits);
    probs.push_back(softmax(s.logits));
  }
  return probs;
}

void Mlp::trunk_batch(const common::Mat& x, std::vector<common::Mat>& acts) const {
  acts.reserve(trunk_size());
  for (std::size_t l = 0; l < trunk_size(); ++l) {
    common::Mat z = layers_[l].forward_batch(l == 0 ? x : acts.back());
    activate_inplace(cfg_.activation, z);
    acts.push_back(std::move(z));
  }
}

common::Mat Mlp::forward_batch(const common::Mat& x) const {
  require_single_head("Mlp::forward_batch");
  if (x.cols() != input_dim_) throw std::invalid_argument("Mlp::forward_batch: dim mismatch");
  std::vector<common::Mat> acts;
  trunk_batch(x, acts);
  return layers_.back().forward_batch(acts.empty() ? x : acts.back());
}

Mlp::ShardGrads Mlp::backward_shard(const common::Mat& x, const Objective& obj,
                                    std::size_t row0, std::size_t row1) const {
  const std::size_t n = row1 - row0;
  common::Mat sliced;
  const common::Mat* input = &x;
  if (row0 != 0 || row1 != x.rows()) {
    sliced = slice_rows(x, row0, row1);
    input = &sliced;
  }

  // Trunk forward; acts[l] = activated output of trunk layer l.
  // Pre-activations are not cached — see scale_by_activation_grad.
  std::vector<common::Mat> acts;
  trunk_batch(*input, acts);
  const common::Mat& feat = acts.empty() ? *input : acts.back();

  const std::size_t ntrunk = trunk_size();
  ShardGrads sg;
  sg.gw.resize(layers_.size());
  sg.gb.resize(layers_.size());
  common::Mat dfeat;
  for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
    // Head outputs become dL/dz in place.  The loss is one running sum per
    // shard across heads (heads outer, rows inner): the summation order the
    // pinned loss bits in tests/test_train_determinism.cpp depend on.
    const DenseLayer& head = layers_[ntrunk + h];
    common::Mat dz = head.forward_batch(feat);
    if (obj.labels != nullptr) {
      // Softmax each row (same arithmetic as ml::softmax), then subtract the
      // one-hot label.
      for (std::size_t i = 0; i < n; ++i) {
        double mx = dz(i, 0);
        for (std::size_t j = 0; j < dz.cols(); ++j) mx = std::max(mx, dz(i, j));
        double sum = 0.0;
        for (std::size_t j = 0; j < dz.cols(); ++j) {
          dz(i, j) = std::exp(dz(i, j) - mx);
          sum += dz(i, j);
        }
        for (std::size_t j = 0; j < dz.cols(); ++j) dz(i, j) /= sum;
        const std::size_t label = (*obj.labels)[row0 + i][h];
        sg.loss += -std::log(std::max(dz(i, label), 1e-12));
        dz(i, label) -= 1.0;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < dz.cols(); ++j) {
          const double m = obj.mask != nullptr ? (*obj.mask)(row0 + i, j) : 1.0;
          const double e = (dz(i, j) - (*obj.targets)(row0 + i, j)) * m;
          dz(i, j) = e;
          sg.loss += 0.5 * e * e;
        }
    }
    head.grads(feat, dz, sg.gw[ntrunk + h], sg.gb[ntrunk + h]);
    if (ntrunk == 0) continue;
    if (h == 0) {
      dfeat = head.backprop_input(dz);
    } else {
      dfeat += head.backprop_input(dz);
    }
  }

  for (std::size_t l = ntrunk; l-- > 0;) {
    scale_by_activation_grad(cfg_.activation, acts[l], dfeat);
    layers_[l].grads(l == 0 ? *input : acts[l - 1], dfeat, sg.gw[l], sg.gb[l]);
    if (l > 0) dfeat = layers_[l].backprop_input(dfeat);
  }
  return sg;
}

double Mlp::step(const common::Mat& x, const Objective& obj) {
  const std::size_t bsz = x.rows();
  const std::size_t nshards = (bsz + kGradShardRows - 1) / kGradShardRows;
  std::vector<ShardGrads> shards(nshards);
  const auto run = [&](std::size_t s) {
    const std::size_t r0 = s * kGradShardRows;
    shards[s] = backward_shard(x, obj, r0, std::min(bsz, r0 + kGradShardRows));
  };
  if (cfg_.pool != nullptr && nshards > 1) {
    cfg_.pool->run_indexed(nshards, run);
  } else {
    for (std::size_t s = 0; s < nshards; ++s) run(s);
  }

  // Fixed-order reduction: ascending shard index, independent of executor.
  ShardGrads total = std::move(shards.front());
  for (std::size_t s = 1; s < nshards; ++s) {
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      total.gw[l] += shards[s].gw[l];
      for (std::size_t i = 0; i < total.gb[l].size(); ++i) total.gb[l][i] += shards[s].gb[l][i];
    }
    total.loss += shards[s].loss;
  }

  const double inv_b = 1.0 / static_cast<double>(bsz);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    total.gw[l] *= inv_b;
    for (double& v : total.gb[l]) v *= inv_b;
    layers_[l].apply(total.gw[l], total.gb[l]);
  }
  return total.loss * inv_b;
}

double Mlp::train_batch(const common::Mat& x, const common::Mat& targets,
                        const common::Mat* mask) {
  require_single_head("Mlp::train_batch");
  if (x.rows() == 0 || x.rows() != targets.rows())
    throw std::invalid_argument("Mlp::train_batch: bad batch");
  if (x.cols() != input_dim_) throw std::invalid_argument("Mlp::train_batch: input dim");
  if (targets.cols() != head_sizes_[0])
    throw std::invalid_argument("Mlp::train_batch: target dim");
  if (mask != nullptr && (mask->rows() != x.rows() || mask->cols() != head_sizes_[0]))
    throw std::invalid_argument("Mlp::train_batch: mask shape");
  return step(x, Objective{&targets, mask, nullptr});
}

double Mlp::train_batch(const common::Mat& x,
                        const std::vector<std::vector<std::size_t>>& labels) {
  if (x.rows() == 0 || x.rows() != labels.size())
    throw std::invalid_argument("Mlp::train_batch: bad batch");
  if (x.cols() != input_dim_) throw std::invalid_argument("Mlp::train_batch: input dim");
  for (const auto& row : labels) {
    if (row.size() != head_sizes_.size())
      throw std::invalid_argument("Mlp::train_batch: label count mismatch");
    for (std::size_t h = 0; h < head_sizes_.size(); ++h)
      if (row[h] >= head_sizes_[h])
        throw std::invalid_argument("Mlp::train_batch: label out of range");
  }
  return step(x, Objective{nullptr, nullptr, &labels});
}

double Mlp::train(const std::vector<common::Vec>& xs,
                  const std::vector<std::vector<std::size_t>>& labels, std::size_t epochs,
                  std::size_t batch_size, common::Rng& rng) {
  if (xs.size() != labels.size() || xs.empty()) throw std::invalid_argument("Mlp::train: bad data");
  const std::size_t n = xs.size();
  if (batch_size == 0) batch_size = n;
  std::vector<std::size_t> order(n);
  common::Mat xb;  // gather buffers, reallocated only on batch-size change
  std::vector<std::vector<std::size_t>> lb;
  double last = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::iota(order.begin(), order.end(), 0);
    shuffle_order(order, rng);
    double loss_sum = 0.0;
    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t end = std::min(n, start + batch_size);
      const std::size_t bs = end - start;
      if (xb.rows() != bs) xb = common::Mat(bs, input_dim_);
      lb.resize(bs);
      for (std::size_t i = start; i < end; ++i) {
        xb.set_row(i - start, xs[order[i]]);
        lb[i - start] = labels[order[i]];
      }
      loss_sum += train_batch(xb, lb) * static_cast<double>(bs);
    }
    last = loss_sum / static_cast<double>(n);
  }
  return last;
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.num_params();
  return n;
}

void Mlp::copy_params_from(const Mlp& other) {
  bool same = other.head_sizes_ == head_sizes_ && other.layers_.size() == layers_.size();
  for (std::size_t l = 0; same && l < layers_.size(); ++l)
    same = other.layers_[l].in_dim() == layers_[l].in_dim() &&
           other.layers_[l].out_dim() == layers_[l].out_dim();
  if (!same) throw std::invalid_argument("Mlp::copy_params_from: shape mismatch");
  layers_ = other.layers_;
}

void Mlp::export_params(std::vector<double>& out) const {
  for (const auto& l : layers_) l.append_params(out);
}

bool Mlp::import_params(const std::vector<double>& in, std::size_t& pos) {
  for (auto& l : layers_)
    if (!l.read_params(in, pos)) return false;
  return true;
}

}  // namespace oal::ml
