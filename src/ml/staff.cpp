#include "ml/staff.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace oal::ml {

StaffModel::StaffModel(std::size_t dim, StaffConfig cfg)
    : cfg_(cfg),
      rls_(dim, RlsConfig{cfg.lambda_init, cfg.initial_p, 0.0}),
      active_(dim, true),
      feat_mean_(dim, 0.0),
      feat_m2_(dim, 0.0) {
  if (cfg.lambda_min <= 0.0 || cfg.lambda_max > 1.0 || cfg.lambda_min > cfg.lambda_max)
    throw std::invalid_argument("STAFF: invalid lambda bounds");
  if (cfg.top_k > dim) throw std::invalid_argument("STAFF: top_k > dim");
}

common::Vec StaffModel::masked(const common::Vec& x) const {
  common::Vec xm(x);
  for (std::size_t i = 0; i < xm.size(); ++i)
    if (!active_[i]) xm[i] = 0.0;
  return xm;
}

double StaffModel::predict(const common::Vec& x) const { return rls_.predict(masked(x)); }

double StaffModel::update(const common::Vec& x, double y) {
  if (x.size() != feat_mean_.size()) throw std::invalid_argument("STAFF: feature dim mismatch");
  // Track feature statistics on the raw (unmasked) features so previously
  // dropped features can be re-admitted when they become informative.
  ++feat_count_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double delta = x[i] - feat_mean_[i];
    feat_mean_[i] += delta / static_cast<double>(feat_count_);
    feat_m2_[i] += delta * (x[i] - feat_mean_[i]);
  }

  const common::Vec xm = masked(x);
  const double err = rls_.update(xm, y, rls_scratch_);
  adapt_lambda(err, xm);

  if (cfg_.top_k > 0 && rls_.updates() >= cfg_.warmup &&
      rls_.updates() % cfg_.reselect_period == 0) {
    reselect_features();
  }
  return err;
}

void StaffModel::adapt_lambda(double err, const common::Vec& xm) {
  // Stabilized EWMA estimate of the innovation variance.
  const double e2 = err * err;
  if (!innov_init_) {
    innov_var_ = std::max(e2, 1e-12);
    innov_init_ = true;
  } else {
    innov_var_ = (1.0 - cfg_.var_alpha) * innov_var_ + cfg_.var_alpha * e2;
  }
  // Fortescue-style variable forgetting factor: keep the information content
  // of the estimator approximately constant.  Normalized innovation >> 1
  // (relative to the tracked variance) indicates a regime change and lowers
  // lambda; steady-state innovations push lambda to lambda_max.
  const common::Vec px = rls_.covariance() * xm;
  const double gain = 1.0 + common::dot(xm, px);
  const double denom = cfg_.info_horizon * std::max(innov_var_, 1e-12) * gain;
  double lambda = 1.0 - e2 / std::max(denom, 1e-12);
  lambda = std::clamp(lambda, cfg_.lambda_min, cfg_.lambda_max);
  rls_.set_lambda(lambda);
}

void StaffModel::reselect_features() {
  const std::size_t dim = feat_mean_.size();
  const common::Vec& theta = rls_.weights();
  std::vector<double> score(dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    const double var = feat_m2_[i] / static_cast<double>(std::max<std::size_t>(feat_count_, 1));
    score[i] = std::abs(theta[i]) * std::sqrt(std::max(var, 0.0));
    // A feature with (numerically) zero variance carries no information even
    // if its weight is large (it acts as a bias); treat the bias-like term as
    // always informative by giving constant features a tiny floor score so
    // an explicit bias column is never dropped before real features.
    if (var < 1e-18) score[i] = std::abs(theta[i]) * 1e-9 + 1e-12;
  }
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return score[a] > score[b]; });
  std::fill(active_.begin(), active_.end(), false);
  for (std::size_t k = 0; k < cfg_.top_k; ++k) active_[order[k]] = true;
}

std::size_t StaffModel::num_active() const {
  return static_cast<std::size_t>(std::count(active_.begin(), active_.end(), true));
}

}  // namespace oal::ml
