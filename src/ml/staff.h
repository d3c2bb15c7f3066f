// STAFF: Stabilized Adaptive Forgetting Factor + online Feature selection.
//
// Reproduces the modeling technique of Gupta et al., "STAFF: Online Learning
// with Stabilized Adaptive Forgetting Factor and Feature Selection
// Algorithm" (DAC 2018), which the surveyed paper uses for adaptive GPU
// frame-time prediction (Fig. 2):
//
//  * The forgetting factor is adapted per sample following the
//    constant-information principle (Fortescue et al.): a large normalized
//    innovation shrinks lambda so the model re-learns quickly after a
//    workload/DVFS change; small innovations push lambda back toward 1 for
//    low-variance steady-state tracking.  Stabilization = clamping to
//    [lambda_min, lambda_max] plus an EWMA innovation-variance estimate so a
//    single outlier cannot collapse the memory.
//  * Online feature selection ranks features by the magnitude of their
//    standardized contribution |theta_i| * std(x_i) and keeps the top-k;
//    dropped features are masked to zero.  Selection is re-evaluated every
//    `reselect_period` updates.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "ml/rls.h"

namespace oal::ml {

struct StaffConfig {
  double lambda_min = 0.90;
  double lambda_max = 0.999;
  double lambda_init = 0.98;
  double initial_p = 1e3;
  /// Nominal innovation variance horizon (Fortescue sigma0^2 * N0).
  double info_horizon = 50.0;
  /// EWMA coefficient for the innovation variance estimate.
  double var_alpha = 0.05;
  /// Number of features kept active (0 = keep all).
  std::size_t top_k = 0;
  /// Re-run feature selection every this many updates.
  std::size_t reselect_period = 64;
  /// Warm-up updates before feature selection may drop anything.
  std::size_t warmup = 32;
};

class StaffModel {
 public:
  StaffModel(std::size_t dim, StaffConfig cfg = {});

  double predict(const common::Vec& x) const;
  /// Returns the a-priori prediction error.
  double update(const common::Vec& x, double y);

  double lambda() const { return rls_.lambda(); }
  const common::Vec& weights() const { return rls_.weights(); }
  /// Active-feature mask (1 = used, 0 = dropped by feature selection).
  const std::vector<bool>& active_mask() const { return active_; }
  std::size_t num_active() const;
  std::size_t updates() const { return rls_.updates(); }

 private:
  common::Vec masked(const common::Vec& x) const;
  void adapt_lambda(double err, const common::Vec& xm);
  void reselect_features();

  StaffConfig cfg_;
  RecursiveLeastSquares rls_;
  RecursiveLeastSquares::Scratch rls_scratch_;
  std::vector<bool> active_;
  // Streaming feature statistics for contribution scoring.
  common::Vec feat_mean_;
  common::Vec feat_m2_;
  std::size_t feat_count_ = 0;
  double innov_var_ = 1.0;
  bool innov_init_ = false;
};

}  // namespace oal::ml
