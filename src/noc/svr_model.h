// SVR-corrected NoC latency model (Qian et al., TCAD 2015; paper Section
// III-C): "the waiting time obtained from the analytical models and the
// waiting time obtained from an NoC simulator are used as features to learn
// [an] SVR-based model to estimate NoC performance."
//
// Features per traffic configuration: the analytical model's channel/source
// waiting estimates, utilization statistics and traffic descriptors; target:
// the simulator-measured average latency.  An RBF feature map + linear SVR
// realizes the kernel SVR of the original work.  An online variant
// (RLS-refined residual) addresses the survey's closing observation that
// offline NoC models should become adaptive.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/rls.h"
#include "ml/scaler.h"
#include "ml/svr.h"
#include "noc/analytical.h"
#include "noc/simulator.h"

namespace oal::noc {

/// Feature vector of one traffic configuration (from the analytical model).
common::Vec noc_features(const AnalyticalNocModel& model, const Mesh& mesh,
                         const TrafficMatrix& t);

class SvrNocModel {
 public:
  SvrNocModel(const Mesh& mesh, NocParams params = {}, std::size_t rbf_features = 48,
              double rbf_gamma = 0.25, std::uint64_t seed = 9);

  /// Offline training on (traffic, simulated latency) pairs.
  void fit(const std::vector<TrafficMatrix>& traffics, const std::vector<double>& sim_latency);

  /// Latency prediction for a new traffic configuration.
  double predict(const TrafficMatrix& t) const;

  /// Online refinement from a new measurement (adaptive extension).
  void update(const TrafficMatrix& t, double measured_latency);

  /// Pure analytical prediction (for accuracy comparisons).
  double analytical(const TrafficMatrix& t) const;

  bool fitted() const { return fitted_; }

 private:
  common::Vec transformed(const TrafficMatrix& t) const;
  common::Vec residual_features(const TrafficMatrix& t) const;

  Mesh mesh_;
  AnalyticalNocModel model_;
  ml::StandardScaler scaler_;
  ml::RbfSampler sampler_;
  ml::LinearSvr svr_;
  ml::RecursiveLeastSquares residual_;  // online residual (linear, raw features)
  ml::RecursiveLeastSquares::Scratch residual_scratch_;
  bool fitted_ = false;
};

}  // namespace oal::noc
