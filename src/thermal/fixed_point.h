// Power-temperature fixed-point analysis (Bhat et al., ACM TECS 2017; paper
// Section III-A).
//
// Leakage power grows with temperature, and temperature grows with power:
//     T* = T_amb + R (P_dyn + P_leak(T*)),   P_leak(T) = P_0 (1 + k (T - T_0)).
// The *thermal fixed point* T* is the steady-state temperature under a given
// average dynamic power.  This module derives:
//   * existence & stability: the closed loop is a linear map with gain
//     matrix R * diag(p0 * k); a unique stable fixed point exists iff its
//     spectral radius is < 1 (otherwise thermal runaway);
//   * the fixed point itself (closed form via linear solve);
//   * a runtime iterative finder matching what firmware would run.
// FixedPointSolver factors everything that depends only on G and the leakage
// model once; thermal_fixed_point and the power-budget bisection both solve
// through it, one mat-vec plus one LU apply per power vector.
#pragma once

#include <algorithm>

#include "common/matrix.h"
#include "thermal/rc_network.h"

namespace oal::thermal {

/// Per-node leakage model P_leak_i(T_i) = p0_i * (1 + k_i * (T_i - t0_c)).
struct LeakageModel {
  common::Vec p0_w;    ///< leakage at reference temperature
  common::Vec k_per_c; ///< relative leakage growth per degree
  double t0_c = 25.0;

  common::Vec leakage(const common::Vec& temp_c) const;
  /// Node i's leakage at temperature `temp_c` (the element `leakage` returns).
  double node_leakage(std::size_t i, double temp_c) const {
    return std::max(p0_w[i] * (1.0 + k_per_c[i] * (temp_c - t0_c)), 0.0);
  }
};

struct FixedPointResult {
  bool exists = false;          ///< loop gain < 1 (no thermal runaway)
  double loop_gain = 0.0;       ///< spectral radius of R diag(p0 k)
  common::Vec temperature_c;    ///< fixed-point temperatures (if exists)
  common::Vec total_power_w;    ///< dynamic + leakage at the fixed point
};

/// Steady-state fixed point of one network and leakage model, factored once:
///     dT = R (P_dyn + p0 (1 + k (T_amb + dT - t0)))
///  => (I - R diag(p0 k)) dT = R (P_dyn + p0 (1 + k (T_amb - t0)))
/// Construction computes R = G^{-1}, the loop gain and, if a fixed point
/// exists, the LU factor of I - R diag(p0 k).  None of these depend on the
/// dynamic power or on the network's current temperatures.
class FixedPointSolver {
 public:
  /// Empty solver (num_nodes() == 0); assign a constructed one before use.
  FixedPointSolver() = default;
  /// Throws std::invalid_argument if a leakage vector does not match the
  /// network's node count.
  FixedPointSolver(const RcThermalNetwork& net, const LeakageModel& leak);

  std::size_t num_nodes() const { return leak_term_.size(); }
  bool exists() const { return exists_; }        ///< loop gain < 1
  double loop_gain() const { return loop_gain_; }  ///< spectral radius of R diag(p0 k)

  /// Fixed-point temperatures (deg C) under dynamic power s * shape_w.  The
  /// reference stays valid until the next call.  Requires exists() and
  /// shape_w.size() == num_nodes(); allocation-free after the first call.
  const common::Vec& temperatures(const common::Vec& shape_w, double s);

 private:
  common::Mat r_;              ///< R = G^{-1}
  common::LuResult lhs_;       ///< LU of I - R diag(p0 k) (if exists_)
  common::Vec leak_term_;      ///< p0 (1 + k (T_amb - t0))
  double ambient_c_ = 0.0;
  double loop_gain_ = 0.0;
  bool exists_ = false;
  common::Vec rhs_p_, rhs_, temp_c_;  ///< per-solve scratch
};

/// Closed-form fixed point: solve (G - diag(p0 k)) dT = P_dyn + P_leak(T_amb).
FixedPointResult thermal_fixed_point(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& dynamic_power_w);

/// Runtime finder: repeated steady-state evaluation with leakage refresh
/// (what a firmware loop would do).  Returns the trajectory of iterates so
/// convergence behaviour is observable.
std::vector<common::Vec> fixed_point_iteration(const RcThermalNetwork& net,
                                               const LeakageModel& leak,
                                               const common::Vec& dynamic_power_w,
                                               std::size_t max_iters = 50, double tol_c = 1e-6);

}  // namespace oal::thermal
