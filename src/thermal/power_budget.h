// Thermal power budgeting (Bhat et al., IEEE TVLSI 2018; paper Section
// III-A): "computing the maximum power consumption that can be sustained
// before causing thermal violations.  Then, the power budget is used as a
// metric to throttle the frequency and number of operating cores."
#pragma once

#include "common/matrix.h"
#include "thermal/fixed_point.h"
#include "thermal/rc_network.h"

namespace oal::thermal {

struct PowerBudgetConfig {
  double t_max_junction_c = 85.0;  ///< die-node limit
  double t_max_skin_c = 45.0;      ///< skin-node limit (user comfort/safety)
  std::size_t skin_node = 4;       ///< index of the skin node
};

/// Maximum uniform scale s such that steady-state temperatures under
/// s * shape_w (plus temperature-dependent leakage) stay below the limits.
/// `shape_w` is the relative power distribution of the current workload.
/// Returns the scale and the binding node index.
struct PowerBudgetResult {
  double scale = 0.0;
  double total_power_w = 0.0;
  std::size_t binding_node = 0;
  bool skin_bound = false;  ///< true if the skin limit binds before junction
};

/// Bisects through a solver factored once for the network and leakage model:
/// each of the ~65 probes is one mat-vec plus one LU apply, allocation-free.
PowerBudgetResult max_sustainable_power(FixedPointSolver& solver, const common::Vec& shape_w,
                                        const PowerBudgetConfig& cfg = {});
/// One-shot form: factors a solver for (net, leak) and bisects through it.
PowerBudgetResult max_sustainable_power(const RcThermalNetwork& net, const LeakageModel& leak,
                                        const common::Vec& shape_w,
                                        const PowerBudgetConfig& cfg = {});

/// Reusable workspace for transient_power_headroom: the network copy the
/// probes simulate on and the per-tick power vector.  Kept across calls on
/// the same network, a headroom refresh is allocation-free.
struct TransientScratch {
  explicit TransientScratch(const RcThermalNetwork& net) : sim(net) {}
  RcThermalNetwork sim;
  common::Vec power_w;
};

/// Transient headroom: largest constant power scale that keeps all nodes
/// below their limits for the next `horizon_s` seconds starting from the
/// network's current state (bisection on the scale).  `net` is not touched.
double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg, TransientScratch& scratch);
/// One-shot form with a fresh workspace.
double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg = {});

}  // namespace oal::thermal
