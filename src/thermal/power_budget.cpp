#include "thermal/power_budget.h"

#include <cmath>
#include <stdexcept>

namespace oal::thermal {

namespace {

double node_limit(const PowerBudgetConfig& cfg, std::size_t node) {
  return node == cfg.skin_node ? cfg.t_max_skin_c : cfg.t_max_junction_c;
}

/// Max steady-state temperature violation margin at power scale s (deg C;
/// positive = violates).
double violation_at_scale(FixedPointSolver& solver, const common::Vec& shape_w, double s,
                          const PowerBudgetConfig& cfg, std::size_t* worst_node) {
  if (!solver.exists()) return 1e9;  // runaway: treat as infinite violation
  const common::Vec& temp_c = solver.temperatures(shape_w, s);
  double worst = -1e9;
  for (std::size_t i = 0; i < temp_c.size(); ++i) {
    const double v = temp_c[i] - node_limit(cfg, i);
    if (v > worst) {
      worst = v;
      if (worst_node != nullptr) *worst_node = i;
    }
  }
  return worst;
}

}  // namespace

PowerBudgetResult max_sustainable_power(FixedPointSolver& solver, const common::Vec& shape_w,
                                        const PowerBudgetConfig& cfg) {
  if (shape_w.size() != solver.num_nodes())
    throw std::invalid_argument("max_sustainable_power: shape size mismatch");
  double total_shape = 0.0;
  for (double v : shape_w) total_shape += v;
  if (total_shape <= 0.0) throw std::invalid_argument("max_sustainable_power: zero shape");

  // Bisection on the scale.
  double lo = 0.0, hi = 1.0;
  std::size_t worst = 0;
  while (violation_at_scale(solver, shape_w, hi, cfg, &worst) < 0.0 && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (violation_at_scale(solver, shape_w, mid, cfg, &worst) < 0.0)
      lo = mid;
    else
      hi = mid;
  }
  PowerBudgetResult res;
  res.scale = lo;
  res.total_power_w = lo * total_shape;
  (void)violation_at_scale(solver, shape_w, hi, cfg, &res.binding_node);
  res.skin_bound = res.binding_node == cfg.skin_node;
  return res;
}

PowerBudgetResult max_sustainable_power(const RcThermalNetwork& net, const LeakageModel& leak,
                                        const common::Vec& shape_w, const PowerBudgetConfig& cfg) {
  if (shape_w.size() != net.num_nodes())
    throw std::invalid_argument("max_sustainable_power: shape size mismatch");
  FixedPointSolver solver(net, leak);
  return max_sustainable_power(solver, shape_w, cfg);
}

double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg, TransientScratch& scratch) {
  if (horizon_s <= 0.0) throw std::invalid_argument("transient_power_headroom: bad horizon");
  const std::size_t n = net.num_nodes();
  if (shape_w.size() != n || leak.p0_w.size() != n || leak.k_per_c.size() != n)
    throw std::invalid_argument("transient_power_headroom: size mismatch");
  RcThermalNetwork& sim = scratch.sim;
  sim = net;  // copy-assignment reuses the workspace's storage
  scratch.power_w.resize(n);
  auto violates = [&](double s) {
    sim.set_temperatures(net.temperatures());  // every probe starts from the caller's state
    // Simulate in 1 s ticks with leakage refreshed from the evolving temps.
    double t = 0.0;
    while (t < horizon_s) {
      const double dt = std::min(1.0, horizon_s - t);
      const common::Vec& temp_c = sim.temperatures();
      for (std::size_t i = 0; i < n; ++i)
        scratch.power_w[i] = s * shape_w[i] + leak.node_leakage(i, temp_c[i]);
      sim.step(scratch.power_w, dt);
      for (std::size_t i = 0; i < n; ++i)
        if (temp_c[i] > node_limit(cfg, i)) return true;
      t += dt;
    }
    return false;
  };
  double lo = 0.0, hi = 1.0;
  while (!violates(hi) && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    (violates(mid) ? hi : lo) = mid;
  }
  return lo;
}

double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg) {
  TransientScratch scratch(net);
  return transient_power_headroom(net, leak, shape_w, horizon_s, cfg, scratch);
}

}  // namespace oal::thermal
