#include "thermal/fixed_point.h"

#include <cmath>
#include <stdexcept>

namespace oal::thermal {

common::Vec LeakageModel::leakage(const common::Vec& temp_c) const {
  if (temp_c.size() != p0_w.size() || p0_w.size() != k_per_c.size())
    throw std::invalid_argument("LeakageModel: size mismatch");
  common::Vec p(temp_c.size());
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = node_leakage(i, temp_c[i]);
  return p;
}

FixedPointSolver::FixedPointSolver(const RcThermalNetwork& net, const LeakageModel& leak)
    : ambient_c_(net.ambient_c()) {
  const std::size_t n = net.num_nodes();
  if (leak.p0_w.size() != n || leak.k_per_c.size() != n)
    throw std::invalid_argument("FixedPointSolver: leakage size mismatch");
  r_ = net.resistance_matrix();
  // Loop gain matrix: R * diag(p0 * k) — how strongly a temperature rise
  // feeds back into itself through leakage.
  common::Mat gain(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) gain(i, j) = r_(i, j) * leak.p0_w[j] * leak.k_per_c[j];
  loop_gain_ = common::spectral_radius(gain);
  exists_ = loop_gain_ < 1.0;
  leak_term_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    leak_term_[i] = leak.p0_w[i] * (1.0 + leak.k_per_c[i] * (ambient_c_ - leak.t0_c));
  if (exists_) lhs_ = common::lu_factor(common::Mat::identity(n) - gain);
  rhs_p_.resize(n);
  rhs_.resize(n);
  temp_c_.resize(n);
}

const common::Vec& FixedPointSolver::temperatures(const common::Vec& shape_w, double s) {
  const std::size_t n = num_nodes();
  for (std::size_t i = 0; i < n; ++i) rhs_p_[i] = s * shape_w[i] + leak_term_[i];
  common::matvec(r_, rhs_p_, rhs_);
  common::lu_apply(lhs_, rhs_, temp_c_);
  for (std::size_t i = 0; i < n; ++i) temp_c_[i] = ambient_c_ + temp_c_[i];
  return temp_c_;
}

FixedPointResult thermal_fixed_point(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& dynamic_power_w) {
  const std::size_t n = net.num_nodes();
  if (dynamic_power_w.size() != n || leak.p0_w.size() != n)
    throw std::invalid_argument("thermal_fixed_point: size mismatch");

  FixedPointSolver solver(net, leak);
  FixedPointResult res;
  res.loop_gain = solver.loop_gain();
  res.exists = solver.exists();
  if (!res.exists) return res;
  // 1.0 * p == p exactly, so this is the fixed point under dynamic_power_w.
  res.temperature_c = solver.temperatures(dynamic_power_w, 1.0);
  const common::Vec p_leak = leak.leakage(res.temperature_c);
  res.total_power_w.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.total_power_w[i] = dynamic_power_w[i] + p_leak[i];
  return res;
}

std::vector<common::Vec> fixed_point_iteration(const RcThermalNetwork& net,
                                               const LeakageModel& leak,
                                               const common::Vec& dynamic_power_w,
                                               std::size_t max_iters, double tol_c) {
  std::vector<common::Vec> trajectory;
  common::Vec temp(net.num_nodes(), net.ambient_c());
  trajectory.push_back(temp);
  for (std::size_t it = 0; it < max_iters; ++it) {
    const common::Vec p_leak = leak.leakage(temp);
    common::Vec total(p_leak.size());
    for (std::size_t i = 0; i < total.size(); ++i) total[i] = dynamic_power_w[i] + p_leak[i];
    const common::Vec next = net.steady_state(total);
    double delta = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) delta = std::max(delta, std::abs(next[i] - temp[i]));
    temp = next;
    trajectory.push_back(temp);
    if (delta < tol_c) break;
  }
  return trajectory;
}

}  // namespace oal::thermal
