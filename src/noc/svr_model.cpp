#include "noc/svr_model.h"

#include <algorithm>
#include <cmath>
#include <cmath>
#include <stdexcept>

#include "common/stats.h"
#include "ml/scaler.h"

namespace oal::noc {

common::Vec noc_features(const AnalyticalNocModel& model, const Mesh& mesh,
                         const TrafficMatrix& t) {
  const AnalyticalLatency a = model.evaluate(t);
  const std::vector<double> rho = model.link_utilization(t);
  double rho_mean = 0.0;
  for (double r : rho) rho_mean += r;
  rho_mean /= static_cast<double>(rho.size());
  const double rho_max = *std::max_element(rho.begin(), rho.end());

  // Traffic shape statistics.
  double total = 0.0, hop_sum = 0.0;
  double max_pair = 0.0;
  for (std::size_t s = 0; s < t.num_nodes(); ++s) {
    for (std::size_t d = 0; d < t.num_nodes(); ++d) {
      const double r = t.rate(s, d);
      if (r <= 0.0 || s == d) continue;
      total += r;
      hop_sum += r * static_cast<double>(mesh.hop_count(s, d));
      max_pair = std::max(max_pair, r);
    }
  }
  const double avg_hops = total > 0.0 ? hop_sum / total : 0.0;

  return {a.avg_channel_waiting_cycles,
          a.avg_source_waiting_cycles,
          a.avg_latency_cycles,
          rho_mean,
          rho_max,
          total,
          avg_hops,
          max_pair};
}

SvrNocModel::SvrNocModel(const Mesh& mesh, NocParams params, std::size_t rbf_features,
                         double rbf_gamma, std::uint64_t seed)
    : mesh_(mesh), model_(mesh_, params), sampler_(8, rbf_features, rbf_gamma, seed),
      residual_(9, ml::RlsConfig{0.99, 1.0, 0.0}) {}

common::Vec SvrNocModel::transformed(const TrafficMatrix& t) const {
  ml::StandardScaler::TransformCache cache;
  common::Vec z;
  scaler_.transform_into(noc_features(model_, mesh_, t), z, cache);
  return sampler_.transform(z);
}

common::Vec SvrNocModel::residual_features(const TrafficMatrix& t) const {
  // Linear (scaled raw features + bias): platform drift shifts latency in a
  // way that is close to linear in the waiting-time features, and a
  // low-dimensional residual cannot destabilize distant predictions the way
  // a high-dimensional RBF residual can.
  ml::StandardScaler::TransformCache cache;
  common::Vec f;
  scaler_.transform_into(noc_features(model_, mesh_, t), f, cache);
  f.push_back(1.0);
  return f;
}

void SvrNocModel::fit(const std::vector<TrafficMatrix>& traffics,
                      const std::vector<double>& sim_latency) {
  if (traffics.empty() || traffics.size() != sim_latency.size())
    throw std::invalid_argument("SvrNocModel::fit: bad data");
  std::vector<common::Vec> raw;
  raw.reserve(traffics.size());
  for (const auto& t : traffics) raw.push_back(noc_features(model_, mesh_, t));
  scaler_ = ml::StandardScaler();
  scaler_.fit(raw);
  std::vector<common::Vec> z;
  std::vector<double> target;
  z.reserve(raw.size());
  target.reserve(raw.size());
  ml::StandardScaler::TransformCache cache;
  common::Vec scaled;
  // The SVR learns the *residual* of the queueing-theoretic model, so the
  // combined predictor can only refine — never regress below — the
  // analytical baseline it is built on.
  for (std::size_t i = 0; i < traffics.size(); ++i) {
    scaler_.transform_into(raw[i], scaled, cache);
    z.push_back(sampler_.transform(scaled));
    target.push_back(sim_latency[i] - model_.evaluate(traffics[i]).avg_latency_cycles);
  }
  ml::SvrConfig cfg;
  cfg.c = 20.0;
  cfg.epsilon = 0.25;
  cfg.epochs = 150;
  svr_ = ml::LinearSvr(cfg);
  svr_.fit(z, target);
  fitted_ = true;
}

double SvrNocModel::predict(const TrafficMatrix& t) const {
  if (!fitted_) throw std::logic_error("SvrNocModel::predict before fit");
  return model_.evaluate(t).avg_latency_cycles + svr_.predict(transformed(t)) +
         residual_.predict(residual_features(t));
}

void SvrNocModel::update(const TrafficMatrix& t, double measured_latency) {
  if (!fitted_) throw std::logic_error("SvrNocModel::update before fit");
  const double base =
      model_.evaluate(t).avg_latency_cycles + svr_.predict(transformed(t));
  // Robust update: a saturated network produces unbounded latencies that no
  // open-network latency model can represent; clipping the innovation keeps
  // one saturated measurement from destroying the model everywhere else.
  double target = measured_latency - base;
  const double clip = 0.5 * std::max(base, 1.0);
  target = std::clamp(target, -clip, clip);
  residual_.update(residual_features(t), target, residual_scratch_);
}

double SvrNocModel::analytical(const TrafficMatrix& t) const {
  return model_.evaluate(t).avg_latency_cycles;
}

}  // namespace oal::noc
