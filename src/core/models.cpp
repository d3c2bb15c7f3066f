#include "core/models.h"

#include <cmath>
#include <stdexcept>

#include "ml/linreg.h"

namespace oal::core {

OnlineSocModels::OnlineSocModels(const soc::ConfigSpace& space, ml::RlsConfig rls_cfg)
    : fx_(space), time_model_(fx_.model_dim(), rls_cfg), power_model_(fx_.model_dim(), rls_cfg) {}

void OnlineSocModels::bootstrap(const std::vector<ModelSample>& samples, double ridge_alpha) {
  if (samples.empty()) throw std::invalid_argument("OnlineSocModels::bootstrap: no samples");
  std::vector<common::Vec> x(samples.size());
  std::vector<double> log_tpi, log_p;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ModelSample& s = samples[i];
    if (s.time_s <= 0.0 || s.instructions <= 0.0 || s.power_w <= 0.0)
      throw std::invalid_argument("OnlineSocModels::bootstrap: non-positive sample");
    fx_.model_features_into(s.workload, s.config, x[i]);
    log_tpi.push_back(std::log(s.time_s / s.instructions));
    log_p.push_back(std::log(s.power_w));
  }
  // The basis already contains an explicit 1.0 term, so the intercept is
  // folded into the weights (fit_intercept=false keeps dims aligned with RLS).
  ml::RidgeRegression rt(ridge_alpha), rp(ridge_alpha);
  rt.fit(x, log_tpi, /*fit_intercept=*/false);
  rp.fit(x, log_p, /*fit_intercept=*/false);
  time_model_.set_weights(rt.coefficients());
  power_model_.set_weights(rp.coefficients());
  bootstrapped_ = true;
}

double OnlineSocModels::update(const ModelSample& s, common::Vec& phi) {
  if (s.time_s <= 0.0 || s.instructions <= 0.0 || s.power_w <= 0.0)
    throw std::invalid_argument("OnlineSocModels::update: non-positive sample");
  fx_.model_features_into(s.workload, s.config, phi);
  const double innovation =
      time_model_.update(phi, std::log(s.time_s / s.instructions), rls_scratch_);
  power_model_.update(phi, std::log(s.power_w), rls_scratch_);
  return innovation;
}

double OnlineSocModels::predict_power_w(const WorkloadFeatures& w, const soc::SocConfig& c,
                                        common::Vec& phi) const {
  fx_.model_features_into(w, c, phi);
  return std::exp(power_model_.predict(phi));
}

double OnlineSocModels::predict_log_cost(const WorkloadFeatures& w, const soc::SocConfig& c,
                                         common::Vec& phi) const {
  fx_.model_features_into(w, c, phi);
  return time_model_.predict(phi) + power_model_.predict(phi);
}

}  // namespace oal::core
