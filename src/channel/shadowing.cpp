#include "src/channel/shadowing.hpp"

#include <cmath>

#include "src/common/refmath.hpp"

namespace wcdma::channel {

Shadowing::Shadowing(const ShadowingConfig& config, common::Rng rng)
    : config_(config), rng_(rng), value_db_(rng_.normal(0.0, config.sigma_db)) {}

double Shadowing::step(double moved_m) {
  const double rho = correlation(config_, moved_m);
  return step_with(rho, innovation_sigma(config_, rho));
}

double Shadowing::correlation(const ShadowingConfig& config, double moved_m) {
  return common::refmath::exp(-std::fabs(moved_m) / config.decorrelation_m);
}

double Shadowing::innovation_sigma(const ShadowingConfig& config, double rho) {
  return config.sigma_db * std::sqrt(1.0 - rho * rho);
}

double Shadowing::gain_linear() const {
  return common::refmath::pow(10.0, value_db_ / 10.0);
}

}  // namespace wcdma::channel
