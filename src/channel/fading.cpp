#include "src/channel/fading.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::channel {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

JakesFading::JakesFading(double doppler_hz, common::Rng rng, int paths)
    : doppler_hz_(doppler_hz) {
  WCDMA_ASSERT(paths >= 1);
  omega_.resize(paths);
  phase_i_.resize(paths);
  phase_q_.resize(paths);
  for (int n = 0; n < paths; ++n) {
    // Random arrival angles give a Clarke spectrum in the many-path limit.
    const double alpha = rng.uniform(0.0, kTwoPi);
    // lint-allow(PORT-LIBM): the Clarke reference only tests and benches sample
    omega_[n] = kTwoPi * doppler_hz_ * std::cos(alpha);
    phase_i_[n] = rng.uniform(0.0, kTwoPi);
    phase_q_[n] = rng.uniform(0.0, kTwoPi);
  }
  norm_ = 1.0 / std::sqrt(static_cast<double>(paths));
}

std::complex<double> JakesFading::gain_at(double t) const {
  double re = 0.0, im = 0.0;
  for (std::size_t n = 0; n < omega_.size(); ++n) {
    // lint-allow(PORT-LIBM): the Clarke reference only tests and benches sample
    re += std::cos(omega_[n] * t + phase_i_[n]);
    // lint-allow(PORT-LIBM): the Clarke reference only tests and benches sample
    im += std::cos(omega_[n] * t + phase_q_[n]);
  }
  return {re * norm_, im * norm_};
}

double JakesFading::step(double dt) {
  t_ += dt;
  return power_gain();
}

double JakesFading::power_gain() const {
  const std::complex<double> h = gain_at(t_);
  return std::norm(h);
}

double Ar1Fading::correlation(double doppler_hz, double dt) {
  const double x = kTwoPi * doppler_hz * dt;
  // j0 of the Clarke autocorrelation; clamp negatives (deep lag) to zero so
  // the AR recursion stays stable and variance-preserving.
  const double r = common::refmath::j0(x);
  return r > 0.0 ? r : 0.0;
}

Ar1Fading::Ar1Fading(double doppler_hz, double dt_nominal, common::Rng rng)
    : doppler_hz_(doppler_hz),
      dt_nominal_(dt_nominal),
      rho_(correlation(doppler_hz, dt_nominal)),
      innovation_(std::sqrt(std::max(0.0, 1.0 - rho_ * rho_) * 0.5)),
      rng_(rng) {
  // Stationary start: h ~ CN(0, 1).
  h_ = {rng_.normal(0.0, std::sqrt(0.5)), rng_.normal(0.0, std::sqrt(0.5))};
}

double Ar1Fading::step(double dt) {
  if (dt == dt_nominal_) return step_nominal();
  const double rho = correlation(doppler_hz_, dt);
  const double innov = std::sqrt(std::max(0.0, 1.0 - rho * rho) * 0.5);
  h_ = {rho * h_.real() + rng_.normal(0.0, innov),
        rho * h_.imag() + rng_.normal(0.0, innov)};
  return power_gain();
}

double Ar1Fading::power_gain() const { return std::norm(h_); }

}  // namespace wcdma::channel
