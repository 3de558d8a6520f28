#include "src/phy/adaptation.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::phy {

namespace rm = common::refmath;

AdaptationPolicy::AdaptationPolicy(ModeSet modes, double target_ber)
    : modes_(std::move(modes)), target_ber_(target_ber) {
  WCDMA_ASSERT(target_ber_ > 0.0 && target_ber_ < 0.5);
  thresholds_.reserve(modes_.size());
  for (const auto& m : modes_.all()) {
    thresholds_.push_back(m.gamma_for_ber(target_ber_));
  }
  for (std::size_t i = 1; i < thresholds_.size(); ++i) {
    WCDMA_ASSERT(thresholds_[i] > thresholds_[i - 1]);
  }
}

ModeDecision AdaptationPolicy::select(double gamma) const {
  WCDMA_DEBUG_ASSERT(gamma >= 0.0);
  // Highest mode whose threshold is met; none is an outage.
  for (std::size_t i = thresholds_.size(); i-- > 0;) {
    if (gamma >= thresholds_[i]) {
      const int chosen = static_cast<int>(i) + 1;
      return {chosen, modes_.mode(chosen).throughput};
    }
  }
  return {0, 0.0};
}

double AdaptationPolicy::avg_throughput_rayleigh(double mean_csi) const {
  WCDMA_ASSERT(mean_csi > 0.0);
  // gamma = X * mean_csi with X ~ Exp(1):
  // P(gamma >= t) = exp(-t / mean_csi).  Mode i's upper edge is mode i+1's
  // lower edge, so each exponential is taken once and carried over.
  double acc = 0.0;
  const std::size_t q_count = modes_.size();
  double lo_p = rm::exp(-thresholds_[0] / mean_csi);
  for (std::size_t i = 0; i < q_count; ++i) {
    const double hi_p = (i + 1 < q_count) ? rm::exp(-thresholds_[i + 1] / mean_csi) : 0.0;
    acc += modes_.all()[i].throughput * (lo_p - hi_p);
    lo_p = hi_p;
  }
  return acc;
}

double AdaptationPolicy::outage_probability_rayleigh(double mean_csi) const {
  WCDMA_ASSERT(mean_csi > 0.0);
  return 1.0 - rm::exp(-thresholds_[0] / mean_csi);
}

double AdaptationPolicy::mode_probability_rayleigh(double mean_csi, int q) const {
  WCDMA_ASSERT(mean_csi > 0.0);
  WCDMA_ASSERT(q >= 1 && static_cast<std::size_t>(q) <= modes_.size());
  const std::size_t i = static_cast<std::size_t>(q - 1);
  const double lo = thresholds_[i];
  const double hi_p =
      (i + 1 < modes_.size()) ? rm::exp(-thresholds_[i + 1] / mean_csi) : 0.0;
  return rm::exp(-lo / mean_csi) - hi_p;
}

double AdaptationPolicy::avg_ber_rayleigh(double mean_csi) const {
  WCDMA_ASSERT(mean_csi > 0.0);
  // Bit-weighted: sum_q beta_q * Integral_{I_q} a_q e^{-b_q g} f(g) dg
  // divided by sum_q beta_q * P(I_q), with f the Exp(mean_csi) density.
  // Integral over [lo, hi) of e^{-b g} (1/eps) e^{-g/eps} dg
  //   = (e^{-s*lo} - e^{-s*hi}) / (s * eps),  s = b + 1/eps.
  const double eps = mean_csi;
  double err_bits = 0.0, bits = 0.0;
  const std::size_t q_count = modes_.size();
  for (std::size_t i = 0; i < q_count; ++i) {
    const auto& m = modes_.all()[i];
    const double lo = thresholds_[i];
    const double hi = (i + 1 < q_count) ? thresholds_[i + 1] : INFINITY;
    const double s = m.ber_b + 1.0 / eps;
    const double hi_term = std::isinf(hi) ? 0.0 : rm::exp(-s * hi);
    const double integral = m.ber_a * (rm::exp(-s * lo) - hi_term) / (s * eps);
    const double p = rm::exp(-lo / eps) - (std::isinf(hi) ? 0.0 : rm::exp(-hi / eps));
    err_bits += m.throughput * integral;
    bits += m.throughput * p;
  }
  return bits > 0.0 ? err_bits / bits : 0.0;
}

double AdaptationPolicy::fixed_mode_avg_throughput_rayleigh(double mean_csi, int q) const {
  WCDMA_ASSERT(mean_csi > 0.0);
  const auto& m = modes_.mode(q);
  const double t = thresholds_[static_cast<std::size_t>(q - 1)];
  // Non-adaptive transmitter: always mode q, usable only above its
  // constant-BER threshold.
  return m.throughput * rm::exp(-t / mean_csi);
}

}  // namespace wcdma::phy
