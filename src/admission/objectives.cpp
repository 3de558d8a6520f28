#include "src/admission/objectives.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::admission {

const char* to_string(ObjectiveKind k) {
  switch (k) {
    case ObjectiveKind::kJ1MaxRate: return "J1-max-rate";
    case ObjectiveKind::kJ2DelayAware: return "J2-delay-aware";
  }
  return "?";
}

double delay_weight(const DelayPenaltyConfig& config, double w_s) {
  WCDMA_DEBUG_ASSERT(w_s >= 0.0);
  return 1.0 - common::refmath::exp(-config.mu * w_s);
}

double delay_penalty(const DelayPenaltyConfig& config, double w_s, double r, double r_max) {
  WCDMA_DEBUG_ASSERT(r >= 0.0 && r <= r_max + 1e-12);
  return config.lambda * delay_weight(config, w_s) * (r_max - r);
}

std::vector<double> objective_coefficients(const std::vector<RequestView>& requests,
                                           ObjectiveKind kind,
                                           const DelayPenaltyConfig& penalty,
                                           const mac::MacTimersConfig& timers) {
  std::vector<double> c;
  c.reserve(requests.size());
  for (const auto& r : requests) {
    WCDMA_ASSERT(r.delta_beta > 0.0);
    double coeff = r.delta_beta * (1.0 + r.priority);  // J1 term (Eq. 19)
    if (kind == ObjectiveKind::kJ2DelayAware) {
      // Effective delay includes the MAC set-up penalty (Eq. 22-23); the
      // linear-in-rate penalty folds into a per-unit-rate boost.
      const double w = mac::effective_request_delay(timers, r.waiting_s);
      coeff += r.delta_beta * penalty.lambda * delay_weight(penalty, w);
    }
    c.push_back(coeff);
  }
  return c;
}

int duration_upper_bound(double q_bits, double delta_beta, double fch_bit_rate,
                         double min_burst_s, int max_sgr) {
  WCDMA_ASSERT(q_bits > 0.0 && delta_beta > 0.0 && fch_bit_rate > 0.0);
  WCDMA_ASSERT(min_burst_s > 0.0 && max_sgr >= 1);
  // Duration at SGR m is Q / (m * dbeta * R_f); requiring >= T_min gives
  // m <= Q / (dbeta * R_f * T_min).
  const double cap = q_bits / (delta_beta * fch_bit_rate * min_burst_s);
  int u = static_cast<int>(std::floor(cap));
  if (u < 1) u = 1;  // keep short bursts servable at the minimum rate
  if (u > max_sgr) u = max_sgr;
  return u;
}

double burst_duration_s(double q_bits, int m, double delta_beta, double fch_bit_rate) {
  WCDMA_DEBUG_ASSERT(m >= 0);
  if (m == 0) return 0.0;
  return q_bits / (static_cast<double>(m) * delta_beta * fch_bit_rate);
}

}  // namespace wcdma::admission
