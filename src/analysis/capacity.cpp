#include "src/analysis/capacity.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"

namespace wcdma::analysis {

double reverse_fch_load(const ReverseLinkBudget& b) {
  WCDMA_ASSERT(b.processing_gain > 0.0 && b.alpha_rl > 0.0 && b.zeta > 0.0);
  // X_fch * G = SIR * L / (pg * alpha); the mobile also radiates a pilot at
  // X_fch / zeta, so the received-power fraction per user is:
  return b.sir_target * (1.0 + 1.0 / b.zeta) / (b.processing_gain * b.alpha_rl);
}

double reverse_dcch_load(const ReverseLinkBudget& b) {
  // Control-hold: pilot plus the DCCH at dcch_fraction of the FCH power.
  const double fch_g = b.sir_target / (b.processing_gain * b.alpha_rl);
  return fch_g * (b.dcch_fraction + 1.0 / b.zeta);
}

double reverse_sch_unit_load(const ReverseLinkBudget& b) {
  const double fch_g = b.sir_target / (b.processing_gain * b.alpha_rl);
  return b.gamma_s * fch_g;
}

double reverse_pole_capacity(const ReverseLinkBudget& b) {
  return 1.0 / reverse_fch_load(b);
}

double rise_over_thermal_db(double eta) {
  WCDMA_ASSERT(eta >= 0.0 && eta < 1.0);
  // lint-allow(PORT-LIBM): closed-form analysis, never on a trajectory
  return -10.0 * std::log10(1.0 - eta);
}

double load_at_rise_db(double rise_db) {
  WCDMA_ASSERT(rise_db >= 0.0);
  // lint-allow(PORT-LIBM): closed-form analysis, never on a trajectory
  return 1.0 - std::pow(10.0, -rise_db / 10.0);
}

double sch_sgr_budget(const ReverseLinkBudget& b, double eta_base, double rise_cap_db) {
  const double eta_cap = load_at_rise_db(rise_cap_db);
  const double headroom = eta_cap - eta_base;
  if (headroom <= 0.0) return 0.0;
  return headroom / reverse_sch_unit_load(b);
}

double baseline_load(const ReverseLinkBudget& b, double voice_users,
                     double voice_activity, double data_users) {
  WCDMA_ASSERT(voice_activity >= 0.0 && voice_activity <= 1.0);
  return voice_users * voice_activity * reverse_fch_load(b) +
         data_users * reverse_dcch_load(b);
}

double forward_sgr_budget(const ForwardLinkBudget& b, double base_traffic_w,
                          double fch_power_w) {
  WCDMA_ASSERT(fch_power_w > 0.0);
  const double headroom = b.bs_max_power_w - b.overhead_w - base_traffic_w;
  if (headroom <= 0.0) return 0.0;
  return headroom / (b.gamma_s * fch_power_w);
}

double expected_sch_rate_bps(const phy::AdaptationPolicy& policy, int m, double eps_s,
                             double fch_bit_rate, double fch_throughput) {
  WCDMA_ASSERT(m >= 0 && fch_bit_rate > 0.0 && fch_throughput > 0.0);
  if (m == 0) return 0.0;
  const double beta_s = policy.avg_throughput_rayleigh(eps_s);
  // Eq. 4: Rs = Rf * m * beta_s / beta_f.
  return fch_bit_rate * static_cast<double>(m) * beta_s / fch_throughput;
}

}  // namespace wcdma::analysis
