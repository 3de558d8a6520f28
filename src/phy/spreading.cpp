#include "src/phy/spreading.hpp"

namespace wcdma::phy {

Spreading::Spreading(const SpreadingConfig& config) : config_(config) {
  WCDMA_ASSERT(config_.chip_rate_hz > 0.0);
  WCDMA_ASSERT(config_.fch_bit_rate > 0.0);
  WCDMA_ASSERT(config_.fch_throughput > 0.0);
  WCDMA_ASSERT(config_.max_sgr >= 1);
  WCDMA_ASSERT(config_.gamma_s > 0.0);
}

double Spreading::total_processing_gain(double bit_rate) const {
  WCDMA_ASSERT(bit_rate > 0.0);
  return config_.chip_rate_hz / bit_rate;
}

double Spreading::sch_bit_rate(int m, double sch_throughput) const {
  WCDMA_ASSERT(m >= 0 && m <= config_.max_sgr);
  if (m == 0) return 0.0;
  return config_.fch_bit_rate * static_cast<double>(m) * sch_throughput /
         config_.fch_throughput;
}

double Spreading::sch_power_ratio(int m) const {
  WCDMA_ASSERT(m >= 0 && m <= config_.max_sgr);
  return config_.gamma_s * static_cast<double>(m);
}

}  // namespace wcdma::phy
