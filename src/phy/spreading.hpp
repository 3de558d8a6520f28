// Spreading-stage arithmetic of Section 2.2 (Eq. 2, 4, 5).
//
// Overall processing gain:  g_bar = W / Rb = g / beta           (Eq. 2)
// SCH relative bit rate:    Rs/Rf = m * (beta_s / beta_f)       (Eq. 4)
//   where m = g_f / g_s is the spreading-gain ratio the scheduler assigns
//   (the paper's decision variable m_j, 0 = reject, up to M).
// SCH/FCH power ratio:      Xs/Xf = gamma_s * m                 (Eq. 5-6)
//   gamma_s is the fixed relative symbol energy-to-interference ratio
//   between SCH and FCH, independent of local-mean CSI and of Rs.
#pragma once

#include "src/common/assert.hpp"

namespace wcdma::phy {

struct SpreadingConfig {
  double chip_rate_hz = 3.6864e6;  // W (3x cdma2000 class bandwidth)
  double fch_bit_rate = 9600.0;    // R_f
  double fch_throughput = 0.25;    // beta_f: FCH runs a fixed mid-ladder mode
  int max_sgr = 16;                // M, maximum spreading-gain ratio
  double gamma_s = 3.2;            // SCH/FCH symbol Es/I0 ratio (~5 dB, DESIGN.md D10)
};

class Spreading {
 public:
  explicit Spreading(const SpreadingConfig& config = {});

  const SpreadingConfig& config() const { return config_; }

  /// Overall processing gain W/Rb for a channel at `bit_rate` (Eq. 2).
  double total_processing_gain(double bit_rate) const;

  /// Instantaneous SCH bit rate for spreading-gain ratio m and SCH
  /// throughput beta_s (Eq. 4): Rs = Rf * m * beta_s / beta_f.
  double sch_bit_rate(int m, double sch_throughput) const;

  /// SCH-to-FCH transmit power ratio for spreading-gain ratio m (Eq. 5):
  /// Xs / Xf = gamma_s * m.
  double sch_power_ratio(int m) const;

 private:
  SpreadingConfig config_;
};

}  // namespace wcdma::phy
