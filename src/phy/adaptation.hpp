// Constant-BER adaptation policy (Section 2.2).
//
// "transmission mode-q is chosen for the current information bit if the
//  feedback CSI falls within the adaptation thresholds (xi_{q-1}, xi_q)"
// and "the adaptation thresholds are set optimally to maintain a target
// transmission error level over a range of CSI values".
//
// With the exponential BER abstraction the optimal constant-BER thresholds
// have the closed form t_q = ln(a_q / Pb) / b_q: mode q is admissible
// exactly when gamma >= t_q, and picking the *highest* admissible mode
// maximises instantaneous throughput subject to BER <= Pb.  Below mode-1's
// threshold nothing is sent (outage), so the BER target always holds.
#pragma once

#include <vector>

#include "src/common/rng.hpp"
#include "src/phy/modes.hpp"

namespace wcdma::phy {

struct ModeDecision {
  int mode = 0;             // 0 = no transmission (outage)
  double throughput = 0.0;  // beta of the chosen mode (0 if outage)
};

class AdaptationPolicy {
 public:
  AdaptationPolicy(ModeSet modes, double target_ber);

  /// Adaptation thresholds {t_1..t_Q} (linear CSI), ascending.
  const std::vector<double>& thresholds() const { return thresholds_; }

  /// Chooses the mode for feedback CSI `gamma` (linear).
  ModeDecision select(double gamma) const;

  double target_ber() const { return target_ber_; }
  const ModeSet& modes() const { return modes_; }

  // -- Closed-form Rayleigh performance (fast fading gamma = X * mean_csi,
  //    X ~ Exp(1)); used by tests and the E1-E3 benches. --

  /// Long-run average throughput (bits/symbol) at local-mean CSI `mean_csi`.
  double avg_throughput_rayleigh(double mean_csi) const;

  /// Probability that no transmission happens (CSI below mode-1's threshold).
  double outage_probability_rayleigh(double mean_csi) const;

  /// Bit-weighted average BER over transmitted bits at `mean_csi`; it stays
  /// <= target for all mean_csi (the constant-BER property).
  double avg_ber_rayleigh(double mean_csi) const;

  /// Probability of occupying mode q (1-based) under Rayleigh fading.
  double mode_probability_rayleigh(double mean_csi, int q) const;

  /// Fixed-rate reference: average throughput when *always* using mode q
  /// but only transmitting when that mode meets the BER target (classic
  /// non-adaptive truncated transmission).
  double fixed_mode_avg_throughput_rayleigh(double mean_csi, int q) const;

 private:
  ModeSet modes_;
  double target_ber_;
  std::vector<double> thresholds_;
};

}  // namespace wcdma::phy
