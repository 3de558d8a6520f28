// VTAOC transmission modes (Section 2.2).
//
// The paper employs a 6-mode symbol-by-symbol Variable Throughput Adaptive
// Orthogonal Coding scheme whose instantaneous throughput (information bits
// per modulation symbol) walks a power-of-two ladder.  The exact coded BER
// curves live in refs [3,7] (not archived); we reproduce their *shape* with
// the standard exponential abstraction
//
//     BER_q(gamma) = a_q * exp(-b_q * gamma),
//
// clipped at 1/2, where gamma is the instantaneous symbol
// energy-to-interference ratio (Eq. 3).  b_q halves as the throughput
// doubles, i.e. each extra bit/symbol costs ~3 dB — the classic adaptive
// modulation trade (see DESIGN.md D2 for the substitution rationale).
#pragma once

#include <cstddef>
#include <vector>

namespace wcdma::phy {

struct TransmissionMode {
  int index = 0;            // q, 1-based; 0 is reserved for "no transmission"
  double throughput = 0.0;  // beta_q, information bits per modulation symbol
  double ber_a = 0.5;       // BER model amplitude a_q
  double ber_b = 1.0;       // BER model exponent slope b_q

  /// Instantaneous BER at symbol energy-to-interference ratio `gamma`
  /// (linear).  Clipped to [0, 1/2].
  double ber(double gamma) const;

  /// gamma needed so that ber(gamma) == target (inverse of the above).
  double gamma_for_ber(double target_ber) const;
};

/// An ordered ladder of modes (ascending throughput).
class ModeSet {
 public:
  explicit ModeSet(std::vector<TransmissionMode> modes);

  std::size_t size() const { return modes_.size(); }
  /// 1-based access mirroring the paper's mode-q numbering.
  const TransmissionMode& mode(int q) const;
  const std::vector<TransmissionMode>& all() const { return modes_; }

 private:
  std::vector<TransmissionMode> modes_;
};

struct VtaocParams {
  int num_modes = 6;
  /// Throughput of the top mode (bits/symbol); ladder descends by halving.
  double top_throughput = 1.0;
  /// BER slope of mode 1 (the most protected); b_q = b1 / 2^(q-1).
  double b1 = 1.0;
  /// BER amplitude (Chernoff-style prefactor).
  double a = 0.5;
};

/// Builds the 6-mode VTAOC ladder of Section 2.2: throughputs
/// top/2^(Q-1) ... top (= 1/32 .. 1 by default).
ModeSet make_vtaoc_modes(const VtaocParams& params = {});

}  // namespace wcdma::phy
