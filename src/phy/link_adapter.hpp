// Per-user link adaptation loop (Fig. 1a): measure CSI at the receiver,
// feed it back with delay/noise, pick a VTAOC mode, and account for what the
// channel actually did to the frame.
//
// The LinkAdapter adapts per frame on the fed-back CSI; the E2 BER bench
// drives it.  The simulator's adaptive users adapt symbol by symbol instead
// (Simulator::step_transmission reads the AdaptationPolicy directly), so
// feedback delay and error never reach them.
//
// The FixedRateAdapter is the non-adaptive physical layer the paper argues
// against ("traditional physical layer delivers a constant throughput");
// it anchors the E1/E8 synergy comparisons and is the PHY on which the
// feedback delay/error knobs act in the simulator.
#pragma once

#include "src/channel/channel.hpp"
#include "src/common/rng.hpp"
#include "src/phy/adaptation.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::phy {

/// Outcome of one frame of SCH transmission for one user.
struct FrameOutcome {
  int mode = 0;               // VTAOC mode used (0 = outage / nothing sent)
  double throughput = 0.0;    // beta actually used (bits/symbol)
  double realized_ber = 0.0;  // BER at the *true* instantaneous CSI
  bool ber_violation = false; // realized_ber > target (stale feedback etc.)
};

class LinkAdapter {
 public:
  /// `feedback_delay_frames` and `feedback_error_db` model the low-capacity
  /// feedback channel of Fig. 1(a).
  LinkAdapter(const AdaptationPolicy* policy, std::size_t feedback_delay_frames,
              double feedback_error_db, common::Rng rng);

  /// One frame: the receiver measures `true_csi` (linear symbol Es/I0), the
  /// transmitter adapts on the delayed feedback value.
  FrameOutcome on_frame(double true_csi);

 private:
  const AdaptationPolicy* policy_;  // not owned
  channel::CsiFeedback feedback_;
};

/// Non-adaptive baseline: always transmits the configured mode whenever the
/// (delayed) CSI clears that mode's constant-BER threshold, else stays
/// silent.  Same feedback pipe so comparisons isolate *adaptation*, not
/// information.
class FixedRateAdapter {
 public:
  FixedRateAdapter(const AdaptationPolicy* policy, int fixed_mode,
                   std::size_t feedback_delay_frames, double feedback_error_db,
                   common::Rng rng);

  FrameOutcome on_frame(double true_csi);

  int fixed_mode() const { return fixed_mode_; }

  /// Checkpoint support: only the feedback pipe evolves.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& adapter, Archive& ar);

  const AdaptationPolicy* policy_;
  int fixed_mode_;
  channel::CsiFeedback feedback_;
};

}  // namespace wcdma::phy
