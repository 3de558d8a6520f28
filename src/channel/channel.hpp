// The CSI feedback pipeline of Fig. 1(a): the receiver-side estimate
// travels to the transmitter through a low-capacity feedback channel, so
// the adapter sees a *delayed, noisy* copy of the channel state.  The composite link of Eq. (1), X(t) = Xl(t) * Xs(t)
// over the mean path loss, lives in sim::FrameState's per-link buffers.
#pragma once

#include <cstddef>
#include <deque>

#include "src/common/rng.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::channel {

/// Delay-and-noise model of the CSI feedback channel (Fig. 1a).  push() the
/// receiver's measured CSI once per frame; current() returns what the
/// transmitter can act on: the measurement from `delay_frames` ago with
/// log-normal estimation error applied.
class CsiFeedback {
 public:
  CsiFeedback(std::size_t delay_frames, double error_sigma_db, common::Rng rng);

  void push(double csi_linear);
  /// Latest actionable CSI (linear).  Before the pipe fills, returns the
  /// oldest available measurement (conservative start-up behaviour).
  double current() const;
  bool primed() const { return pipe_.size() > delay_frames_; }

  /// Checkpoint support: the delay pipe contents plus the error-draw RNG.
  /// load() refuses, leaving the feedback as it was, a short read or an
  /// RNG state Rng::load refuses.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& feedback, Archive& ar);

  std::size_t delay_frames_;
  double error_sigma_db_;
  common::Rng rng_;
  std::deque<double> pipe_;
};

}  // namespace wcdma::channel
