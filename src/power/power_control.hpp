// Closed-loop SIR-based power control ("power control" in the paper's
// dynamic-simulation list).
//
// cdma2000 runs an 800 Hz inner loop with +/-step dB commands; the simulator
// advances per 20 ms frame, so one frame aggregates 16 inner-loop commands.
// ClosedLoopPowerControl models that aggregate: the per-frame correction is
// the SIR error clamped to +/- (16 * step) dB, which reproduces both the
// tracking behaviour at pedestrian speeds and the lag at vehicular speeds.
// The SIR target is the configured one; no outer loop moves it.
#pragma once

#include "src/common/assert.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::power {

struct PowerControlConfig {
  double target_sir_db = 7.0;     // Eb/I0 target
  double step_db = 1.0;           // inner-loop step per command
  int commands_per_frame = 16;    // 800 Hz loop, 20 ms frame
  double min_power_dbm = -50.0;
  double max_power_dbm = 23.0;    // mobile class / per-link forward cap
};

class ClosedLoopPowerControl {
 public:
  explicit ClosedLoopPowerControl(const PowerControlConfig& config = {},
                                  double initial_power_dbm = 0.0);

  /// One frame: adjust transmit power toward the SIR target given the
  /// measured SIR (dB).  Returns the new transmit power (dBm).
  double update(double measured_sir_db);

  /// The split update: applies the stepped dBm correction and the
  /// saturation flag, but leaves the cached wattage STALE.  The caller
  /// batches every user's (power_dbm - 30) into a lane, converts it with
  /// common::db_to_linear, which reproduces update() bit for bit, and
  /// commits with set_power_watt(); see Simulator::step_power_control.
  /// Nothing may read power_watt() between the two calls.  update() stays
  /// as the reference the split is tested against.
  double update_db(double measured_sir_db);
  /// Commits the batch-converted wattage after update_db().
  void set_power_watt(double watt) { power_watt_ = watt; }

  double power_dbm() const { return power_dbm_; }
  /// Cached dBm -> W conversion; refreshed whenever power_dbm_ moves, so the
  /// hot loops that read it several times per frame pay the pow() once.
  double power_watt() const { return power_watt_; }

  /// True when the last update hit the max-power rail (coverage-limited).
  bool saturated() const { return saturated_; }

  /// Checkpoint support: the cached wattage round-trips bit-exactly too, so
  /// a restored loop never re-derives it through pow().
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& loop, Archive& ar);
  static double to_watt(double dbm);

  PowerControlConfig config_;
  double power_dbm_;
  double power_watt_;
  bool saturated_ = false;
};

}  // namespace wcdma::power
