// cdma2000 packet-data MAC states (Fig. 3) and the set-up delay penalty of
// Eq. (22)-(23).
//
// A data user holds a dedicated channel only while recently active.  With
// growing inactivity it decays Active -> Control Hold -> Suspended ->
// Dormant; re-starting a burst from a decayed state pays a set-up delay:
//
//    D_s = 0    if t_w <  T2   (dedicated/control channel still up)
//          D1   if t_w in [T2, T3)   (suspended: re-acquire dedicated ch.)
//          D2   if t_w >= T3   (dormant: full re-establishment)
//
// and the scheduler's effective request delay is w_j = t_w + D_s (Eq. 22).
#pragma once

#include "src/common/assert.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::mac {

enum class MacState { kActive, kControlHold, kSuspended, kDormant };

const char* to_string(MacState s);

struct MacTimersConfig {
  double t1_s = 0.2;   // Active -> Control Hold after this idle time
  double t2_s = 2.0;   // Control Hold -> Suspended
  double t3_s = 10.0;  // Suspended -> Dormant
  double d1_s = 0.040; // set-up delay from Suspended
  double d2_s = 0.300; // set-up delay from Dormant
};

/// Eq. (23): set-up delay penalty as a function of the waiting/idle time.
double setup_delay_for_wait(const MacTimersConfig& timers, double t_w);

/// Eq. (22): effective request delay w = t_w + D_s(t_w).
double effective_request_delay(const MacTimersConfig& timers, double t_w);

/// Per-user MAC state machine (Fig. 3).
class MacStateMachine {
 public:
  explicit MacStateMachine(const MacTimersConfig& timers = {},
                           MacState initial = MacState::kDormant);

  /// Advances time by dt; `transmitting` keeps the user Active and resets
  /// the idle clock.
  void step(double dt, bool transmitting);

  MacState state() const { return state_; }
  double idle_s() const { return idle_s_; }

  /// Set-up delay a freshly granted burst pays from the *current* state.
  double setup_delay() const;

  void save(common::BinaryWriter& w) const;
  /// Refuses, leaving the machine as it was, a state outside the four of
  /// Fig. 3 or an idle time that is negative or not finite.
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& mac, Archive& ar);

  MacTimersConfig timers_;
  MacState state_;
  double idle_s_ = 0.0;
};

}  // namespace wcdma::mac
