// MAC tests: the cdma2000 packet-data state machine of Fig. 3 and the set-up
// delay penalty of Eq. (22)-(23).
#include <gtest/gtest.h>

#include "src/mac/mac_state.hpp"

namespace wcdma::mac {
namespace {

MacTimersConfig timers() {
  MacTimersConfig t;
  t.t1_s = 0.2;
  t.t2_s = 2.0;
  t.t3_s = 10.0;
  t.d1_s = 0.040;
  t.d2_s = 0.300;
  return t;
}

// ---------------------------------------------------------------- Eq. 23

TEST(SetupDelay, PiecewiseBoundaries) {
  const auto t = timers();
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 1.999), 0.0);
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 2.0), 0.040);   // t_w == T2 -> D1
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 9.999), 0.040);
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 10.0), 0.300);  // t_w == T3 -> D2
  EXPECT_DOUBLE_EQ(setup_delay_for_wait(t, 100.0), 0.300);
}

TEST(SetupDelay, EffectiveRequestDelayAddsPenalty) {
  const auto t = timers();
  EXPECT_DOUBLE_EQ(effective_request_delay(t, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(effective_request_delay(t, 5.0), 5.040);
  EXPECT_DOUBLE_EQ(effective_request_delay(t, 12.0), 12.300);
}

// ---------------------------------------------------------------- Fig. 3

TEST(MacStateMachine, DecaysThroughStatesWithIdleTime) {
  MacStateMachine sm(timers(), MacState::kActive);
  sm.step(0.02, true);
  EXPECT_EQ(sm.state(), MacState::kActive);
  // Idle just past 0.2 s -> Control Hold (one extra frame clears the exact
  // floating-point boundary of the accumulated idle clock).
  for (int i = 0; i < 11; ++i) sm.step(0.02, false);
  EXPECT_EQ(sm.state(), MacState::kControlHold);
  // Idle past 2 s total -> Suspended.
  for (int i = 0; i < 91; ++i) sm.step(0.02, false);
  EXPECT_EQ(sm.state(), MacState::kSuspended);
  // Idle past 10 s total -> Dormant.
  for (int i = 0; i < 401; ++i) sm.step(0.02, false);
  EXPECT_EQ(sm.state(), MacState::kDormant);
}

TEST(MacStateMachine, TransmissionResetsToActive) {
  MacStateMachine sm(timers(), MacState::kDormant);
  sm.step(0.02, true);
  EXPECT_EQ(sm.state(), MacState::kActive);
  EXPECT_DOUBLE_EQ(sm.idle_s(), 0.0);
}

TEST(MacStateMachine, SetupDelayPerState) {
  MacStateMachine sm(timers(), MacState::kActive);
  EXPECT_DOUBLE_EQ(sm.setup_delay(), 0.0);
  for (int i = 0; i < 15; ++i) sm.step(0.02, false);  // Control Hold
  EXPECT_DOUBLE_EQ(sm.setup_delay(), 0.0);
  for (int i = 0; i < 95; ++i) sm.step(0.02, false);  // Suspended
  EXPECT_DOUBLE_EQ(sm.setup_delay(), 0.040);
  for (int i = 0; i < 400; ++i) sm.step(0.02, false);  // Dormant
  EXPECT_DOUBLE_EQ(sm.setup_delay(), 0.300);
}

TEST(MacStateMachine, IdleClockAccumulates) {
  MacStateMachine sm(timers(), MacState::kActive);
  for (int i = 0; i < 5; ++i) sm.step(0.02, false);
  EXPECT_NEAR(sm.idle_s(), 0.1, 1e-12);
}

TEST(MacState, ToStringNames) {
  EXPECT_STREQ(to_string(MacState::kActive), "Active");
  EXPECT_STREQ(to_string(MacState::kControlHold), "ControlHold");
  EXPECT_STREQ(to_string(MacState::kSuspended), "Suspended");
  EXPECT_STREQ(to_string(MacState::kDormant), "Dormant");
}

}  // namespace
}  // namespace wcdma::mac
