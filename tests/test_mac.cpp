// MAC tests: the cdma2000 packet-data state machine of Fig. 3 and the set-up
// delay penalty of Eq. (22)-(23).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/serialize.hpp"
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

/// A MAC checkpoint as MacStateMachine::save() lays it out.
std::vector<std::uint8_t> mac_archive(std::uint8_t state, double idle_s) {
  common::BinaryWriter w;
  w.u8(state);
  w.f64(idle_s);
  return w.take();
}

// A checkpoint's MAC bytes are untrusted: a state outside Fig. 3's four, or
// an idle clock no step() can produce, is refused with the machine as it was.
TEST(MacStateMachine, LoadRefusesForgedStateOrIdleTime) {
  MacStateMachine donor(timers(), MacState::kActive);
  donor.step(3.0, false);  // Suspended
  common::BinaryWriter w;
  donor.save(w);
  ASSERT_EQ(w.bytes(), mac_archive(static_cast<std::uint8_t>(MacState::kSuspended), 3.0));
  MacStateMachine restored(timers());
  common::BinaryReader honest(w.bytes());
  ASSERT_TRUE(restored.load(honest));
  EXPECT_EQ(restored.state(), MacState::kSuspended);
  EXPECT_EQ(restored.idle_s(), 3.0);

  const std::vector<std::uint8_t> forged[] = {
      mac_archive(4, 3.0),
      mac_archive(255, 3.0),
      mac_archive(2, -1.0),
      mac_archive(2, std::numeric_limits<double>::quiet_NaN()),
      mac_archive(2, std::numeric_limits<double>::infinity()),
  };
  for (std::size_t i = 0; i < std::size(forged); ++i) {
    SCOPED_TRACE(i);
    MacStateMachine victim(timers(), MacState::kActive);
    victim.step(0.5, false);  // Control Hold
    common::BinaryReader r(forged[i]);
    EXPECT_FALSE(victim.load(r));
    EXPECT_EQ(victim.state(), MacState::kControlHold);
    EXPECT_EQ(victim.idle_s(), 0.5);
  }
}

TEST(MacState, ToStringNames) {
  EXPECT_STREQ(to_string(MacState::kActive), "Active");
  EXPECT_STREQ(to_string(MacState::kControlHold), "ControlHold");
  EXPECT_STREQ(to_string(MacState::kSuspended), "Suspended");
  EXPECT_STREQ(to_string(MacState::kDormant), "Dormant");
}

}  // namespace
}  // namespace wcdma::mac
