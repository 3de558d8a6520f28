#include "src/mac/mac_state.hpp"

#include <cmath>
#include <cstdint>

#include "src/common/serialize.hpp"

namespace wcdma::mac {

const char* to_string(MacState s) {
  switch (s) {
    case MacState::kActive: return "Active";
    case MacState::kControlHold: return "ControlHold";
    case MacState::kSuspended: return "Suspended";
    case MacState::kDormant: return "Dormant";
  }
  return "?";
}

double setup_delay_for_wait(const MacTimersConfig& timers, double t_w) {
  WCDMA_DEBUG_ASSERT(t_w >= 0.0);
  if (t_w < timers.t2_s) return 0.0;
  if (t_w < timers.t3_s) return timers.d1_s;
  return timers.d2_s;
}

double effective_request_delay(const MacTimersConfig& timers, double t_w) {
  return t_w + setup_delay_for_wait(timers, t_w);
}

MacStateMachine::MacStateMachine(const MacTimersConfig& timers, MacState initial)
    : timers_(timers), state_(initial) {
  WCDMA_ASSERT(timers_.t1_s < timers_.t2_s && timers_.t2_s < timers_.t3_s);
  WCDMA_ASSERT(timers_.d1_s >= 0.0 && timers_.d2_s >= timers_.d1_s);
}

void MacStateMachine::step(double dt, bool transmitting) {
  if (transmitting) {
    state_ = MacState::kActive;
    idle_s_ = 0.0;
    return;
  }
  idle_s_ += dt;
  if (idle_s_ >= timers_.t3_s) {
    state_ = MacState::kDormant;
  } else if (idle_s_ >= timers_.t2_s) {
    state_ = MacState::kSuspended;
  } else if (idle_s_ >= timers_.t1_s) {
    state_ = MacState::kControlHold;
  }
  // Within t1 of activity the user keeps its Active-state resources.
}

double MacStateMachine::setup_delay() const {
  switch (state_) {
    case MacState::kActive:
    case MacState::kControlHold:
      return 0.0;
    case MacState::kSuspended:
      return timers_.d1_s;
    case MacState::kDormant:
      return timers_.d2_s;
  }
  return 0.0;
}

template <typename Self, typename Archive>
void MacStateMachine::fields(Self& mac, Archive& ar) {
  auto state = static_cast<std::uint8_t>(mac.state_);
  ar.field(state);
  ar.check([&] { return state <= static_cast<std::uint8_t>(MacState::kDormant); });
  if constexpr (Archive::kLoads) mac.state_ = static_cast<MacState>(state);
  ar.field(mac.idle_s_);
  ar.check([&] { return std::isfinite(mac.idle_s_) && mac.idle_s_ >= 0.0; });
}

void MacStateMachine::save(common::BinaryWriter& w) const { fields(*this, w); }
bool MacStateMachine::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

}  // namespace wcdma::mac
