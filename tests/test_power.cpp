// Power-control tests: closed-loop convergence, rail behaviour, the split
// update the simulator's lanes rely on, and the outer-loop FER equilibrium.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/power/power_control.hpp"

namespace wcdma::power {
namespace {

// Simulated static link: measured SIR (dB) = TX power (dBm) + gain constant.
struct StaticLink {
  double gain_db;  // SIR achieved per dBm of TX power
  double measure(const ClosedLoopPowerControl& pc) const {
    return pc.power_dbm() + gain_db;
  }
};

TEST(ClosedLoop, ConvergesToTargetOnStaticChannel) {
  PowerControlConfig cfg;
  cfg.target_sir_db = 7.0;
  ClosedLoopPowerControl pc(cfg, 0.0);
  StaticLink link{-5.0};  // needs 12 dBm for 7 dB SIR
  for (int i = 0; i < 50; ++i) pc.update(link.measure(pc));
  EXPECT_NEAR(pc.power_dbm(), 12.0, 0.01);
  EXPECT_NEAR(link.measure(pc), 7.0, 0.01);
  EXPECT_FALSE(pc.saturated());
}

TEST(ClosedLoop, PerFrameSwingIsLimited) {
  PowerControlConfig cfg;
  cfg.step_db = 1.0;
  cfg.commands_per_frame = 16;
  ClosedLoopPowerControl pc(cfg, 0.0);
  // Demand a 100 dB correction: one frame can swing at most 16 dB.
  pc.update(cfg.target_sir_db - 100.0);
  EXPECT_NEAR(pc.power_dbm(), 16.0, 1e-12);
}

TEST(ClosedLoop, ClampsAtMaxAndFlagsSaturation) {
  PowerControlConfig cfg;
  cfg.max_power_dbm = 23.0;
  ClosedLoopPowerControl pc(cfg, 20.0);
  StaticLink link{-30.0};  // unreachable target
  for (int i = 0; i < 10; ++i) pc.update(link.measure(pc));
  EXPECT_DOUBLE_EQ(pc.power_dbm(), 23.0);
  EXPECT_TRUE(pc.saturated());
}

TEST(ClosedLoop, ClampsAtMin) {
  PowerControlConfig cfg;
  cfg.min_power_dbm = -50.0;
  ClosedLoopPowerControl pc(cfg, -45.0);
  StaticLink link{+100.0};  // target overshot massively
  for (int i = 0; i < 10; ++i) pc.update(link.measure(pc));
  EXPECT_DOUBLE_EQ(pc.power_dbm(), -50.0);
}

TEST(ClosedLoop, PowerWattMatchesDbm) {
  ClosedLoopPowerControl pc({}, 30.0);
  EXPECT_NEAR(pc.power_watt(), 1.0, 1e-12);
}

TEST(ClosedLoop, TracksSlowFade) {
  PowerControlConfig cfg;
  ClosedLoopPowerControl pc(cfg, 0.0);
  double gain = -5.0;
  for (int i = 0; i < 200; ++i) {
    gain -= 0.05;  // 2.5 dB/s fade at 20 ms frames
    pc.update(pc.power_dbm() + gain);
  }
  // Converged within a step of the ideal power.
  EXPECT_NEAR(pc.power_dbm() + gain, cfg.target_sir_db, 1.0);
}

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Simulator::step_power_control splits update() into update_db() plus a
// batched dBm -> W refresh committed with set_power_watt().  On the exact
// path that refresh is common::db_to_linear(dBm - 30), which must reproduce
// update()'s state bit for bit, on and off both power rails.
TEST(ClosedLoop, SplitUpdateMatchesUpdateBitForBit) {
  PowerControlConfig cfg;
  cfg.min_power_dbm = -20.0;
  cfg.max_power_dbm = 23.0;
  for (std::uint64_t seed : {1, 2, 3}) {
    common::Rng rng(seed);
    ClosedLoopPowerControl whole(cfg, 0.0);
    ClosedLoopPowerControl split(cfg, 0.0);
    int at_max = 0, at_min = 0;
    for (int frame = 0; frame < 2000; ++frame) {
      const double sir_db = rng.uniform(-60.0, 70.0);
      whole.update(sir_db);
      split.update_db(sir_db);
      split.set_power_watt(common::db_to_linear(split.power_dbm() - 30.0));
      ASSERT_EQ(bits_of(split.power_dbm()), bits_of(whole.power_dbm())) << frame;
      ASSERT_EQ(bits_of(split.power_watt()), bits_of(whole.power_watt())) << frame;
      ASSERT_EQ(split.saturated(), whole.saturated()) << frame;
      at_max += whole.saturated() ? 1 : 0;
      at_min += whole.power_dbm() <= cfg.min_power_dbm ? 1 : 0;
    }
    // The draws must have driven the loop onto both rails.
    EXPECT_GT(at_max, 0) << "seed " << seed;
    EXPECT_GT(at_min, 0) << "seed " << seed;
  }
}

TEST(OuterLoop, EquilibriumFerMatchesTarget) {
  const double fer_target = 0.02;
  OuterLoopPowerControl outer(7.0, fer_target, 0.5, 3.0, 12.0);
  common::Rng rng(3);
  // Toy link: frame errors happen when target is below 7 dB + noise margin.
  int errors = 0;
  const int frames = 200000;
  for (int i = 0; i < frames; ++i) {
    // Error probability falls steeply with target: sigmoid around 5.5 dB.
    const double p_err = 1.0 / (1.0 + std::exp(4.0 * (outer.target_db() - 5.5)));
    const bool err = rng.uniform() < p_err;
    errors += err ? 1 : 0;
    outer.on_frame(err);
  }
  EXPECT_NEAR(static_cast<double>(errors) / frames, fer_target, 0.005);
}

TEST(OuterLoop, JumpsUpOnError) {
  OuterLoopPowerControl outer(7.0, 0.01, 0.5, 3.0, 12.0);
  const double before = outer.target_db();
  outer.on_frame(true);
  EXPECT_NEAR(outer.target_db(), before + 0.5, 1e-12);
}

TEST(OuterLoop, StaysWithinBounds) {
  OuterLoopPowerControl outer(7.0, 0.01, 0.5, 3.0, 12.0);
  for (int i = 0; i < 100; ++i) outer.on_frame(true);
  EXPECT_DOUBLE_EQ(outer.target_db(), 12.0);
  for (int i = 0; i < 100000; ++i) outer.on_frame(false);
  EXPECT_DOUBLE_EQ(outer.target_db(), 3.0);
}

}  // namespace
}  // namespace wcdma::power
