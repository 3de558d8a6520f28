// Dynamic-simulator tests: invariants of the frame loop (power caps, noise
// floors), determinism, and metric sanity.
// Scenarios use the 7-cell layout and short horizons to stay fast.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/simulator.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma::sim {
namespace {

SystemConfig small_config() {
  SystemConfig cfg = default_config();
  cfg.layout.rings = 1;  // 7 cells
  cfg.voice.users = 14;
  cfg.data.users = 6;
  cfg.sim_duration_s = 20.0;
  cfg.warmup_s = 4.0;
  cfg.data.mean_reading_s = 1.5;
  cfg.seed = 12345;
  return cfg;
}

TEST(Simulator, RunsAndCompletesBursts) {
  Simulator simulator(small_config());
  const SimMetrics m = simulator.run();
  EXPECT_GT(m.requests_seen, 0);
  EXPECT_GT(m.burst_delay_s.count(), 0u);
  EXPECT_GT(m.data_bits_delivered, 0.0);
  EXPECT_GT(m.mean_delay_s(), 0.0);
}

TEST(Simulator, ForwardPowerNeverExceedsCap) {
  SystemConfig cfg = small_config();
  cfg.sim_duration_s = 8.0;
  Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    for (std::size_t k = 0; k < simulator.num_cells(); ++k) {
      EXPECT_LE(simulator.forward_power_w(k), cfg.radio.bs_max_power_w + 1e-9);
      EXPECT_GE(simulator.forward_power_w(k),
                cfg.radio.pilot_power_w + cfg.radio.common_power_w - 1e-9);
    }
  }
}

TEST(Simulator, ReverseInterferenceAtLeastThermal) {
  SystemConfig cfg = small_config();
  cfg.sim_duration_s = 5.0;
  Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    for (std::size_t k = 0; k < simulator.num_cells(); ++k) {
      EXPECT_GE(simulator.reverse_interference_w(k), simulator.thermal_noise_w());
    }
  }
}

TEST(Simulator, DeterministicForSameSeed) {
  const SystemConfig cfg = small_config();
  Simulator a(cfg), b(cfg);
  EXPECT_TRUE(metrics_identical(a.run(), b.run()));
}

TEST(Simulator, DifferentSeedsDiffer) {
  SystemConfig cfg = small_config();
  Simulator a(cfg);
  cfg.seed = 999;
  Simulator b(cfg);
  // Some observable difference should appear in bit-level outcomes.
  EXPECT_NE(a.run().data_bits_delivered, b.run().data_bits_delivered);
}

TEST(Simulator, WarmupExcludedFromMetrics) {
  SystemConfig long_warm = small_config();
  long_warm.warmup_s = 16.0;
  SystemConfig short_warm = small_config();
  short_warm.warmup_s = 4.0;
  const SimMetrics ml = Simulator(long_warm).run();
  const SimMetrics ms = Simulator(short_warm).run();
  // Same trajectory (same seed), so the longer warmup strictly shrinks the
  // observation window and can only remove samples.
  // Frame-boundary float accumulation can shift the window by one frame.
  EXPECT_NEAR(ml.observed_s, 4.0, 0.021);
  EXPECT_NEAR(ms.observed_s, 16.0, 0.021);
  EXPECT_LE(ml.burst_delay_s.count(), ms.burst_delay_s.count());
  EXPECT_LE(ml.requests_seen, ms.requests_seen);
}

TEST(Simulator, NoDataUsersMeansNoBursts) {
  SystemConfig cfg = small_config();
  cfg.data.users = 0;
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  EXPECT_EQ(m.requests_seen, 0);
  EXPECT_EQ(m.grants, 0);
  EXPECT_EQ(m.sch_frames, 0);
}

TEST(Simulator, VoiceOnlyStillControlsPower) {
  SystemConfig cfg = small_config();
  cfg.data.users = 0;
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  // Voice power control should hold SIR near target on average.
  EXPECT_GT(m.voice_sir_error_db.count(), 0u);
  EXPECT_NEAR(m.voice_sir_error_db.mean(), 0.0, 2.0);
}

TEST(Simulator, ReverseOnlyDirectionWorks) {
  SystemConfig cfg = small_config();
  cfg.data.forward_fraction = 0.0;  // all uploads
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  EXPECT_GT(m.burst_delay_s.count(), 0u);
}

TEST(Simulator, ForwardOnlyDirectionWorks) {
  SystemConfig cfg = small_config();
  cfg.data.forward_fraction = 1.0;  // all downloads
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  EXPECT_GT(m.burst_delay_s.count(), 0u);
}

TEST(Simulator, ModeOccupancyOnlyValidModes) {
  Simulator simulator(small_config());
  const SimMetrics m = simulator.run();
  std::int64_t mode_total = 0;
  for (std::size_t q = 1; q <= 6; ++q) mode_total += m.mode_frames[q];
  EXPECT_EQ(m.mode_frames[0], 0);
  EXPECT_EQ(m.mode_frames[7], 0);
  EXPECT_EQ(mode_total + m.sch_outage_frames, m.sch_frames);
}

TEST(Simulator, GrantedSgrWithinBounds) {
  Simulator simulator(small_config());
  const SimMetrics m = simulator.run();
  ASSERT_GT(m.granted_sgr.count(), 0u);
  EXPECT_GE(m.granted_sgr.min(), 1.0);
  EXPECT_LE(m.granted_sgr.max(), 16.0);
}

TEST(Simulator, QueueDelayLessThanTotalDelay) {
  Simulator simulator(small_config());
  const SimMetrics m = simulator.run();
  EXPECT_LE(m.queue_delay_s.mean(), m.mean_delay_s());
}

TEST(Simulator, FixedModeAblationRuns) {
  SystemConfig cfg = small_config();
  cfg.phy.fixed_mode = 3;
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  // All transmitting frames must use the fixed mode.
  for (std::size_t q = 1; q <= 6; ++q) {
    if (q != 3) {
      EXPECT_EQ(m.mode_frames[q], 0) << "mode " << q;
    }
  }
}

TEST(Simulator, CoverageBinsPopulated) {
  SystemConfig cfg = small_config();
  cfg.sim_duration_s = 30.0;
  Simulator simulator(cfg);
  const SimMetrics m = simulator.run();
  std::size_t populated = 0;
  for (const auto& bin : m.delay_by_distance) populated += bin.count() > 0 ? 1 : 0;
  EXPECT_GE(populated, 3u);  // users spread over several distance bins
}

// The runtime invariant checker (debug builds run it automatically at
// snapshot/restore and every kInvariantCheckPeriod frames; Release tests
// call it directly here) must hold through the whole frame loop, on both
// the default exhaustive provider and the culled provider with the
// far-field aggregator live.
TEST(Simulator, InvariantsHoldThroughRunDefaultProvider) {
  SystemConfig cfg = small_config();
  cfg.sim_duration_s = 6.0;
  Simulator simulator(cfg);
  std::string why;
  ASSERT_TRUE(simulator.check_invariants(&why)) << why;
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_TRUE(simulator.check_invariants(&why))
        << "frame " << f << ": " << why;
  }
}

TEST(Simulator, InvariantsHoldWithCulledProviderAndFarField) {
  SystemConfig cfg = small_config();
  cfg.sim_duration_s = 6.0;
  cfg.csi.provider = "culled";
  cfg.csi.refresh_interval_s = 0.2;
  cfg.csi.cull_radius_scale = 2.0;
  cfg.csi.far_field.enabled = true;
  Simulator simulator(cfg);
  ASSERT_TRUE(simulator.far_field_active());
  std::string why;
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_TRUE(simulator.check_invariants(&why))
        << "frame " << f << ": " << why;
  }
  // And the contract survives a snapshot/restore round trip.
  Simulator resumed(cfg);
  ASSERT_TRUE(resumed.restore(simulator.snapshot()));
  ASSERT_TRUE(resumed.check_invariants(&why)) << why;
}

void set_away(double& v) { v = 1.5; }
void set_away(std::int64_t& v) { v = 3; }
void set_away(common::StreamingMoments& m) { m.add(2.0); }
void set_away(common::Histogram& h) { h.add(5.0); }
template <typename T>
void set_away(std::vector<T>& v) {
  for (T& x : v) set_away(x);
}

// Every listed accumulator of `b` is set away from its default, so merging
// it must change the encoding of every field of `a`.
TEST(Metrics, MergeAddsEverything) {
  SimMetrics a, b;
  std::vector<std::string> every;
  SimMetrics::for_each_field([&](const char* name, auto member) {
    set_away(b.*member);
    every.push_back(name);
  });
  a.burst_delay_s.add(1.0);
  a.grants = 2;
  a.requests_granted = 1;
  a.mode_frames[2] = 10;
  const SimMetrics before = a;
  a.merge(b);
  EXPECT_EQ(differing_fields(before, a), every);
  EXPECT_EQ(a.burst_delay_s.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_delay_s(), 1.5);
  EXPECT_EQ(a.grants, 5);
  EXPECT_EQ(a.requests_granted, 4);
  EXPECT_EQ(a.mode_frames[2], 13);
}

TEST(Metrics, RatesAreZeroWithoutADenominator) {
  SimMetrics m;
  m.grants = 3;
  m.requests_granted = 3;
  m.ber_violation_frames = 2;
  EXPECT_EQ(m.grant_rate(), 0.0);          // no request seen
  EXPECT_EQ(m.ber_violation_rate(), 0.0);  // no SCH frame
}

TEST(Config, ValidateAcceptsDefaults) {
  const SystemConfig cfg = default_config();
  cfg.validate();  // must not abort
  SUCCEED();
}

}  // namespace
}  // namespace wcdma::sim
