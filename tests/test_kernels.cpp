// Certification of the SIMD kernel contract (src/sim/kernels.hpp): every
// dispatch level of the gain lane is ELEMENT-WISE IDENTICAL to its scalar
// reference -- not "close", bit-identical -- so the level is a pure
// throughput knob and the goldens hold at every level.
//
// Layers, bottom up:
//  * parse/dispatch plumbing (common/simd.hpp): level names, the WCDMA_SIMD
//    parser, capability clamping of the set_simd_level test hook;
//  * bitwise agreement of the fused shadow-gain lane with the scalar
//    refmath formula on randomized lanes with an odd tail (refmath's own
//    lanes are pinned by tests/test_refmath.cpp);
//  * whole-run equality: SimMetrics and the final snapshot after hundreds of
//    frames -- exhaustive on the all-reverse shrunk E5 and on
//    hotspot-center, culled on hotspot-center -- compared across every
//    level the host supports.
//
// Levels the host cannot execute are skipped (recorded via GTEST_SKIP on
// the dispatch test so a scalar-only host is visible in the test log).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/refmath.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/units.hpp"
#include "src/scenario/experiments.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/kernels.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Every level this host can execute, scalar first (the reference).
std::vector<common::SimdLevel> supported_levels() {
  std::vector<common::SimdLevel> levels = {common::SimdLevel::kScalar};
  if (common::max_supported_simd_level() == common::SimdLevel::kAvx2) {
    levels.push_back(common::SimdLevel::kAvx2);
  }
  return levels;
}

/// Restores the ambient dispatch level when a test scope ends, so a failing
/// assertion mid-test cannot leak a forced level into later tests.
struct SimdLevelGuard {
  common::SimdLevel saved = common::active_simd_level();
  ~SimdLevelGuard() { common::set_simd_level(saved); }
};

// --- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, ParseSimdLevelAcceptsTheDocumentedSpellings) {
  common::SimdLevel level = common::SimdLevel::kAvx2;
  EXPECT_TRUE(common::parse_simd_level("scalar", &level));
  EXPECT_EQ(level, common::SimdLevel::kScalar);
  EXPECT_TRUE(common::parse_simd_level("avx2", &level));
  EXPECT_EQ(level, common::SimdLevel::kAvx2);
  EXPECT_TRUE(common::parse_simd_level("auto", &level));
  EXPECT_EQ(level, common::max_supported_simd_level());
}

TEST(SimdDispatch, ParseSimdLevelRejectsJunkAndLeavesOutputUntouched) {
  common::SimdLevel level = common::SimdLevel::kAvx2;
  for (const char* bad : {"", "AVX2", "sse", "sse2", "avx512", "scalar ", "0"}) {
    EXPECT_FALSE(common::parse_simd_level(bad, &level)) << "'" << bad << "'";
    EXPECT_EQ(level, common::SimdLevel::kAvx2) << "'" << bad << "'";
  }
  EXPECT_FALSE(common::parse_simd_level(nullptr, &level));
}

TEST(SimdDispatch, SetSimdLevelClampsToHostCapability) {
  SimdLevelGuard guard;
  const common::SimdLevel max = common::max_supported_simd_level();
  EXPECT_TRUE(common::set_simd_level(max));
  EXPECT_EQ(common::active_simd_level(), max);
  EXPECT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  EXPECT_EQ(common::active_simd_level(), common::SimdLevel::kScalar);
  if (max < common::SimdLevel::kAvx2) {
    // An unsupported request must be refused and leave the level alone.
    EXPECT_FALSE(common::set_simd_level(common::SimdLevel::kAvx2));
    EXPECT_EQ(common::active_simd_level(), common::SimdLevel::kScalar);
    GTEST_SKIP() << "host supports only " << common::simd_level_name(max)
                 << "; vector agreement tests cover the levels up to it";
  }
}

// --- per-kernel bitwise agreement -------------------------------------------

TEST(KernelAgreement, ShadowGainLaneBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  common::Rng rng(0x5badf00d);
  const std::size_t n = 517;  // odd: exercises every tail path
  std::vector<double> z(n), d_sq(n), shadow0(n), rho(n), innovation(n);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = rng.normal();
    d_sq[i] = 25.0 + rng.uniform() * 4.0e7;
    shadow0[i] = rng.normal(0.0, 8.0);
    // One AR(1) pair per run of 19 links, as one user's links carry it.
    if (i % 19 == 0) {
      rho[i] = 0.9 + 0.1 * rng.uniform();
      innovation[i] = 8.0 * std::sqrt(1.0 - rho[i] * rho[i]);
    } else {
      rho[i] = rho[i - 1];
      innovation[i] = innovation[i - 1];
    }
  }
  const double bias = -38.2, half_slope = 1.84;
  // The scalar formula, from refmath's scalar functions.
  std::vector<double> shadow_ref = shadow0, gain_ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    shadow_ref[i] = rho[i] * shadow_ref[i] + innovation[i] * z[i];
    const double arg = common::kExp2PerDb * shadow_ref[i] + bias -
                       half_slope * common::refmath::log2(d_sq[i]);
    gain_ref[i] = common::refmath::exp2(arg);
  }
  for (common::SimdLevel level : supported_levels()) {
    ASSERT_TRUE(common::set_simd_level(level));
    std::vector<double> shadow = shadow0, gain(n, -1.0);
    sim::kernels::shadow_gain_lane(rho.data(), innovation.data(), bias, half_slope,
                                   z.data(), d_sq.data(), shadow.data(), gain.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(shadow[i]), bits_of(shadow_ref[i]))
          << "shadow @ " << common::simd_level_name(level) << " lane " << i;
      ASSERT_EQ(bits_of(gain[i]), bits_of(gain_ref[i]))
          << "gain @ " << common::simd_level_name(level) << " lane " << i;
    }
  }
}

// --- whole-run equality across dispatch levels -----------------------------

/// A whole run's metrics and final state.
struct RunResult {
  sim::SimMetrics metrics;
  std::vector<std::uint8_t> snapshot;
};

/// Runs `provider` on `cfg` to completion.
RunResult run_provider(sim::SystemConfig cfg, const char* provider) {
  cfg.csi.provider = provider;
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) simulator.step_frame();
  return {simulator.metrics(), simulator.snapshot()};
}

void expect_moments_equal(const common::StreamingMoments& a,
                          const common::StreamingMoments& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(bits_of(a.mean()), bits_of(b.mean())) << what;
  EXPECT_EQ(bits_of(a.variance()), bits_of(b.variance())) << what;
  EXPECT_EQ(bits_of(a.min()), bits_of(b.min())) << what;
  EXPECT_EQ(bits_of(a.max()), bits_of(b.max())) << what;
}

void expect_metrics_identical(const sim::SimMetrics& a, const sim::SimMetrics& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  expect_moments_equal(a.burst_delay_s, b.burst_delay_s, "burst_delay_s");
  expect_moments_equal(a.queue_delay_s, b.queue_delay_s, "queue_delay_s");
  expect_moments_equal(a.granted_sgr, b.granted_sgr, "granted_sgr");
  expect_moments_equal(a.forward_load_fraction, b.forward_load_fraction,
                       "forward_load_fraction");
  expect_moments_equal(a.reverse_rise_db, b.reverse_rise_db, "reverse_rise_db");
  expect_moments_equal(a.voice_sir_error_db, b.voice_sir_error_db,
                       "voice_sir_error_db");
  expect_moments_equal(a.pending_queue_len, b.pending_queue_len,
                       "pending_queue_len");
  EXPECT_EQ(bits_of(a.data_bits_delivered), bits_of(b.data_bits_delivered));
  EXPECT_EQ(bits_of(a.observed_s), bits_of(b.observed_s));
  EXPECT_EQ(a.sch_frames, b.sch_frames);
  EXPECT_EQ(a.sch_outage_frames, b.sch_outage_frames);
  EXPECT_EQ(a.ber_violation_frames, b.ber_violation_frames);
  EXPECT_EQ(a.requests_seen, b.requests_seen);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.requests_granted, b.requests_granted);
  EXPECT_EQ(a.reject_rounds, b.reject_rounds);
  EXPECT_EQ(a.carrier_hand_downs, b.carrier_hand_downs);
  EXPECT_EQ(a.bs_power_saturations, b.bs_power_saturations);
  EXPECT_EQ(a.mobile_power_saturations, b.mobile_power_saturations);
}

void expect_run_identical_across_levels(const sim::SystemConfig& cfg,
                                        const char* provider) {
  SimdLevelGuard guard;
  ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  const RunResult reference = run_provider(cfg, provider);
  EXPECT_GT(reference.metrics.requests_seen, 0);  // the run must exercise the system
  for (common::SimdLevel level : supported_levels()) {
    if (level == common::SimdLevel::kScalar) continue;
    ASSERT_TRUE(common::set_simd_level(level));
    const RunResult run = run_provider(cfg, provider);
    expect_metrics_identical(run.metrics, reference.metrics,
                             common::simd_level_name(level));
    EXPECT_TRUE(run.snapshot == reference.snapshot)
        << provider << " @ " << common::simd_level_name(level)
        << ": final state differs from scalar";
  }
}

sim::SystemConfig small_hotspot_center() {
  scenario::ScenarioLayout layout = scenario::hotspot_center();
  layout.data_users = 32;
  layout.sim_duration_s = 10.0;
  layout.warmup_s = 2.0;
  return layout.to_config();
}

// The reference providers run the gain lane on refmath, whose every level is
// the scalar refmath function; their whole runs must not see the level.
TEST(ReferenceTrajectorySimd, ExhaustiveByteIdenticalAcrossLevelsOnShrunkE5) {
  // The paper's all-reverse E5 world.
  sweep::SweepSpec spec = scenario::e5_delay_rl();
  spec.base.voice.users = 20;
  spec.base.data.users = 12;
  spec.base.sim_duration_s = 12.0;
  spec.base.warmup_s = 2.0;
  expect_run_identical_across_levels(spec.base, "exhaustive");
}

TEST(ReferenceTrajectorySimd, ExhaustiveByteIdenticalAcrossLevels) {
  expect_run_identical_across_levels(small_hotspot_center(), "exhaustive");
}

TEST(ReferenceTrajectorySimd, CulledByteIdenticalAcrossLevels) {
  expect_run_identical_across_levels(small_hotspot_center(), "culled");
}

}  // namespace
}  // namespace wcdma
