// Certification of the SIMD kernel contract (src/sim/kernels.hpp): every
// dispatch level of every kernel is ELEMENT-WISE IDENTICAL to the scalar
// fastmath reference -- not "close", bit-identical -- so the level is a pure
// throughput knob and the statcheck certification of the `fast` provider
// transfers to AVX2 by identity.
//
// Layers, bottom up:
//  * parse/dispatch plumbing (common/simd.hpp): level names, the WCDMA_SIMD
//    parser, capability clamping of the set_simd_level test hook;
//  * per-kernel bitwise agreement on randomized lanes plus the documented
//    edge inputs (subnormals, the +/-1022 exp2 rails, NaN payloads, odd lane
//    tails) for exp2/log2/dB lanes and the fused shadow-gain kernel;
//  * ziggurat fill: sample-for-sample, word-count, and stream-position
//    equality between the scalar fill and the SIMD block fill, across batch
//    sizes that cover empty, sub-block, block-boundary, and multi-block;
//  * whole-run equality: the fast provider's SimMetrics after thousands of
//    frames on the shrunk E5 and hotspot-center scenarios, compared field by
//    field across every level the host supports.
//
// Levels the host cannot execute are skipped (recorded via GTEST_SKIP on
// the dispatch test so a scalar-only host is visible in the test log).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/fastmath.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/ziggurat.hpp"
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

/// Runs `kernel` on `input` at every supported level and asserts bitwise
/// equality with the scalar result, element by element.
template <typename Kernel>
void expect_lane_agreement(const std::vector<double>& input, Kernel kernel,
                           const char* name) {
  SimdLevelGuard guard;
  const std::size_t n = input.size();
  std::vector<double> reference(n), out(n);
  ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  kernel(input.data(), reference.data(), n);
  for (common::SimdLevel level : supported_levels()) {
    ASSERT_TRUE(common::set_simd_level(level));
    std::fill(out.begin(), out.end(), -0.0);
    kernel(input.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(out[i]), bits_of(reference[i]))
          << name << " @ " << common::simd_level_name(level) << " lane " << i
          << " input " << input[i] << ": " << out[i] << " != " << reference[i];
    }
    // In-place operation must give the same bits (the sim calls some lanes
    // in place).
    std::vector<double> in_place = input;
    kernel(in_place.data(), in_place.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(in_place[i]), bits_of(reference[i]))
          << name << " in-place @ " << common::simd_level_name(level)
          << " lane " << i;
    }
  }
}

/// Odd length so every vector width leaves a scalar tail.
constexpr std::size_t kLaneN = 1027;

std::vector<double> exp2_inputs() {
  common::Rng rng(0x51d0);
  std::vector<double> x;
  // The working range of the gain/dB kernels...
  for (std::size_t i = 0; i < kLaneN; ++i) x.push_back(rng.uniform() * 280.0 - 140.0);
  // ...plus the clamp rails and specials the fastmath fix pins.
  const double inf = std::numeric_limits<double>::infinity();
  for (double e : {-1022.0, 1022.0, -1021.999, 1021.999, -1023.0, 1023.0,
                   -5000.0, 5000.0, -inf, inf, 0.0, -0.0,
                   std::numeric_limits<double>::quiet_NaN(), 5e-324, -5e-324}) {
    x.push_back(e);
  }
  return x;
}

std::vector<double> log2_inputs() {
  common::Rng rng(0x1062);
  std::vector<double> x;
  // Log-spaced positives across the full finite range, subnormals included.
  for (std::size_t i = 0; i < kLaneN; ++i) {
    x.push_back(std::exp2(rng.uniform() * 600.0 - 320.0));
  }
  for (double e : {5e-324, 1e-310, 2.2250738585072009e-308,  // subnormals
                   2.2250738585072014e-308,                  // min normal
                   1.0, 2.0, 1.5, 0.75, 1.7976931348623157e308}) {
    x.push_back(e);
  }
  return x;
}

TEST(KernelAgreement, Exp2LaneBitwiseAcrossLevels) {
  expect_lane_agreement(exp2_inputs(), sim::kernels::exp2_lane, "exp2");
}

TEST(KernelAgreement, Log2LaneBitwiseAcrossLevels) {
  expect_lane_agreement(log2_inputs(), sim::kernels::log2_lane, "log2");
}

TEST(KernelAgreement, DbConversionLanesBitwiseAcrossLevels) {
  expect_lane_agreement(log2_inputs(), sim::kernels::linear_to_db_lane,
                        "linear_to_db");
  expect_lane_agreement(exp2_inputs(), sim::kernels::db_to_linear_lane,
                        "db_to_linear");
}

TEST(KernelAgreement, LanesMatchScalarFastmathDirectly) {
  // The scalar lane itself must be the fastmath function, not a twin that
  // could drift: spot-check against direct calls.
  SimdLevelGuard guard;
  ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  const std::vector<double> xs = exp2_inputs();
  std::vector<double> out(xs.size());
  sim::kernels::exp2_lane(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(bits_of(out[i]), bits_of(common::fast_exp2(xs[i]))) << xs[i];
  }
  const std::vector<double> ps = log2_inputs();
  out.resize(ps.size());
  sim::kernels::log2_lane(ps.data(), out.data(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ASSERT_EQ(bits_of(out[i]), bits_of(common::fast_log2(ps[i]))) << ps[i];
  }
}

TEST(KernelAgreement, ShadowGainLaneBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  common::Rng rng(0x5badf00d);
  const std::size_t n = 517;  // odd: exercises every tail path
  std::vector<double> z(n), d_sq(n), shadow0(n);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = rng.normal();
    d_sq[i] = 25.0 + rng.uniform() * 4.0e7;
    shadow0[i] = rng.normal(0.0, 8.0);
  }
  const double rho = 0.98, innovation = 1.59, bias = -38.2, half_slope = 1.84;
  std::vector<double> shadow_ref = shadow0, gain_ref(n);
  ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  sim::kernels::shadow_gain_lane(rho, innovation, bias, half_slope, z.data(),
                                 d_sq.data(), shadow_ref.data(),
                                 gain_ref.data(), n);
  for (common::SimdLevel level : supported_levels()) {
    ASSERT_TRUE(common::set_simd_level(level));
    std::vector<double> shadow = shadow0, gain(n, -1.0);
    sim::kernels::shadow_gain_lane(rho, innovation, bias, half_slope, z.data(),
                                   d_sq.data(), shadow.data(), gain.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(shadow[i]), bits_of(shadow_ref[i]))
          << "shadow @ " << common::simd_level_name(level) << " lane " << i;
      ASSERT_EQ(bits_of(gain[i]), bits_of(gain_ref[i]))
          << "gain @ " << common::simd_level_name(level) << " lane " << i;
    }
  }
}

// --- ziggurat fill: stream contract across levels ---------------------------

TEST(ZigguratSimd, FillMatchesScalarSamplesWordsAndStreamPosition) {
  SimdLevelGuard guard;
  const common::ZigguratNormal zig;
  // Sizes covering empty, sub-block, the 8-wide block boundary, and enough
  // samples to hit wedge and tail excursions (~1.2% of draws reject).
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{4096}}) {
    std::vector<double> reference(n + 1);
    common::Rng ref_rng(0x2165 + n);
    ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
    const std::size_t ref_words = zig.fill(ref_rng, reference.data(), n);
    const std::uint64_t ref_next = ref_rng.next_u64();  // stream position probe
    for (common::SimdLevel level : supported_levels()) {
      ASSERT_TRUE(common::set_simd_level(level));
      std::vector<double> out(n + 1, -42.0);
      common::Rng rng(0x2165 + n);
      const std::size_t words = zig.fill(rng, out.data(), n);
      EXPECT_EQ(words, ref_words)
          << "n=" << n << " @ " << common::simd_level_name(level);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits_of(out[i]), bits_of(reference[i]))
            << "n=" << n << " sample " << i << " @ "
            << common::simd_level_name(level);
      }
      EXPECT_EQ(rng.next_u64(), ref_next)
          << "n=" << n << " @ " << common::simd_level_name(level)
          << ": stream position diverged";
    }
  }
}

TEST(ZigguratSimd, FillEqualsSuccessiveDrawsAtEveryLevel) {
  SimdLevelGuard guard;
  const common::ZigguratNormal zig;
  const std::size_t n = 2048;
  std::vector<double> reference(n);
  common::Rng draw_rng(0xfaceb00c);
  for (std::size_t i = 0; i < n; ++i) reference[i] = zig.draw(draw_rng);
  for (common::SimdLevel level : supported_levels()) {
    ASSERT_TRUE(common::set_simd_level(level));
    std::vector<double> out(n);
    common::Rng rng(0xfaceb00c);
    zig.fill(rng, out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(out[i]), bits_of(reference[i]))
          << "sample " << i << " @ " << common::simd_level_name(level);
    }
  }
}

// --- whole-run equality: the fast provider across dispatch levels -----------

/// Runs the fast provider on `cfg` to completion and returns its metrics.
sim::SimMetrics run_fast(sim::SystemConfig cfg) {
  cfg.csi.provider = "fast";
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) simulator.step_frame();
  return simulator.metrics();
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
  EXPECT_EQ(a.reject_rounds, b.reject_rounds);
  EXPECT_EQ(a.carrier_hand_downs, b.carrier_hand_downs);
  EXPECT_EQ(a.bs_power_saturations, b.bs_power_saturations);
  EXPECT_EQ(a.mobile_power_saturations, b.mobile_power_saturations);
}

void expect_fast_run_identical_across_levels(const sim::SystemConfig& cfg) {
  SimdLevelGuard guard;
  ASSERT_TRUE(common::set_simd_level(common::SimdLevel::kScalar));
  const sim::SimMetrics reference = run_fast(cfg);
  EXPECT_GT(reference.requests_seen, 0);  // the run must exercise the system
  for (common::SimdLevel level : supported_levels()) {
    if (level == common::SimdLevel::kScalar) continue;
    ASSERT_TRUE(common::set_simd_level(level));
    expect_metrics_identical(run_fast(cfg), reference,
                             common::simd_level_name(level));
  }
}

TEST(FastTrajectorySimd, ByteIdenticalAcrossLevelsOnShrunkE5) {
  sweep::SweepSpec spec = scenario::e5_delay_rl();
  spec.base.voice.users = 20;
  spec.base.data.users = 12;
  spec.base.sim_duration_s = 12.0;
  spec.base.warmup_s = 2.0;
  expect_fast_run_identical_across_levels(spec.base);
}

TEST(FastTrajectorySimd, ByteIdenticalAcrossLevelsOnHotspotCenter) {
  scenario::ScenarioLayout layout = scenario::hotspot_center();
  layout.data_users = 32;
  layout.sim_duration_s = 10.0;
  layout.warmup_s = 2.0;
  expect_fast_run_identical_across_levels(layout.to_config());
}

}  // namespace
}  // namespace wcdma
