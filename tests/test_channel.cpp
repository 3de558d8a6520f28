// Channel model tests: path-loss slopes and every model's affine fold,
// shadowing statistics and spatial correlation, Rayleigh fading moments and
// Doppler behaviour, and the CSI feedback pipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/channel/channel.hpp"
#include "src/channel/fading.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/common/stats.hpp"

namespace wcdma::channel {
namespace {

using common::Rng;
using common::StreamingMoments;

// ---------------------------------------------------------------- path loss

TEST(PathLoss, MonotoneInDistance) {
  PathLoss pl;
  double prev = pl.loss_db(10.0);
  for (double d = 50.0; d <= 5000.0; d += 50.0) {
    const double cur = pl.loss_db(d);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(PathLoss, MacroModelKnownValues) {
  PathLoss pl;  // 3GPP macro: 128.1 + 37.6 log10(d_km)
  EXPECT_NEAR(pl.loss_db(1000.0), 128.1, 1e-9);
  EXPECT_NEAR(pl.loss_db(2000.0), 128.1 + 37.6 * std::log10(2.0), 1e-9);
}

TEST(PathLoss, SlopePerDecade) {
  PathLoss pl;
  EXPECT_NEAR(pl.loss_db(10000.0) - pl.loss_db(1000.0), 37.6, 1e-9);
}

TEST(PathLoss, ClampsBelowMinDistance) {
  PathLoss pl;
  EXPECT_DOUBLE_EQ(pl.loss_db(0.001), pl.loss_db(10.0));
}

TEST(PathLoss, GainIsInverseLoss) {
  PathLoss pl;
  const double d = 700.0;
  EXPECT_NEAR(10.0 * std::log10(pl.gain_linear(d)), -pl.loss_db(d), 1e-9);
}

TEST(PathLoss, LogDistanceModel) {
  PathLossConfig cfg;
  cfg.kind = PathLossModelKind::kLogDistance;
  cfg.exponent = 4.0;
  cfg.reference_db = 100.0;
  cfg.reference_distance_m = 100.0;
  PathLoss pl(cfg);
  EXPECT_NEAR(pl.loss_db(100.0), 100.0, 1e-12);
  EXPECT_NEAR(pl.loss_db(1000.0), 140.0, 1e-12);
}

TEST(PathLoss, Cost231HataReasonableAtOneKm) {
  PathLossConfig cfg;
  cfg.kind = PathLossModelKind::kCost231Hata;
  PathLoss pl(cfg);
  // Urban COST231-Hata at 2 GHz, 1 km is in the high-130s dB.
  EXPECT_GT(pl.loss_db(1000.0), 130.0);
  EXPECT_LT(pl.loss_db(1000.0), 145.0);
}

TEST(PathLoss, AffineFoldMatchesEveryModel) {
  // Every provider's gain lane (sim::FrameState) consumes affine_log10(); it
  // must agree with loss_db() across models and distances, or the fused
  // constants have drifted from the reference evaluation.
  for (const PathLossModelKind kind :
       {PathLossModelKind::kLogDistance, PathLossModelKind::k3gppMacro,
        PathLossModelKind::kCost231Hata}) {
    PathLossConfig cfg;
    cfg.kind = kind;
    const PathLoss model(cfg);
    const PathLoss::AffineLog10 affine = model.affine_log10();
    for (double d = 5.0; d < 2.0e4; d *= 1.7) {
      const double clamped = std::max(d, cfg.min_distance_m);
      EXPECT_NEAR(affine.a_db + affine.b_db * std::log10(clamped), model.loss_db(d),
                  1e-9)
          << "kind=" << static_cast<int>(kind) << " d=" << d;
    }
  }
}

// ---------------------------------------------------------------- shadowing

TEST(Shadowing, StationaryStdDev) {
  ShadowingConfig cfg;
  cfg.sigma_db = 8.0;
  Shadowing sh(cfg, Rng(3));
  StreamingMoments m;
  for (int i = 0; i < 200000; ++i) m.add(sh.step(5.0));
  EXPECT_NEAR(m.mean(), 0.0, 0.25);
  EXPECT_NEAR(m.stddev(), 8.0, 0.3);
}

TEST(Shadowing, CorrelationDecaysWithDistance) {
  ShadowingConfig cfg;
  cfg.sigma_db = 8.0;
  cfg.decorrelation_m = 50.0;
  // Estimate lag-1 correlation for 10 m steps: expect exp(-10/50) ~ 0.819.
  Shadowing sh(cfg, Rng(5));
  double sum_xy = 0.0, sum_xx = 0.0;
  double prev = sh.value_db();
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double cur = sh.step(10.0);
    sum_xy += prev * cur;
    sum_xx += prev * prev;
    prev = cur;
  }
  EXPECT_NEAR(sum_xy / sum_xx, std::exp(-10.0 / 50.0), 0.02);
}

TEST(Shadowing, ZeroMoveKeepsValueClose) {
  ShadowingConfig cfg;
  Shadowing sh(cfg, Rng(7));
  const double before = sh.value_db();
  sh.step(0.0);  // rho = 1: no innovation
  EXPECT_NEAR(sh.value_db(), before, 1e-12);
}

TEST(Shadowing, GainMatchesDbValue) {
  Shadowing sh({}, Rng(9));
  EXPECT_NEAR(10.0 * std::log10(sh.gain_linear()), sh.value_db(), 1e-9);
}

// ---------------------------------------------------------------- fading

TEST(JakesFading, UnitMeanPowerAcrossRealisations) {
  StreamingMoments m;
  Rng rng(11);
  for (int r = 0; r < 400; ++r) {
    JakesFading f(50.0, rng.fork(r), 16);
    for (int i = 0; i < 50; ++i) m.add(f.step(0.01));
  }
  EXPECT_NEAR(m.mean(), 1.0, 0.05);
}

TEST(JakesFading, DeterministicGivenSeed) {
  JakesFading a(30.0, Rng(13)), b(30.0, Rng(13));
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.step(0.02), b.step(0.02));
}

TEST(JakesFading, AutocorrelationFollowsDoppler) {
  // At lag tau = 1/(2 fd), J0(pi) < 0: the envelope should decorrelate.
  // Compare empirical correlation at small vs large lag.
  Rng rng(17);
  const double fd = 20.0;
  double corr_small = 0.0, corr_large = 0.0;
  const int reps = 2000;
  StreamingMoments base;
  for (int r = 0; r < reps; ++r) {
    JakesFading f(fd, rng.fork(r), 16);
    const auto g0 = f.gain_at(0.0);
    const auto g_small = f.gain_at(0.001);  // 2 pi fd t = 0.126
    const auto g_large = f.gain_at(0.025);  // 2 pi fd t = 3.14
    corr_small += g0.real() * g_small.real();
    corr_large += g0.real() * g_large.real();
    base.add(g0.real() * g0.real());
  }
  corr_small /= reps;
  corr_large /= reps;
  const double var = base.mean();
  EXPECT_GT(corr_small / var, 0.9);      // J0(0.126) ~ 0.996
  // At 2 pi fd t = pi the Clarke autocorrelation goes *negative*:
  // J0(3.14) ~ -0.304.
  EXPECT_LT(corr_large / var, 0.0);
  EXPECT_NEAR(corr_large / var, -0.304, 0.15);
}

TEST(Ar1Fading, CorrelationCoefficient) {
  // rho = J0(2 pi fd dt); fd = 10 Hz, dt = 20 ms -> J0(1.2566) ~ 0.6425.
  EXPECT_NEAR(Ar1Fading::correlation(10.0, 0.020), 0.6425, 2e-3);
  // fd = 25 Hz puts the argument at pi where J0 < 0: clamps to 0.
  EXPECT_DOUBLE_EQ(Ar1Fading::correlation(25.0, 0.020), 0.0);
}

TEST(Ar1Fading, UnitMeanPowerStationary) {
  Ar1Fading f(20.0, 0.02, Rng(19));
  StreamingMoments m;
  for (int i = 0; i < 200000; ++i) m.add(f.step(0.02));
  EXPECT_NEAR(m.mean(), 1.0, 0.02);
  // Power of a unit-mean exponential has unit variance.
  EXPECT_NEAR(m.variance(), 1.0, 0.05);
}

TEST(Ar1Fading, PowerGainNonNegative) {
  Ar1Fading f(5.0, 0.02, Rng(23));
  for (int i = 0; i < 1000; ++i) EXPECT_GE(f.step(0.02), 0.0);
}

// ---------------------------------------------------------------- feedback

TEST(CsiFeedback, ZeroDelayPassthrough) {
  CsiFeedback fb(0, 0.0, Rng(41));
  fb.push(1.5);
  EXPECT_DOUBLE_EQ(fb.current(), 1.5);
  fb.push(2.5);
  EXPECT_DOUBLE_EQ(fb.current(), 2.5);
}

TEST(CsiFeedback, DelayedByExactlyNFrames) {
  CsiFeedback fb(2, 0.0, Rng(43));
  fb.push(1.0);
  fb.push(2.0);
  fb.push(3.0);
  EXPECT_DOUBLE_EQ(fb.current(), 1.0);  // 2 frames behind
  fb.push(4.0);
  EXPECT_DOUBLE_EQ(fb.current(), 2.0);
  EXPECT_TRUE(fb.primed());
}

TEST(CsiFeedback, StartupReturnsOldestAvailable) {
  CsiFeedback fb(3, 0.0, Rng(47));
  fb.push(9.0);
  EXPECT_DOUBLE_EQ(fb.current(), 9.0);
  EXPECT_FALSE(fb.primed());
}

TEST(CsiFeedback, NoiseIsUnbiasedInDb) {
  CsiFeedback fb(0, 2.0, Rng(53));
  StreamingMoments m;
  for (int i = 0; i < 50000; ++i) {
    fb.push(1.0);
    m.add(10.0 * std::log10(fb.current()));
  }
  EXPECT_NEAR(m.mean(), 0.0, 0.05);
  EXPECT_NEAR(m.stddev(), 2.0, 0.05);
}

}  // namespace
}  // namespace wcdma::channel
