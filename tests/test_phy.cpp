// Adaptive physical layer tests: the VTAOC mode ladder, constant-BER
// threshold design, closed-form Rayleigh performance vs Monte-Carlo, the
// adaptive-vs-fixed dominance property (the paper's "significant gain in
// average throughput"), link adapters, and the spreading arithmetic of
// Eq. (2), (4) and (5).
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/phy/adaptation.hpp"
#include "src/phy/link_adapter.hpp"
#include "src/phy/modes.hpp"
#include "src/phy/spreading.hpp"

namespace wcdma::phy {
namespace {

using common::Rng;
using common::StreamingMoments;

AdaptationPolicy make_policy(double pb = 1e-3) {
  VtaocParams params;
  params.b1 = 2.0;
  return AdaptationPolicy(make_vtaoc_modes(params), pb);
}

// ---------------------------------------------------------------- modes

TEST(Modes, LadderThroughputsArePowersOfTwo) {
  const ModeSet modes = make_vtaoc_modes({});
  ASSERT_EQ(modes.size(), 6u);
  EXPECT_DOUBLE_EQ(modes.mode(1).throughput, 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(modes.mode(6).throughput, 1.0);
  for (int q = 2; q <= 6; ++q) {
    EXPECT_DOUBLE_EQ(modes.mode(q).throughput, 2.0 * modes.mode(q - 1).throughput);
  }
}

TEST(Modes, BerDecreasesWithGamma) {
  const ModeSet modes = make_vtaoc_modes({});
  const auto& m = modes.mode(3);
  EXPECT_GT(m.ber(1.0), m.ber(2.0));
  EXPECT_GT(m.ber(2.0), m.ber(10.0));
}

TEST(Modes, BerClippedAtHalf) {
  const ModeSet modes = make_vtaoc_modes({});
  EXPECT_DOUBLE_EQ(modes.mode(1).ber(0.0), 0.5);
}

TEST(Modes, GammaForBerInvertsCorrectly) {
  const ModeSet modes = make_vtaoc_modes({});
  for (int q = 1; q <= 6; ++q) {
    const double g = modes.mode(q).gamma_for_ber(1e-3);
    EXPECT_NEAR(modes.mode(q).ber(g), 1e-3, 1e-12);
  }
}

TEST(Modes, HigherModesNeedMoreGammaForSameBer) {
  const ModeSet modes = make_vtaoc_modes({});
  for (int q = 2; q <= 6; ++q) {
    EXPECT_GT(modes.mode(q).gamma_for_ber(1e-3), modes.mode(q - 1).gamma_for_ber(1e-3));
  }
}

// ---------------------------------------------------------------- adaptation

TEST(Adaptation, ThresholdsMatchClosedForm) {
  const auto policy = make_policy(1e-3);
  // t_q = ln(a/Pb)/b_q with a = 0.5, b_q = 2/2^(q-1).
  for (std::size_t q = 1; q <= 6; ++q) {
    const double b_q = 2.0 / std::pow(2.0, static_cast<double>(q - 1));
    EXPECT_NEAR(policy.thresholds()[q - 1], std::log(0.5 / 1e-3) / b_q, 1e-9);
  }
}

TEST(Adaptation, ThresholdStepIsThreeDb) {
  const auto policy = make_policy();
  for (std::size_t q = 1; q < 6; ++q) {
    const double ratio_db = 10.0 * std::log10(policy.thresholds()[q] /
                                              policy.thresholds()[q - 1]);
    EXPECT_NEAR(ratio_db, 3.0103, 1e-3);
  }
}

TEST(Adaptation, SelectsHighestAdmissibleMode) {
  const auto policy = make_policy();
  const auto& t = policy.thresholds();
  EXPECT_EQ(policy.select(t[3] * 1.01).mode, 4);
  EXPECT_EQ(policy.select(t[3] * 0.99).mode, 3);
  // Exactly at threshold -> that mode.
  EXPECT_EQ(policy.select(t[5]).mode, 6);
}

TEST(Adaptation, OutageBelowFirstThreshold) {
  const auto policy = make_policy();
  const auto d = policy.select(policy.thresholds()[0] * 0.5);
  EXPECT_EQ(d.mode, 0);
  EXPECT_DOUBLE_EQ(d.throughput, 0.0);
}

TEST(Adaptation, AvgThroughputMatchesMonteCarlo) {
  const auto policy = make_policy();
  Rng rng(7);
  for (double mean_csi : {2.0, 10.0, 50.0}) {
    StreamingMoments m;
    for (int i = 0; i < 200000; ++i) {
      const double gamma = -mean_csi * std::log(1.0 - rng.uniform());  // Exp(mean)
      m.add(policy.select(gamma).throughput);
    }
    EXPECT_NEAR(m.mean(), policy.avg_throughput_rayleigh(mean_csi),
                0.02 * policy.avg_throughput_rayleigh(mean_csi) + 1e-4)
        << "mean_csi=" << mean_csi;
  }
}

// The closed form sums throughput x mode probability over the ladder; its
// every bit must be that sum's, taken in mode order from 0.
TEST(Adaptation, AvgThroughputIsTheModeProbabilitySumBitForBit) {
  const auto policy = make_policy();
  Rng rng(0x7a0c);
  for (int trial = 0; trial < 2000; ++trial) {
    const double mean_csi = std::pow(10.0, -3.0 + 7.0 * rng.uniform());
    double want = 0.0;
    for (int q = 1; q <= static_cast<int>(policy.modes().size()); ++q) {
      want += policy.modes().mode(q).throughput *
              policy.mode_probability_rayleigh(mean_csi, q);
    }
    ASSERT_EQ(policy.avg_throughput_rayleigh(mean_csi), want) << "mean_csi=" << mean_csi;
  }
}

TEST(Adaptation, OutageProbabilityMatchesFormula) {
  const auto policy = make_policy();
  const double eps = 5.0;
  EXPECT_NEAR(policy.outage_probability_rayleigh(eps),
              1.0 - std::exp(-policy.thresholds()[0] / eps), 1e-12);
}

TEST(Adaptation, ModeProbabilitiesSumWithOutage) {
  const auto policy = make_policy();
  for (double eps : {1.0, 8.0, 40.0}) {
    double total = policy.outage_probability_rayleigh(eps);
    for (int q = 1; q <= 6; ++q) total += policy.mode_probability_rayleigh(eps, q);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Adaptation, AvgThroughputMonotoneInCsi) {
  const auto policy = make_policy();
  double prev = 0.0;
  for (double db = -5.0; db <= 30.0; db += 1.0) {
    const double cur = policy.avg_throughput_rayleigh(std::pow(10.0, db / 10.0));
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

// The constant-BER property (footnote 1 of the paper): with the outage
// floor, realised BER never exceeds the target, at any mean CSI.
class ConstantBerSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConstantBerSweep, AvgBerAtOrBelowTarget) {
  const double target = 1e-3;
  const auto policy = make_policy(target);
  const double eps = std::pow(10.0, GetParam() / 10.0);
  EXPECT_LE(policy.avg_ber_rayleigh(eps), target * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(CsiGrid, ConstantBerSweep,
                         ::testing::Values(-10.0, -5.0, 0.0, 3.0, 6.0, 10.0, 13.0,
                                           16.0, 20.0, 25.0, 30.0));

// Adaptive dominance: the VTAOC average throughput is at least that of any
// single fixed mode operated with the same BER guarantee, at any CSI.
class AdaptiveDominance
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(AdaptiveDominance, BeatsOrMatchesFixedMode) {
  const auto [db, q] = GetParam();
  const auto policy = make_policy();
  const double eps = std::pow(10.0, db / 10.0);
  EXPECT_GE(policy.avg_throughput_rayleigh(eps) * (1.0 + 1e-12),
            policy.fixed_mode_avg_throughput_rayleigh(eps, q));
}

INSTANTIATE_TEST_SUITE_P(
    GridByMode, AdaptiveDominance,
    ::testing::Combine(::testing::Values(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
                       ::testing::Values(1, 2, 3, 4, 5, 6)));

TEST(Adaptation, AvgBerMonteCarloAgreement) {
  const auto policy = make_policy();
  Rng rng(11);
  const double eps = 8.0;
  double err_bits = 0.0, bits = 0.0;
  for (int i = 0; i < 400000; ++i) {
    const double gamma = -eps * std::log(1.0 - rng.uniform());
    const auto d = policy.select(gamma);
    if (d.mode == 0) continue;
    const auto& mode = policy.modes().mode(d.mode);
    err_bits += mode.throughput * mode.ber(gamma);
    bits += mode.throughput;
  }
  EXPECT_NEAR(err_bits / bits, policy.avg_ber_rayleigh(eps),
              0.1 * policy.avg_ber_rayleigh(eps));
}

// ---------------------------------------------------------------- adapters

TEST(LinkAdapter, PerfectFeedbackNeverViolatesBer) {
  const auto policy = make_policy();
  LinkAdapter adapter(&policy, 0, 0.0, Rng(13));
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double csi = rng.exponential(10.0);
    const auto out = adapter.on_frame(csi);
    EXPECT_FALSE(out.ber_violation);
  }
}

TEST(LinkAdapter, StaleFeedbackCanViolateBer) {
  const auto policy = make_policy();
  LinkAdapter adapter(&policy, 1, 0.0, Rng(19));
  // Strong CSI then a collapse: the delayed feedback still reports strong.
  adapter.on_frame(200.0);
  adapter.on_frame(200.0);
  const auto out = adapter.on_frame(0.5);
  EXPECT_GT(out.mode, 0);  // still transmitting on stale info
  EXPECT_TRUE(out.ber_violation);
}

TEST(FixedRateAdapter, SilentBelowThreshold) {
  const auto policy = make_policy();
  FixedRateAdapter adapter(&policy, 4, 0, 0.0, Rng(29));
  const double t4 = policy.thresholds()[3];
  EXPECT_EQ(adapter.on_frame(t4 * 0.9).mode, 0);
  EXPECT_EQ(adapter.on_frame(t4 * 1.1).mode, 4);
}

// ---------------------------------------------------------------- spreading

TEST(Spreading, TotalProcessingGain) {
  Spreading s;  // W = 3.6864 Mcps
  EXPECT_NEAR(s.total_processing_gain(9600.0), 384.0, 1e-9);  // Eq. 2
}

TEST(Spreading, SchBitRateEq4) {
  SpreadingConfig cfg;
  cfg.fch_bit_rate = 9600.0;
  cfg.fch_throughput = 0.25;
  Spreading s(cfg);
  // Rs = Rf * m * beta_s/beta_f: m=8, beta_s=0.5 -> 9600*8*2 = 153600.
  EXPECT_NEAR(s.sch_bit_rate(8, 0.5), 153600.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.sch_bit_rate(0, 0.5), 0.0);
}

TEST(Spreading, PowerRatioEq5) {
  SpreadingConfig cfg;
  cfg.gamma_s = 8.0;
  Spreading s(cfg);
  EXPECT_DOUBLE_EQ(s.sch_power_ratio(4), 32.0);
  EXPECT_DOUBLE_EQ(s.sch_power_ratio(0), 0.0);
}

TEST(Spreading, RateScalesLinearlyInSgr) {
  Spreading s;
  const double r1 = s.sch_bit_rate(1, 0.25);
  for (int m = 2; m <= 16; ++m) {
    EXPECT_NEAR(s.sch_bit_rate(m, 0.25), m * r1, 1e-9);
  }
}

}  // namespace
}  // namespace wcdma::phy
