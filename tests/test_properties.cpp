// Cross-cutting property suites that tie modules together:
//  * simplex optimality cross-checked against dense grid search,
//  * the J2 objective's IP-coefficient form is equivalent (up to a
//    constant) to the literal Eq. 20 expression with the delay penalty,
//  * Jakes and AR(1) fading agree on the lag-1 Clarke correlation,
//  * the measurement sub-layer is scale-consistent (doubling interference
//    halves reverse headroom coefficients' budget, etc.).
#include <gtest/gtest.h>

#include <cmath>

#include "src/admission/objectives.hpp"
#include "src/admission/policy.hpp"
#include "src/admission/schedulers.hpp"
#include "src/channel/fading.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/opt/simplex.hpp"

namespace wcdma {
namespace {

using common::Matrix;
using common::Rng;

// ---------------------------------------------------------- simplex vs grid

class SimplexGridCheck : public ::testing::TestWithParam<int> {};

TEST_P(SimplexGridCheck, TwoVarOptimumMatchesGridSearch) {
  Rng rng(2000 + GetParam());
  opt::LpProblem p;
  const std::size_t m = 1 + rng.uniform_int(3);
  p.a = Matrix(m, 2, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    p.a(r, 0) = rng.uniform(0.1, 2.0);
    p.a(r, 1) = rng.uniform(0.1, 2.0);
  }
  p.b.resize(m);
  for (auto& b : p.b) b = rng.uniform(1.0, 6.0);
  p.c = {rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)};
  p.upper = {10.0, 10.0};

  const opt::LpResult r = opt::solve_lp(p);
  ASSERT_EQ(r.status, opt::LpStatus::kOptimal);

  // Dense grid search (the LP optimum is at a vertex, but grid search
  // bounds the objective from below everywhere).
  double best = 0.0;
  const int grid = 400;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      const common::Vector x = {10.0 * i / grid, 10.0 * j / grid};
      if (!common::satisfies(p.a, x, p.b, 1e-12)) continue;
      best = std::max(best, common::dot(p.c, x));
    }
  }
  EXPECT_GE(r.objective, best - 1e-6);          // simplex at least as good
  EXPECT_LE(r.objective, best + 0.15 * best + 0.2);  // and grid-close
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexGridCheck, ::testing::Range(0, 20));

// ------------------------------------------------- J2 equivalence property

// The scheduler consumes J2 as coefficients c_j (DESIGN.md D4).  Verify the
// literal Eq. 20 objective J2(m) = sum_j [ m_j dbeta_j (1 + Delta_j)
// - f(w_j, m_j dbeta_j) ] differs from sum_j c_j m_j by a constant that
// does not depend on m — i.e. both forms have the same argmax.
class J2Equivalence : public ::testing::TestWithParam<int> {};

TEST_P(J2Equivalence, CoefficientFormMatchesLiteralFormUpToConstant) {
  Rng rng(3000 + GetParam());
  const std::size_t nd = 2 + rng.uniform_int(6);
  std::vector<admission::RequestView> reqs(nd);
  const int max_sgr = 16;
  for (auto& r : reqs) {
    r.user = static_cast<int>(&r - reqs.data());
    r.q_bits = rng.uniform(1e4, 1e6);
    r.waiting_s = rng.uniform(0.0, 15.0);
    r.delta_beta = rng.uniform(0.1, 2.0);
    r.priority = rng.bernoulli(0.3) ? 0.5 : 0.0;
  }
  admission::DelayPenaltyConfig penalty;
  penalty.lambda = rng.uniform(0.5, 5.0);
  penalty.mu = rng.uniform(0.1, 2.0);
  mac::MacTimersConfig timers;

  const std::vector<double> c =
      objective_coefficients(reqs, admission::ObjectiveKind::kJ2DelayAware, penalty, timers);

  auto literal_j2 = [&](const std::vector<int>& m) {
    double acc = 0.0;
    for (std::size_t j = 0; j < nd; ++j) {
      const double r_j = m[j] * reqs[j].delta_beta;
      const double r_max = max_sgr * reqs[j].delta_beta;
      const double w = mac::effective_request_delay(timers, reqs[j].waiting_s);
      acc += r_j * (1.0 + reqs[j].priority) - delay_penalty(penalty, w, r_j, r_max);
    }
    return acc;
  };
  auto coeff_j2 = [&](const std::vector<int>& m) {
    double acc = 0.0;
    for (std::size_t j = 0; j < nd; ++j) acc += c[j] * m[j];
    return acc;
  };

  // The gap must be identical for arbitrary assignments.
  std::vector<int> zero(nd, 0);
  const double offset = coeff_j2(zero) - literal_j2(zero);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> m(nd);
    for (auto& v : m) v = static_cast<int>(rng.uniform_int(max_sgr + 1));
    EXPECT_NEAR(coeff_j2(m) - literal_j2(m), offset, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, J2Equivalence, ::testing::Range(0, 15));

// ------------------------------------------------- fading model agreement

TEST(FadingModels, JakesAndAr1AgreeOnLagOneCorrelation) {
  // Estimate the lag-1 (20 ms) power-gain autocorrelation of the Jakes
  // process and compare with the AR(1) coefficient J0(2 pi fd dt) -- both
  // implement the same Clarke spectrum.  Power correlation of a complex
  // Gaussian process is rho_h^2.
  const double fd = 12.0, dt = 0.020;
  Rng rng(47);
  double num = 0.0, den = 0.0;
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    channel::JakesFading f(fd, rng.fork(r), 24);
    const double p0 = std::norm(f.gain_at(0.0)) - 1.0;  // centred (unit mean)
    const double p1 = std::norm(f.gain_at(dt)) - 1.0;
    num += p0 * p1;
    den += p0 * p0;
  }
  const double rho_h = channel::Ar1Fading::correlation(fd, dt);
  EXPECT_NEAR(num / den, rho_h * rho_h, 0.08);
}

// -------------------------------------------------- measurement invariances

/// One request on cell 0 (gain 1), priced on a one-carrier context.
admission::BurstProblem one_request_round(admission::FrameContext ctx,
                                          mac::LinkDirection direction,
                                          admission::FrameRequest r) {
  r.q_bits = 1e6;
  r.reduced_set = {{0, 1.0}};
  ctx.requests = {r};
  return ctx.make_problem(direction, 0, {0});
}

TEST(ReverseRegion, ScalingInterferenceRescalesBudgetOnly) {
  // Multiplying every cell's measured interference AND the cap by the same
  // factor leaves the region unchanged (the rows are self-normalised).  The
  // pilot scales too, so the measured xi^RL stays 0.01 at cell 0.
  auto region = [](double scale) {
    admission::FrameContext ctx;
    ctx.num_cells = 2;
    ctx.l_max_watt = 4.0e-13 * scale;
    ctx.reverse_interference_watt = {1.0e-13 * scale, 2.0e-13 * scale};
    admission::FrameRequest r;
    r.pilot_tx_watt = 1.0e-15 * scale;
    r.scrm_pilots = {{0, 0.05}, {1, 0.02}};
    return one_request_round(ctx, mac::LinkDirection::kReverse, r);
  };
  const admission::BurstProblem base = region(1.0);
  const admission::BurstProblem scaled = region(10.0);
  for (std::size_t k = 0; k < base.b.size(); ++k) {
    EXPECT_NEAR(base.b[k], scaled.b[k], 1e-12);
    EXPECT_NEAR(base.a(k, 0), scaled.a(k, 0), 1e-12);
  }
}

TEST(ForwardRegion, CoefficientsScaleWithGammaS) {
  admission::FrameContext ctx;
  ctx.num_cells = 1;
  ctx.gamma_s = 2.0;
  ctx.forward_load_watt = {5.0};
  admission::FrameRequest r;
  r.fch_power_watt = 0.1;
  const auto fwd = mac::LinkDirection::kForward;
  const admission::BurstProblem r1 = one_request_round(ctx, fwd, r);
  ctx.gamma_s = 4.0;
  const admission::BurstProblem r2 = one_request_round(ctx, fwd, r);
  EXPECT_NEAR(r2.a(0, 0), 2.0 * r1.a(0, 0), 1e-12);
  EXPECT_NEAR(r2.b[0], r1.b[0], 1e-12);  // budget unchanged
}

// ------------------------------------------- scheduler anti-starvation

TEST(J2AntiStarvation, AgingEventuallyFlipsTheGrant) {
  // One unit of capacity, two requests: a good-channel user and a weak-
  // channel user.  Under J1 the good channel always wins; under J2 the
  // weak user's waiting-time boost must eventually overturn the decision.
  auto build = [&](double wait_weak, admission::ObjectiveKind kind) {
    std::vector<admission::RequestView> reqs(2);
    reqs[0] = {.user = 0, .q_bits = 1e5, .waiting_s = 0.0, .priority = 0.0,
               .delta_beta = 1.5};
    reqs[1] = {.user = 1, .q_bits = 1e5, .waiting_s = wait_weak, .priority = 0.0,
               .delta_beta = 1.0};
    admission::DelayPenaltyConfig penalty;
    penalty.lambda = 2.0;
    penalty.mu = 0.5;
    return admission::make_burst_problem(Matrix{{1.0, 1.0}}, {1.0}, reqs, kind, penalty,
                                         {}, 9600.0, 0.080, 16);
  };

  admission::JabaSdScheduler jaba;
  // J1: channel quality rules regardless of waiting.
  const auto j1 = jaba.schedule(build(30.0, admission::ObjectiveKind::kJ1MaxRate));
  EXPECT_GT(j1.m[0], 0);
  EXPECT_EQ(j1.m[1], 0);
  // J2, fresh: same.
  const auto j2_fresh = jaba.schedule(build(0.0, admission::ObjectiveKind::kJ2DelayAware));
  EXPECT_GT(j2_fresh.m[0], 0);
  // J2, aged: the weak user's boost (up to 1 + lambda = 3x) overtakes
  // 1.5/1.0 channel advantage.
  const auto j2_aged = jaba.schedule(build(30.0, admission::ObjectiveKind::kJ2DelayAware));
  EXPECT_GT(j2_aged.m[1], 0);
  EXPECT_EQ(j2_aged.m[0], 0);
}

// ------------------------------------------- duration bound monotonicity

class DurationBoundMonotone : public ::testing::TestWithParam<int> {};

TEST_P(DurationBoundMonotone, GrowsWithBurstShrinksWithRate) {
  Rng rng(5000 + GetParam());
  const double q = rng.uniform(1e3, 1e6);
  const double dbeta = rng.uniform(0.05, 2.0);
  const double rf = 9600.0, tmin = 0.08;
  const int m_cap = 64;
  const int u = admission::duration_upper_bound(q, dbeta, rf, tmin, m_cap);
  EXPECT_GE(u, 1);
  EXPECT_LE(u, m_cap);
  // Larger burst -> same-or-larger bound.
  EXPECT_GE(admission::duration_upper_bound(q * 2.0, dbeta, rf, tmin, m_cap), u);
  // Better channel -> same-or-smaller bound.
  EXPECT_LE(admission::duration_upper_bound(q, dbeta * 2.0, rf, tmin, m_cap), u);
  // Tighter minimum duration -> same-or-larger bound (more m allowed? no:
  // smaller tmin allows larger m).
  EXPECT_GE(admission::duration_upper_bound(q, dbeta, rf, tmin / 2.0, m_cap), u);
}

INSTANTIATE_TEST_SUITE_P(Random, DurationBoundMonotone, ::testing::Range(0, 25));

}  // namespace
}  // namespace wcdma
