// Optimisation substrate tests: simplex on known LPs and edge cases, exact
// branch-and-bound verified against exhaustive enumeration on randomized
// instances, the DP knapsack cross-check, and greedy dominance properties.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/common/rng.hpp"
#include "src/opt/branch_bound.hpp"
#include "src/opt/knapsack.hpp"
#include "src/opt/simplex.hpp"

namespace wcdma::opt {
namespace {

using common::Matrix;
using common::Rng;
using common::Vector;

// ---------------------------------------------------------------- simplex

TEST(Simplex, SimpleTwoVariable) {
  // max 3x + 2y st x + y <= 4, x + 3y <= 6 -> optimum at (4,0): 12.
  LpProblem p;
  p.a = Matrix{{1.0, 1.0}, {1.0, 3.0}};
  p.b = {4.0, 6.0};
  p.c = {3.0, 2.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, 1e-9);
  EXPECT_NEAR(r.x[0], 4.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y st 2x + y <= 4, x + 2y <= 4 -> optimum (4/3, 4/3): 8/3.
  LpProblem p;
  p.a = Matrix{{2.0, 1.0}, {1.0, 2.0}};
  p.b = {4.0, 4.0};
  p.c = {1.0, 1.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0 / 3.0, 1e-9);
}

TEST(Simplex, UpperBoundsRespected) {
  LpProblem p;
  p.a = Matrix{{1.0, 1.0}};
  p.b = {100.0};
  p.c = {2.0, 1.0};
  p.upper = {3.0, 4.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);  // x=3, y=4
}

TEST(Simplex, UnboundedDetected) {
  LpProblem p;
  p.a = Matrix{{-1.0}};  // -x <= 1 does not cap x above
  p.b = {1.0};
  p.c = {1.0};
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, InfeasibleByNegativeRhs) {
  // x <= -1 with x >= 0 is infeasible (phase-1 exercise).
  LpProblem p;
  p.a = Matrix{{1.0}};
  p.b = {-1.0};
  p.c = {1.0};
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, NegativeRhsButFeasible) {
  // -x <= -2 (x >= 2) and x <= 5: optimum x = 5.
  LpProblem p;
  p.a = Matrix{{-1.0}, {1.0}};
  p.b = {-2.0, 5.0};
  p.c = {1.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
}

TEST(Simplex, MinimisationViaNegatedCosts) {
  // min x + y st x + y >= 2  ==  max -x -y st -x -y <= -2.
  LpProblem p;
  p.a = Matrix{{-1.0, -1.0}};
  p.b = {-2.0};
  p.c = {-1.0, -1.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-9);
}

TEST(Simplex, DegenerateConstraintsTerminate) {
  // Redundant duplicate rows: classic degeneracy trigger.
  LpProblem p;
  p.a = Matrix{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}};
  p.b = {2.0, 2.0, 2.0, 1.0};
  p.c = {1.0, 1.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(Simplex, EmptyConstraintsWithBounds) {
  LpProblem p;
  p.a = Matrix(0, 2, 0.0);
  p.b = {};
  p.c = {1.0, 2.0};
  p.upper = {2.0, 2.0};
  const LpResult r = solve_lp(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);
}

TEST(Simplex, SolutionAlwaysFeasible) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(4);
    const std::size_t m = 1 + rng.uniform_int(4);
    LpProblem p;
    p.a = Matrix(m, n, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < n; ++c) p.a(r, c) = rng.uniform(0.0, 2.0);
    }
    p.b.resize(m);
    for (auto& b : p.b) b = rng.uniform(0.5, 5.0);
    p.c.resize(n);
    for (auto& c : p.c) c = rng.uniform(0.0, 3.0);
    p.upper.assign(n, 10.0);
    const LpResult r = solve_lp(p);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(common::satisfies(p.a, r.x, p.b, 1e-7));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(r.x[j], -1e-9);
      EXPECT_LE(r.x[j], 10.0 + 1e-7);
    }
  }
}

// ---------------------------------------------------------------- B&B

IntegerProgram random_ip(Rng& rng, std::size_t n, std::size_t k, int max_u) {
  IntegerProgram p;
  p.a = Matrix(k, n, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      p.a(r, c) = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.1, 2.0);
    }
  }
  p.b.resize(k);
  for (auto& b : p.b) b = rng.uniform(1.0, 8.0);
  p.c.resize(n);
  for (auto& c : p.c) c = rng.uniform(0.1, 3.0);
  p.upper.assign(n, 0);
  for (auto& u : p.upper) u = 1 + static_cast<int>(rng.uniform_int(max_u));
  return p;
}

double brute_force(const IntegerProgram& p, double tol = 1e-9) {
  const std::size_t n = p.c.size();
  std::vector<int> x(n, 0);
  double best = 0.0;
  std::function<void(std::size_t)> rec = [&](std::size_t j) {
    if (j == n) {
      if (ip_feasible(p, x, tol)) best = std::max(best, ip_objective(p, x));
      return;
    }
    for (int v = 0; v <= p.upper[j]; ++v) {
      x[j] = v;
      rec(j + 1);
    }
    x[j] = 0;
  };
  rec(0);
  return best;
}

class BranchBoundVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BranchBoundVsBruteForce, MatchesExhaustiveEnumeration) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 2 + rng.uniform_int(4);   // 2..5 variables
  const std::size_t k = 1 + rng.uniform_int(3);   // 1..3 constraints
  const IntegerProgram p = random_ip(rng, n, k, 4);
  const IpResult r = BranchBoundSolver().solve(p);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_TRUE(ip_feasible(p, r.x));
  EXPECT_NEAR(r.objective, brute_force(p), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BranchBoundVsBruteForce,
                         ::testing::Range(0, 40));

TEST(BranchBound, LpBoundDominatesIpOptimum) {
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const IntegerProgram p = random_ip(rng, 4, 2, 5);
    const IpResult r = BranchBoundSolver().solve(p);
    EXPECT_GE(r.lp_bound + 1e-6, r.objective);
  }
}

TEST(BranchBound, ZeroCapacityRejectsAll) {
  IntegerProgram p;
  p.a = Matrix{{1.0, 1.0}};
  p.b = {0.0};
  p.c = {1.0, 1.0};
  p.upper = {3, 3};
  const IpResult r = BranchBoundSolver().solve(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
  EXPECT_EQ(r.x, (std::vector<int>{0, 0}));
}

TEST(BranchBound, NegativeRhsIsInfeasibleEvenAtZero) {
  IntegerProgram p;
  p.a = Matrix{{1.0}};
  p.b = {-1.0};
  p.c = {1.0};
  p.upper = {2};
  const IpResult r = BranchBoundSolver().solve(p);
  EXPECT_FALSE(r.feasible);
}

TEST(BranchBound, UnconstrainedTakesUpperBounds) {
  IntegerProgram p;
  p.a = Matrix(0, 3, 0.0);
  p.b = {};
  p.c = {1.0, 2.0, 3.0};
  p.upper = {1, 2, 3};
  const IpResult r = BranchBoundSolver().solve(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 1.0 + 4.0 + 9.0, 1e-9);
}

TEST(BranchBound, ZeroValueVariablesStayZeroCostless) {
  IntegerProgram p;
  p.a = Matrix{{1.0, 1.0}};
  p.b = {5.0};
  p.c = {0.0, 1.0};
  p.upper = {5, 5};
  const IpResult r = BranchBoundSolver().solve(p);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
}

// Two real JABA-SD rounds (the stock hotspot-center preset, 2 requests on
// 19 cells) on which the solver used to spin: a node LP returned a primal a
// hair outside the node's box, branching produced a child equal to its
// parent, and depth-first search re-pushed it until the node limit, then
// returned an unproven answer.  Literal bits, in hex, as the round built
// them.
std::vector<IntegerProgram> spinning_rounds() {
  IntegerProgram round1;
  round1.a = Matrix{
      {0x1.3dbb5db79e956p-31, 0x1.6efcdedcee205p-17},
      {0x1.5624d1444587ap-5, 0.0},
      {0x1.e85402c15310fp-26, 0x1.4ef22df0c4eb2p-14},
      {0x1.c3c24facd5bbfp-32, 0.0},
      {0.0, 0x1.4fa7c90d7df9ap-8},
      {0.0, 0x1.5624d1444586ap-5},
      {0.0, 0.0},
      {0x1.a2efd74de7ab8p-23, 0.0},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0x1.eecb4ac43fb93p-14},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0x1.6555b60e77dffp-11},
      {0x1.10beb9724f46dp-26, 0x1.5e50e34d14cp-10},
      {0x1.b52242cd483dbp-24, 0x1.4b3fabdea38ffp-7},
      {0.0, 0.0},
      {0.0, 0.0},
      {0x1.af04d921867dcp-22, 0.0},
  };
  round1.b = {0.0, 0x1.3c7dd4918e048p-1, 0x1.b9091973550bp-4,
              0.0, 0x1.326826b23ba9cp-2, 0x1.51919857d827cp+0,
              0x1.6eb67b751bd9cp-1, 0x1.51d12c7e75896p-1, 0x1.bd4f8ca21340cp+0,
              0x1.9f889e45f1e58p+0, 0x1.2d188593a992p+0, 0x1.702c537da9fa6p-1,
              0x1.512dd9486eabcp+0, 0x1.f249c07ebd36ap+0, 0x1.15ef8c6c2ec2dp+1,
              0x1.a8f42a512c7eap+0, 0.0, 0x1.0a7b1af8d9fep+0,
              0x1.f19ff77067e5cp+0};
  round1.c = {0x1.89d3d005abf4p-1, 0x1.0dba2d6665954p-1};
  round1.upper = {16, 16};

  IntegerProgram round2;
  round2.a = Matrix{
      {0x1.4f1a96b4364bdp-31, 0x1.bc8ee7e397468p-17},
      {0x1.5624d14445871p-5, 0.0},
      {0x1.721d895c3f17cp-26, 0.0},
      {0x1.411844cf43216p-31, 0x1.0854ee8053ff9p-17},
      {0.0, 0x1.60b848db3ccbdp-7},
      {0.0, 0x1.5624d1444586fp-5},
      {0.0, 0.0},
      {0x1.55c81861c13dbp-23, 0x1.b15467933e412p-13},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0.0},
      {0.0, 0x1.28174164806bap-10},
      {0x1.5c81fb78023dp-26, 0x1.cbac2509b294fp-9},
      {0x1.34df1d971d955p-23, 0x1.0eb978d58b2dfp-7},
      {0.0, 0.0},
      {0.0, 0.0},
      {0x1.79c6d79a83e1bp-21, 0.0},
  };
  round2.b = {0.0, 0x1.74a39ed8b0c54p+0, 0x1.9bfff630b63a4p-2,
              0.0, 0x1.1cadc4c32e62p-1, 0x1.0b84e94750d52p-1,
              0x1.ff752349da4a8p-1, 0x1.aad1203c9d586p+0, 0x1.fe156b97a27f8p+0,
              0x1.f8e852b35a8fcp+0, 0x1.f90d77e179a14p+0, 0x1.e731dcc802116p-1,
              0x1.18c867aa54e5ap+0, 0x1.f16d99fc511bcp+0, 0x1.4128fcf0ad001p+1,
              0x1.17e453c337bc4p+0, 0.0, 0x1.85363720d2cb2p+0,
              0x1.b456aa4b51138p+0};
  round2.c = {0x1.46930ccdb1f48p-1, 0x1.03d5845113675p-1};
  round2.upper = {16, 16};
  return {round1, round2};
}

TEST(BranchBound, RealSpinningRoundsProveTheirOptimum) {
  for (const IntegerProgram& p : spinning_rounds()) {
    const IpResult r = BranchBoundSolver().solve(p);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_LE(r.nodes, 200);
    // Rows with b = 0 (a cell already at its budget) forbid every grant.
    // The enumeration checks A x <= b exactly: coefficients near 1e-10 sit
    // below the absolute 1e-9 tolerance, which would admit a grant there.
    EXPECT_TRUE(ip_feasible(p, r.x, 0.0));
    EXPECT_EQ(r.objective, brute_force(p, 0.0));
    EXPECT_GT(r.lp_bound, 10.0);  // the relaxation is far from integral
  }
}

TEST(Greedy, AlwaysFeasible) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const IntegerProgram p = random_ip(rng, 6, 3, 6);
    const std::vector<int> x = greedy_increments(p);
    EXPECT_TRUE(ip_feasible(p, x)) << "trial " << trial;
  }
}

TEST(Greedy, NeverBeatsExact) {
  Rng rng(88);
  for (int trial = 0; trial < 50; ++trial) {
    const IntegerProgram p = random_ip(rng, 5, 2, 4);
    const double greedy_obj = ip_objective(p, greedy_increments(p));
    const IpResult exact = BranchBoundSolver().solve(p);
    EXPECT_LE(greedy_obj, exact.objective + 1e-9);
  }
}

TEST(Greedy, NearOptimalOnPackingInstances) {
  // The polynomial JABA-SD engine should typically land within a few
  // percent of the exact optimum on admission-like instances.
  Rng rng(99);
  double total_gap = 0.0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    const IntegerProgram p = random_ip(rng, 8, 3, 8);
    const double greedy_obj = ip_objective(p, greedy_increments(p));
    const IpResult exact = BranchBoundSolver().solve(p);
    if (exact.objective > 0.0) total_gap += 1.0 - greedy_obj / exact.objective;
  }
  EXPECT_LT(total_gap / trials, 0.10);
}

// ---------------------------------------------------------------- knapsack

TEST(Knapsack, KnownSmallInstance) {
  // Items: (w=2, v=3, u=2), (w=3, v=4, u=1); cap 7 -> 2x item0 + 1x item1 = 10.
  const KnapsackResult r =
      solve_bounded_knapsack({2, 3}, 7, {3.0, 4.0}, {2, 1});
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
  EXPECT_EQ(r.x, (std::vector<int>{2, 1}));
}

TEST(Knapsack, ZeroWeightItemsTakenFully) {
  const KnapsackResult r = solve_bounded_knapsack({0, 5}, 4, {1.0, 10.0}, {3, 2});
  EXPECT_EQ(r.x[0], 3);
  EXPECT_EQ(r.x[1], 0);  // weight 5 > cap 4
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(Knapsack, MatchesBranchBoundOnIntegerWeights) {
  Rng rng(111);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(5);
    std::vector<std::int64_t> w(n);
    std::vector<double> v(n);
    std::vector<int> u(n);
    for (std::size_t j = 0; j < n; ++j) {
      w[j] = 1 + static_cast<std::int64_t>(rng.uniform_int(9));
      v[j] = rng.uniform(0.1, 5.0);
      u[j] = 1 + static_cast<int>(rng.uniform_int(4));
    }
    const std::int64_t cap = 5 + static_cast<std::int64_t>(rng.uniform_int(30));

    IntegerProgram p;
    p.a = Matrix(1, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) p.a(0, j) = static_cast<double>(w[j]);
    p.b = {static_cast<double>(cap)};
    p.c = v;
    p.upper = u;

    const KnapsackResult kr = solve_bounded_knapsack(w, cap, v, u);
    const IpResult br = BranchBoundSolver().solve(p);
    EXPECT_NEAR(kr.objective, br.objective, 1e-6) << "trial " << trial;
    EXPECT_TRUE(ip_feasible(p, kr.x));
  }
}

TEST(Knapsack, RealWeightWrapperStaysFeasible) {
  Rng rng(131);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4;
    std::vector<double> w(n), v(n);
    std::vector<int> u(n, 5);
    for (std::size_t j = 0; j < n; ++j) {
      w[j] = rng.uniform(0.05, 1.5);
      v[j] = rng.uniform(0.1, 2.0);
    }
    const double cap = 3.0;
    const KnapsackResult r = solve_bounded_knapsack_real(w, cap, v, u, 10000);
    double used = 0.0;
    for (std::size_t j = 0; j < n; ++j) used += w[j] * r.x[j];
    EXPECT_LE(used, cap + 1e-9);
  }
}

TEST(Knapsack, RealWrapperNearOptimal) {
  // With fine resolution the quantised solution matches B&B closely.
  const std::vector<double> w = {0.5, 0.8, 1.1};
  const std::vector<double> v = {1.0, 1.7, 2.1};
  const std::vector<int> u = {4, 4, 4};
  const double cap = 4.0;
  const KnapsackResult kr = solve_bounded_knapsack_real(w, cap, v, u, 100000);

  IntegerProgram p;
  p.a = Matrix(1, 3, 0.0);
  for (std::size_t j = 0; j < 3; ++j) p.a(0, j) = w[j];
  p.b = {cap};
  p.c = v;
  p.upper = u;
  const IpResult br = BranchBoundSolver().solve(p);
  EXPECT_NEAR(kr.objective, br.objective, 0.02 * br.objective);
}

}  // namespace
}  // namespace wcdma::opt
