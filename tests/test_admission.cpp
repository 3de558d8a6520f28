// Core-contribution tests: the measurement sub-layer's admissible regions
// (Eq. 6-18), the J1/J2 objectives with MAC set-up penalties (Eq. 19-24),
// and the scheduler family, including randomized feasibility properties and
// optimality-ordering checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "src/admission/measurement.hpp"
#include "src/admission/objectives.hpp"
#include "src/admission/policy.hpp"
#include "src/admission/region.hpp"
#include "src/admission/schedulers.hpp"
#include "src/common/rng.hpp"

namespace wcdma::admission {
namespace {

using common::Rng;

// ---------------------------------------------------------------- regions

TEST(ForwardRegion, CoefficientMatchesEq8) {
  ForwardLinkInputs in;
  in.p_max_watt = 20.0;
  in.gamma_s = 8.0;
  in.cell_load_watt = {12.0, 5.0};
  in.users.resize(1);
  in.users[0].reduced_active_set = {{0, 0.25}};
  in.users[0].alpha_fl = 1.8;
  const Region r = build_forward_region(in);
  ASSERT_EQ(r.a.rows(), 2u);
  ASSERT_EQ(r.a.cols(), 1u);
  EXPECT_NEAR(r.a(0, 0), 8.0 * 0.25 * 1.8, 1e-12);  // gamma_s * P_jk * alpha
  EXPECT_DOUBLE_EQ(r.a(1, 0), 0.0);                 // not in reduced set
  EXPECT_NEAR(r.b[0], 8.0, 1e-12);                  // P_max - P_k
  EXPECT_NEAR(r.b[1], 15.0, 1e-12);
}

TEST(ForwardRegion, OverloadedCellClampsToZero) {
  ForwardLinkInputs in;
  in.p_max_watt = 10.0;
  in.cell_load_watt = {12.0};  // above P_max already
  in.users.resize(1);
  in.users[0].reduced_active_set = {{0, 0.1}};
  const Region r = build_forward_region(in);
  EXPECT_DOUBLE_EQ(r.b[0], 0.0);  // m = 0 stays feasible; nothing admitted
  EXPECT_TRUE(r.admits({0}));
  EXPECT_FALSE(r.admits({1}));
}

TEST(ForwardRegion, MultiLegUserLoadsBothCells) {
  ForwardLinkInputs in;
  in.p_max_watt = 20.0;
  in.gamma_s = 2.0;
  in.cell_load_watt = {10.0, 10.0};
  in.users.resize(1);
  in.users[0].reduced_active_set = {{0, 0.3}, {1, 0.2}};
  const Region r = build_forward_region(in);
  EXPECT_GT(r.a(0, 0), 0.0);
  EXPECT_GT(r.a(1, 0), 0.0);
}

TEST(ReverseRegion, ShoCoefficientMatchesEq18) {
  ReverseLinkInputs in;
  in.l_max_watt = 4.0e-13;
  in.gamma_s = 8.0;
  in.kappa = 1.585;
  in.cell_interference_watt = {1.0e-13, 2.0e-13};
  in.users.resize(1);
  auto& u = in.users[0];
  u.zeta = 2.0;
  u.alpha_rl = 0.8;
  u.soft_handoff = {{0, 0.01}};
  u.scrm_pilots = {{0, 0.05}, {1, 0.02}};
  const Region r = build_reverse_region(in);
  ASSERT_EQ(r.a.rows(), 2u);
  // SHO row: gamma_s * zeta * xi_rl * alpha = 8 * 2 * 0.01 * 0.8.
  EXPECT_NEAR(r.a(0, 0), 0.128, 1e-12);
  // Neighbour row: SHO coeff * (xi_fl'/xi_fl_host) * kappa * (L_host/L_k').
  EXPECT_NEAR(r.a(1, 0), 0.128 * (0.02 / 0.05) * 1.585 * (1.0e-13 / 2.0e-13), 1e-12);
  // RHS: L_max / L_k - 1.
  EXPECT_NEAR(r.b[0], 3.0, 1e-9);
  EXPECT_NEAR(r.b[1], 1.0, 1e-9);
}

TEST(ReverseRegion, MissingHostPilotSkipsProjection) {
  ReverseLinkInputs in;
  in.l_max_watt = 4.0e-13;
  in.cell_interference_watt = {1.0e-13, 1.0e-13};
  in.users.resize(1);
  auto& u = in.users[0];
  u.soft_handoff = {{0, 0.01}};
  u.scrm_pilots = {{1, 0.02}};  // host (cell 0) pilot absent
  const Region r = build_reverse_region(in);
  EXPECT_GT(r.a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.a(1, 0), 0.0);
}

TEST(ReverseRegion, OverloadedCellClamps) {
  ReverseLinkInputs in;
  in.l_max_watt = 1.0e-13;
  in.cell_interference_watt = {2.0e-13};  // rise already above cap
  in.users.resize(1);
  in.users[0].soft_handoff = {{0, 0.01}};
  in.users[0].scrm_pilots = {{0, 0.05}};
  const Region r = build_reverse_region(in);
  EXPECT_DOUBLE_EQ(r.b[0], 0.0);
}

TEST(Region, AdmitsChecksEveryRow) {
  Region r;
  r.a = common::Matrix{{1.0, 0.0}, {0.0, 2.0}};
  r.b = {1.0, 2.0};
  EXPECT_TRUE(r.admits({1, 1}));
  EXPECT_FALSE(r.admits({2, 0}));  // first row
  EXPECT_FALSE(r.admits({0, 2}));  // second row
}

TEST(Region, AdmitsRejectsNegativeAssignments) {
  Region a;
  a.a = common::Matrix{{1.0}};
  a.b = {10.0};
  EXPECT_FALSE(a.admits({-1}));
}

// ---------------------------------------------------------------- objectives

mac::MacTimersConfig timers() { return {}; }

TEST(Objectives, J1CoefficientIsWeightedRate) {
  RequestView r;
  r.delta_beta = 1.5;
  r.priority = 0.5;
  const auto c = objective_coefficients({r}, ObjectiveKind::kJ1MaxRate, {}, timers());
  EXPECT_NEAR(c[0], 1.5 * 1.5, 1e-12);  // dbeta * (1 + Delta)
}

TEST(Objectives, J2AddsWaitingBoost) {
  RequestView fresh, stale;
  fresh.delta_beta = stale.delta_beta = 1.0;
  fresh.waiting_s = 0.0;
  stale.waiting_s = 20.0;
  DelayPenaltyConfig penalty;
  const auto c = objective_coefficients({fresh, stale}, ObjectiveKind::kJ2DelayAware,
                                        penalty, timers());
  EXPECT_GT(c[1], c[0]);
  // Boost saturates at lambda.
  EXPECT_LE(c[1], 1.0 * (1.0 + penalty.lambda) + 1e-9);
}

TEST(Objectives, J2EqualsJ1AtZeroWaitZeroSetup) {
  RequestView r;
  r.delta_beta = 2.0;
  r.waiting_s = 0.0;
  const auto j1 = objective_coefficients({r}, ObjectiveKind::kJ1MaxRate, {}, timers());
  const auto j2 =
      objective_coefficients({r}, ObjectiveKind::kJ2DelayAware, {}, timers());
  EXPECT_NEAR(j1[0], j2[0], 1e-12);
}

TEST(Objectives, J2MonotoneInWaitingTime) {
  DelayPenaltyConfig penalty;
  double prev = -1.0;
  for (double w = 0.0; w <= 30.0; w += 1.0) {
    RequestView r;
    r.delta_beta = 1.0;
    r.waiting_s = w;
    const auto c =
        objective_coefficients({r}, ObjectiveKind::kJ2DelayAware, penalty, timers());
    EXPECT_GE(c[0], prev);
    prev = c[0];
  }
}

TEST(Objectives, MacSetupPenaltyEntersJ2) {
  // Crossing T2 adds D1 to the effective delay -> strictly larger boost.
  DelayPenaltyConfig penalty;
  RequestView just_below, just_above;
  just_below.delta_beta = just_above.delta_beta = 1.0;
  just_below.waiting_s = 1.99;
  just_above.waiting_s = 2.00;  // T2: setup penalty D1 kicks in
  const auto c = objective_coefficients({just_below, just_above},
                                        ObjectiveKind::kJ2DelayAware, penalty, timers());
  const double gap_without_penalty =
      (1.0 - std::exp(-penalty.mu * 2.0)) - (1.0 - std::exp(-penalty.mu * 1.99));
  EXPECT_GT(c[1] - c[0], penalty.lambda * gap_without_penalty);
}

TEST(DelayPenalty, ShapeProperties) {
  DelayPenaltyConfig penalty;
  // Zero at full rate grant.
  EXPECT_DOUBLE_EQ(delay_penalty(penalty, 5.0, 4.0, 4.0), 0.0);
  // Zero at zero wait.
  EXPECT_DOUBLE_EQ(delay_penalty(penalty, 0.0, 1.0, 4.0), 0.0);
  // Decreasing in granted rate.
  EXPECT_GT(delay_penalty(penalty, 5.0, 1.0, 4.0), delay_penalty(penalty, 5.0, 3.0, 4.0));
  // Increasing in waiting time.
  EXPECT_GT(delay_penalty(penalty, 9.0, 1.0, 4.0), delay_penalty(penalty, 1.0, 1.0, 4.0));
  // Linear in r: f(w, r) - f(w, r') proportional to r' - r.
  const double f0 = delay_penalty(penalty, 3.0, 0.0, 4.0);
  const double f2 = delay_penalty(penalty, 3.0, 2.0, 4.0);
  const double f4 = delay_penalty(penalty, 3.0, 4.0, 4.0);
  EXPECT_NEAR(f0 - f2, f2 - f4, 1e-12);
}

TEST(DurationBound, Eq24Arithmetic) {
  // Q = 192 kbit, dbeta = 1, Rf = 9600, Tmin = 0.08 -> cap = 250 -> M caps.
  EXPECT_EQ(duration_upper_bound(192000.0, 1.0, 9600.0, 0.080, 16), 16);
  // Small burst: Q = 3840 bits -> cap = 5.
  EXPECT_EQ(duration_upper_bound(3840.0, 1.0, 9600.0, 0.080, 16), 5);
  // Tiny burst clamps up to 1 (stay servable).
  EXPECT_EQ(duration_upper_bound(100.0, 1.0, 9600.0, 0.080, 16), 1);
  // Better channel (higher dbeta) lowers the bound: same duration at less m
  // (M = 64 so neither side clamps).
  EXPECT_LT(duration_upper_bound(38400.0, 2.0, 9600.0, 0.080, 64),
            duration_upper_bound(38400.0, 1.0, 9600.0, 0.080, 64));
}

TEST(DurationBound, BurstDurationIdentity) {
  // duration(m = u) >= T_min by construction of the bound (when u not clamped).
  const double q = 50000.0, dbeta = 1.3, rf = 9600.0, tmin = 0.08;
  const int u = duration_upper_bound(q, dbeta, rf, tmin, 16);
  if (u > 1) {
    EXPECT_GE(burst_duration_s(q, u, dbeta, rf), tmin - 1e-9);
  }
  EXPECT_DOUBLE_EQ(burst_duration_s(q, 0, dbeta, rf), 0.0);
  // Doubling m halves the duration.
  EXPECT_NEAR(burst_duration_s(q, 2, dbeta, rf) * 2.0, burst_duration_s(q, 1, dbeta, rf),
              1e-9);
}

// ---------------------------------------------------------------- problems

BurstProblem random_problem(Rng& rng, std::size_t nd, std::size_t cells) {
  Region region;
  region.a = common::Matrix(cells, nd, 0.0);
  for (std::size_t k = 0; k < cells; ++k) {
    for (std::size_t j = 0; j < nd; ++j) {
      region.a(k, j) = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.05, 1.0);
    }
  }
  region.b.resize(cells);
  for (auto& b : region.b) b = rng.uniform(0.5, 6.0);

  std::vector<RequestView> requests(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    requests[j].user = static_cast<int>(j);
    requests[j].q_bits = rng.uniform(2.0e4, 8.0e5);
    requests[j].waiting_s = rng.uniform(0.0, 10.0);
    requests[j].delta_beta = rng.uniform(0.1, 2.0);
    requests[j].priority = rng.bernoulli(0.2) ? 0.5 : 0.0;
  }
  return make_burst_problem(std::move(region), std::move(requests),
                            ObjectiveKind::kJ2DelayAware, {}, {}, 9600.0, 0.080, 16);
}

TEST(BurstProblem, WiresCoefficientsAndBounds) {
  Rng rng(3);
  const BurstProblem p = random_problem(rng, 5, 3);
  EXPECT_EQ(p.c.size(), 5u);
  EXPECT_EQ(p.upper.size(), 5u);
  for (int u : p.upper) {
    EXPECT_GE(u, 1);
    EXPECT_LE(u, 16);
  }
  const auto ip = p.to_ip();
  EXPECT_EQ(ip.a.rows(), 3u);
  EXPECT_EQ(ip.c, p.c);
}

// Feasibility property: every scheduler's output satisfies the admissible
// region and per-request bounds on randomized instances.
class SchedulerFeasibility
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(SchedulerFeasibility, OutputAlwaysAdmissible) {
  const auto [name, seed] = GetParam();
  Rng rng(seed);
  const std::size_t nd = 1 + rng.uniform_int(10);
  const std::size_t cells = 1 + rng.uniform_int(5);
  const BurstProblem p = random_problem(rng, nd, cells);
  auto scheduler = make_scheduler(name, static_cast<std::uint64_t>(seed));
  const Allocation a = scheduler->schedule(p);
  ASSERT_EQ(a.m.size(), nd);
  EXPECT_TRUE(p.region.admits(a.m));
  for (std::size_t j = 0; j < nd; ++j) {
    EXPECT_GE(a.m[j], 0);
    EXPECT_LE(a.m[j], p.upper[j]);
  }
  // Reported objective must match the assignment.
  double obj = 0.0;
  for (std::size_t j = 0; j < nd; ++j) obj += p.c[j] * a.m[j];
  EXPECT_NEAR(a.objective, obj, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerFeasibility,
    ::testing::Combine(::testing::Values("jaba-sd", "jaba-sd-greedy", "fcfs",
                                         "fcfs-single", "equal-share", "random"),
                       ::testing::Range(1, 13)));

// Optimality ordering: exact JABA-SD dominates every baseline on the same
// problem (it maximises the same objective over the same feasible set).
class JabaDominance : public ::testing::TestWithParam<int> {};

TEST_P(JabaDominance, ExactBeatsBaselines) {
  Rng rng(500 + GetParam());
  const BurstProblem p = random_problem(rng, 2 + rng.uniform_int(8), 1 + rng.uniform_int(4));
  JabaSdScheduler jaba;
  const Allocation best = jaba.schedule(p);
  ASSERT_TRUE(best.proven_optimal);
  for (const char* name :
       {"jaba-sd-greedy", "fcfs", "fcfs-single", "equal-share", "random"}) {
    auto sched = make_scheduler(name, 42);
    EXPECT_LE(sched->schedule(p).objective, best.objective + 1e-9) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, JabaDominance, ::testing::Range(0, 20));

TEST(FcfsScheduler, ServesLongestWaitingFirst) {
  // One resource unit; the older request must win it.
  Region region;
  region.a = common::Matrix{{1.0, 1.0}};
  region.b = {4.0};
  std::vector<RequestView> requests(2);
  requests[0].user = 0;
  requests[0].q_bits = 1e6;
  requests[0].waiting_s = 0.1;  // newer
  requests[0].delta_beta = 1.0;
  requests[1].user = 1;
  requests[1].q_bits = 1e6;
  requests[1].waiting_s = 5.0;  // older
  requests[1].delta_beta = 1.0;
  const BurstProblem p = make_burst_problem(region, requests, ObjectiveKind::kJ1MaxRate,
                                            {}, {}, 9600.0, 0.080, 16);
  FcfsScheduler fcfs;
  const Allocation a = fcfs.schedule(p);
  EXPECT_EQ(a.m[1], 4);  // older request takes everything
  EXPECT_EQ(a.m[0], 0);
}

TEST(FcfsScheduler, SingleBurstGrantsExactlyOne) {
  Region region;
  region.a = common::Matrix{{0.1, 0.1, 0.1}};
  region.b = {100.0};  // room for everyone
  std::vector<RequestView> requests(3);
  for (int j = 0; j < 3; ++j) {
    requests[j].user = j;
    requests[j].q_bits = 1e6;
    requests[j].waiting_s = j;  // user 2 oldest
    requests[j].delta_beta = 1.0;
  }
  const BurstProblem p = make_burst_problem(region, requests, ObjectiveKind::kJ1MaxRate,
                                            {}, {}, 9600.0, 0.080, 16);
  FcfsScheduler fcfs(/*single_burst=*/true);
  const Allocation a = fcfs.schedule(p);
  EXPECT_EQ(a.granted_count(), 1);
  EXPECT_GT(a.m[2], 0);
}

TEST(EqualShareScheduler, UniformGrants) {
  Region region;
  region.a = common::Matrix{{1.0, 1.0, 1.0}};
  region.b = {9.0};
  std::vector<RequestView> requests(3);
  for (int j = 0; j < 3; ++j) {
    requests[j].user = j;
    requests[j].q_bits = 1e6;
    requests[j].waiting_s = 1.0;
    requests[j].delta_beta = 1.0;
  }
  const BurstProblem p = make_burst_problem(region, requests, ObjectiveKind::kJ1MaxRate,
                                            {}, {}, 9600.0, 0.080, 16);
  EqualShareScheduler eq;
  const Allocation a = eq.schedule(p);
  EXPECT_EQ(a.m, (std::vector<int>{3, 3, 3}));
}

TEST(EqualShareScheduler, ShrinksServedSetWhenTight) {
  // Capacity for only one unit: serve the longest-waiting request alone.
  Region region;
  region.a = common::Matrix{{1.0, 1.0}};
  region.b = {1.0};
  std::vector<RequestView> requests(2);
  requests[0].user = 0;
  requests[0].q_bits = 1e6;
  requests[0].waiting_s = 9.0;
  requests[0].delta_beta = 1.0;
  requests[1].user = 1;
  requests[1].q_bits = 1e6;
  requests[1].waiting_s = 1.0;
  requests[1].delta_beta = 1.0;
  const BurstProblem p = make_burst_problem(region, requests, ObjectiveKind::kJ1MaxRate,
                                            {}, {}, 9600.0, 0.080, 16);
  EqualShareScheduler eq;
  const Allocation a = eq.schedule(p);
  EXPECT_EQ(a.m[0], 1);
  EXPECT_EQ(a.m[1], 0);
}

TEST(RandomScheduler, DeterministicPerSeedStream) {
  Rng rng(9);
  const BurstProblem p = random_problem(rng, 6, 3);
  RandomScheduler a(common::Rng(5)), b(common::Rng(5));
  EXPECT_EQ(a.schedule(p).m, b.schedule(p).m);
}

TEST(Schedulers, EmptyProblemYieldsEmptyAllocation) {
  BurstProblem p;
  for (const char* name :
       {"jaba-sd", "jaba-sd-greedy", "fcfs", "equal-share", "random"}) {
    auto sched = make_scheduler(name, 1);
    const Allocation a = sched->schedule(p);
    EXPECT_TRUE(a.m.empty());
    EXPECT_DOUBLE_EQ(a.objective, 0.0);
  }
}

TEST(Schedulers, ZeroCapacityGrantsNothing) {
  Region region;
  region.a = common::Matrix{{1.0, 1.0}};
  region.b = {0.0};
  std::vector<RequestView> requests(2);
  for (int j = 0; j < 2; ++j) {
    requests[j].user = j;
    requests[j].q_bits = 1e5;
    requests[j].waiting_s = 1.0;
    requests[j].delta_beta = 1.0;
  }
  const BurstProblem p = make_burst_problem(region, requests, ObjectiveKind::kJ1MaxRate,
                                            {}, {}, 9600.0, 0.080, 16);
  for (const std::string& name : policy_names()) {
    auto sched = make_scheduler(name, 1);
    EXPECT_EQ(sched->schedule(p).granted_count(), 0) << name;
  }
}

TEST(Schedulers, RegistryLabelsAreDistinct) {
  std::set<std::string> labels;
  for (const std::string& name : policy_names()) {
    EXPECT_TRUE(labels.insert(policy_label(name)).second) << name;
  }
  EXPECT_EQ(policy_label("jaba-sd"), "JABA-SD");
  EXPECT_EQ(policy_label("equal-share"), "EqualShare");
  EXPECT_EQ(policy_label("fcfs-single"), "FCFS-single");
}

}  // namespace
}  // namespace wcdma::admission
