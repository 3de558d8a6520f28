// Tests for the pluggable admission-policy and channel-state-provider seams:
// registry round-trips and unknown-name rejection, bit-identity of the
// default policy against golden metrics pinned on the refmath reference (a
// shrunk E5 run and a 19-cell default run on `exhaustive`, the same 19-cell
// world on `culled`), exhaustive-vs-culled metric equivalence on
// uniform-hex7, and the inter-carrier hand-down policy both on a synthetic
// FrameContext and through the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <typeinfo>

#include "src/admission/policy.hpp"
#include "src/scenario/experiments.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma {
namespace {

TEST(PolicyRegistry, RoundTripsEveryRegisteredName) {
  // Every row in registry order: its name, the label the sweep's
  // `scheduler` column prints, the scheduler it builds, and whether the
  // hand-down pass runs on top.
  struct Row {
    const char* name;
    const char* label;
    const std::type_info& scheduler;
    bool hand_down;
  };
  const Row rows[] = {
      {"jaba-sd", "JABA-SD", typeid(admission::JabaSdScheduler), false},
      {"jaba-sd-greedy", "JABA-SD-greedy", typeid(admission::GreedyScheduler), false},
      {"fcfs", "FCFS", typeid(admission::FcfsScheduler), false},
      {"fcfs-single", "FCFS-single", typeid(admission::FcfsScheduler), false},
      {"equal-share", "EqualShare", typeid(admission::EqualShareScheduler), false},
      {"random", "Random", typeid(admission::RandomScheduler), false},
      {"hand-down", "HandDown", typeid(admission::JabaSdScheduler), true},
  };
  const std::vector<std::string> names = admission::policy_names();
  ASSERT_EQ(names.size(), std::size(rows));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Row& row = rows[i];
    SCOPED_TRACE(row.name);
    EXPECT_EQ(names[i], row.name);
    EXPECT_TRUE(admission::has_policy(row.name));
    EXPECT_FALSE(admission::policy_description(row.name).empty());
    EXPECT_EQ(admission::policy_label(row.name), row.label);
    const auto scheduler = admission::make_scheduler(row.name, 7);
    ASSERT_NE(scheduler, nullptr);
    const admission::Scheduler& built = *scheduler;
    EXPECT_EQ(typeid(built), row.scheduler);
    const auto policy = admission::make_policy(row.name, 7);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(dynamic_cast<admission::HandDownPolicy*>(policy.get()) != nullptr,
              row.hand_down);
  }
  EXPECT_FALSE(admission::has_policy("no-such-policy"));
  EXPECT_FALSE(admission::has_policy(""));
}

TEST(ChannelProviderRegistry, RoundTripsEveryRegisteredName) {
  const std::vector<std::string> names = sim::channel_provider_names();
  ASSERT_EQ(names, (std::vector<std::string>{"exhaustive", "culled"}));
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(sim::has_channel_provider(name));
    EXPECT_FALSE(sim::channel_provider_description(name).empty());
    const sim::ChannelProvider* row = sim::find_channel_provider(name);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->name, name);
    // Only the reference steps every cell.
    EXPECT_EQ(row->culls, name != "exhaustive");
  }
  EXPECT_FALSE(sim::has_channel_provider("no-such-provider"));
  EXPECT_EQ(sim::find_channel_provider("no-such-provider"), nullptr);
}

TEST(PolicyRegistry, SimulatorReportsItsConfiguredPolicy) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = 1;
  cfg.voice.users = 4;
  cfg.data.users = 2;
  cfg.sim_duration_s = 2.0;
  cfg.warmup_s = 0.5;
  cfg.admission.policy = "fcfs";
  const sim::Simulator simulator(cfg);
  // Registry keys, so the names round-trip through make_policy().
  EXPECT_EQ(simulator.policy_name(), "fcfs");
  EXPECT_TRUE(admission::has_policy(simulator.policy_name()));
  EXPECT_EQ(simulator.channel_provider_name(), "exhaustive");
  EXPECT_TRUE(sim::has_channel_provider(simulator.channel_provider_name()));
}

// --- Golden bit-identity: default policy + exhaustive provider ------------
// Values pinned on the refmath reference (src/common/refmath.hpp), whose bits
// are the same on every x86-64 host and C library.  They moved once, by ULPs
// in continuous fields only, when the reference stopped calling libm
// (CHANGES.md lists old and new values); a refactor must not perturb a
// single bit.

TEST(GoldenMetrics, ShrunkE5RunIsBitIdenticalToPreRefactor) {
  sweep::SweepSpec spec = scenario::e5_delay_rl();
  spec.base.voice.users = 10;
  spec.base.sim_duration_s = 8.0;
  spec.base.warmup_s = 2.0;
  spec.axes = {sweep::axis_data_users({4, 8}),
               sweep::axis_scheduler({"jaba-sd"})};
  spec.replications = 2;
  const sweep::SweepResult r = sweep::run_sweep(spec, 0);
  ASSERT_EQ(r.scenarios.size(), 2u);

  EXPECT_EQ(r.scenarios[0].merged.mean_delay_s(), 3.377499999999976);
  EXPECT_EQ(r.scenarios[0].merged.data_bits_delivered, 566053.76816169848);
  EXPECT_EQ(r.scenarios[0].merged.grants, 12);
  EXPECT_EQ(r.scenarios[0].merged.requests_seen, 11);
  EXPECT_EQ(r.scenarios[0].merged.granted_sgr.mean(), 10.166666666666666);
  EXPECT_EQ(r.scenarios[0].merged.queue_delay_s.mean(), 0.92833333333332868);

  EXPECT_EQ(r.scenarios[1].merged.mean_delay_s(), 3.7963636363636124);
  EXPECT_EQ(r.scenarios[1].merged.data_bits_delivered, 722632.86752643716);
  EXPECT_EQ(r.scenarios[1].merged.grants, 16);
  EXPECT_EQ(r.scenarios[1].merged.requests_seen, 16);
  EXPECT_EQ(r.scenarios[1].merged.granted_sgr.mean(), 8.4375);
  EXPECT_EQ(r.scenarios[1].merged.queue_delay_s.mean(), 1.9474999999999889);
}

// grant_rate() is a rate: `grants` also counts requests that arrived during
// warm-up (the first scenario above makes 12 grants for 11 requests), so the
// rate divides the grants of post-warm-up requests instead.
TEST(GrantRate, ShrunkE5RateIsAtMostOne) {
  sweep::SweepSpec spec = scenario::e5_delay_rl();
  spec.base.voice.users = 10;
  spec.base.sim_duration_s = 8.0;
  spec.base.warmup_s = 2.0;
  spec.axes = {sweep::axis_data_users({4, 8}),
               sweep::axis_scheduler({"jaba-sd"})};
  spec.replications = 2;
  const sweep::SweepResult r = sweep::run_sweep(spec, 0);
  ASSERT_EQ(r.scenarios.size(), 2u);
  for (const sweep::ScenarioResult& s : r.scenarios) {
    SCOPED_TRACE(s.index);
    const sim::SimMetrics& m = s.merged;
    ASSERT_GT(m.requests_seen, 0);
    EXPECT_GT(m.requests_granted, 0);
    EXPECT_LE(m.requests_granted, m.grants);
    EXPECT_LE(m.requests_granted, m.requests_seen);
    EXPECT_LE(m.grant_rate(), 1.0);
  }
}

// Multi-master-seed golden coverage: the single reference pin above runs
// one seed, so a stream-discipline bug that only shifts *other* seeds'
// trajectories (e.g. an extra RNG draw gated on a seed-dependent branch)
// could slip through.  Three more master seeds, same shrunk E5 point,
// pinned bit-exactly on the refmath reference.
TEST(GoldenMetrics, ShrunkE5IsBitIdenticalAcrossThreeMasterSeeds) {
  struct Golden {
    std::uint64_t seed;
    double mean_delay_s, data_bits_delivered;
    std::int64_t grants, requests_seen;
    double granted_sgr_mean, queue_delay_mean_s;
  };
  const Golden kGolden[] = {
      {101, 3.4285714285714093, 611234.20982430724, 13, 11,
       8.615384615384615, 1.9984615384615179},
      {7777, 2.4359999999999769, 662236.89127396664, 15, 15,
       12.0, 1.2426666666666537},
      {424242, 2.3490909090908931, 683549.18727082247, 15, 14,
       12.466666666666667, 1.6706666666666505},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    sweep::SweepSpec spec = scenario::e5_delay_rl();
    spec.base.seed = g.seed;
    spec.base.voice.users = 10;
    spec.base.sim_duration_s = 8.0;
    spec.base.warmup_s = 2.0;
    spec.axes = {sweep::axis_data_users({6}),
                 sweep::axis_scheduler({"jaba-sd"})};
    spec.replications = 2;
    const sweep::SweepResult r = sweep::run_sweep(spec, 0);
    ASSERT_EQ(r.scenarios.size(), 1u);
    const sim::SimMetrics& m = r.scenarios[0].merged;
    EXPECT_EQ(m.mean_delay_s(), g.mean_delay_s);
    EXPECT_EQ(m.data_bits_delivered, g.data_bits_delivered);
    EXPECT_EQ(m.grants, g.grants);
    EXPECT_EQ(m.requests_seen, g.requests_seen);
    EXPECT_EQ(m.granted_sgr.mean(), g.granted_sgr_mean);
    EXPECT_EQ(m.queue_delay_s.mean(), g.queue_delay_mean_s);
  }
}

TEST(GoldenMetrics, DefaultNineteenCellRunIsBitIdenticalToPreRefactor) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.voice.users = 24;
  cfg.data.users = 10;
  cfg.sim_duration_s = 10.0;
  cfg.warmup_s = 2.0;
  cfg.data.mean_reading_s = 1.0;
  cfg.seed = 777;
  sim::Simulator simulator(cfg);
  const sim::SimMetrics m = simulator.run();
  EXPECT_EQ(m.mean_delay_s(), 2.4247619047618771);
  EXPECT_EQ(m.data_bits_delivered, 1822960.2476650341);
  EXPECT_EQ(m.grants, 19);
  EXPECT_EQ(m.requests_seen, 20);
  EXPECT_EQ(m.granted_sgr.mean(), 15.368421052631579);
  EXPECT_EQ(m.reverse_rise_db.mean(), 1.9151694279634317);
  EXPECT_EQ(m.forward_load_fraction.mean(), 0.22418013411970061);
  EXPECT_EQ(m.carrier_hand_downs, 0);
}

// The same 19-cell world on `culled`: with the default 3-radius cull some
// cells fall outside each user's candidate set, so the run reaches the
// far-field aggregates and candidate sets that change as users move.  Two
// master seeds, pinned on the refmath reference like the cases above.
TEST(GoldenMetrics, CulledNineteenCellRunIsBitIdenticalToPreRefactor) {
  struct Golden {
    std::uint64_t seed;
    double mean_delay_s, data_bits_delivered;
    std::int64_t grants, requests_seen;
    double granted_sgr_mean, reverse_rise_db_mean, forward_load_fraction_mean;
  };
  const Golden kGolden[] = {
      {777, 2.2752380952380711, 1865897.942067791, 21, 21, 15.523809523809526,
       1.9758286666549241, 0.22471567248915755},
      {20261, 1.8751999999999718, 1480650.6129311596, 26, 28, 16.0,
       1.632904318430682, 0.23836623995059825},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    sim::SystemConfig cfg = sim::default_config();
    cfg.voice.users = 24;
    cfg.data.users = 10;
    cfg.sim_duration_s = 10.0;
    cfg.warmup_s = 2.0;
    cfg.data.mean_reading_s = 1.0;
    cfg.seed = g.seed;
    cfg.csi.provider = "culled";
    sim::Simulator simulator(cfg);
    const sim::SimMetrics m = simulator.run();
    ASSERT_EQ(simulator.num_cells(), 19u);
    EXPECT_TRUE(simulator.far_field_active());
    EXPECT_GT(simulator.csi_candidate_epoch(), 1u);
    EXPECT_EQ(m.mean_delay_s(), g.mean_delay_s);
    EXPECT_EQ(m.data_bits_delivered, g.data_bits_delivered);
    EXPECT_EQ(m.grants, g.grants);
    EXPECT_EQ(m.requests_seen, g.requests_seen);
    EXPECT_EQ(m.granted_sgr.mean(), g.granted_sgr_mean);
    EXPECT_EQ(m.reverse_rise_db.mean(), g.reverse_rise_db_mean);
    EXPECT_EQ(m.forward_load_fraction.mean(), g.forward_load_fraction_mean);
    EXPECT_EQ(m.carrier_hand_downs, 0);
  }
}

// --- Exhaustive vs culled provider equivalence ----------------------------

TEST(ChannelProviders, CulledMatchesExhaustiveOnUniformHex7) {
  scenario::ScenarioLayout layout = scenario::uniform_hex7();
  layout.sim_duration_s = 20.0;
  layout.warmup_s = 4.0;
  sim::SystemConfig cfg = layout.to_config();

  cfg.csi.provider = "exhaustive";
  const sim::SimMetrics ex = sim::Simulator(cfg).run();
  cfg.csi.provider = "culled";
  const sim::SimMetrics cu = sim::Simulator(cfg).run();

  ASSERT_GT(ex.burst_delay_s.count(), 0u);
  ASSERT_GT(cu.burst_delay_s.count(), 0u);
  // Culling drops only far-cell interference terms; headline metrics must
  // agree within statistical tolerance (measured margins are ~2x tighter).
  EXPECT_NEAR(cu.mean_delay_s(), ex.mean_delay_s(), 0.4 * ex.mean_delay_s());
  EXPECT_NEAR(cu.data_throughput_bps(), ex.data_throughput_bps(),
              0.2 * ex.data_throughput_bps());
  EXPECT_NEAR(cu.granted_sgr.mean(), ex.granted_sgr.mean(),
              0.2 * ex.granted_sgr.mean());
  EXPECT_NEAR(cu.grant_rate(), ex.grant_rate(), 0.2);
  EXPECT_NEAR(cu.reverse_rise_db.mean(), ex.reverse_rise_db.mean(), 1.0);
  EXPECT_NEAR(cu.sch_outage_rate(), ex.sch_outage_rate(), 0.1);
}

TEST(ChannelProviders, CulledKeepsPowerInvariants) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.voice.users = 20;
  cfg.data.users = 8;
  cfg.sim_duration_s = 4.0;
  cfg.warmup_s = 1.0;
  cfg.csi.provider = "culled";
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    for (std::size_t k = 0; k < simulator.num_cells(); ++k) {
      EXPECT_LE(simulator.forward_power_w(k), cfg.radio.bs_max_power_w + 1e-9);
      EXPECT_GE(simulator.reverse_interference_w(k), simulator.thermal_noise_w());
    }
  }
}

// --- Hand-down policy -----------------------------------------------------

/// Synthetic context: one cell, two carriers; carrier 0's PA is at the cap,
/// carrier 1 idles.  Only the policy API can express the resulting grant.
admission::FrameContext overloaded_carrier_context() {
  admission::FrameContext ctx;
  ctx.now_s = 1.0;
  ctx.num_cells = 1;
  ctx.carriers = 2;
  ctx.p_max_watt = 20.0;
  ctx.forward_load_watt = {20.0, 3.0};        // (cell 0, carrier 0/1)
  ctx.reverse_interference_watt = {1e-12, 1e-13};
  ctx.l_max_watt = 4e-12;

  admission::FrameRequest r;
  r.user = 0;
  r.carrier = 0;
  r.forward = true;
  r.q_bits = 1.0e6;
  r.waiting_s = 0.5;
  r.delta_beta = 1.0;
  r.tx_cap = ctx.max_sgr;
  r.fch_power_watt = 0.5;
  r.reduced_set = {{0, 1.0e-12}};
  ctx.requests.push_back(r);
  return ctx;
}

TEST(HandDownPolicy, MovesRejectedRequestToIdleCarrier) {
  const admission::FrameContext ctx = overloaded_carrier_context();
  const std::vector<std::size_t> round = {0};

  // The plain scheduler policy must reject: carrier 0 has zero headroom.
  auto base = admission::make_policy("jaba-sd");
  EXPECT_TRUE(base->decide(ctx, mac::LinkDirection::kForward, 0, round).empty());

  auto hand_down = admission::make_policy("hand-down");
  const std::vector<admission::PolicyGrant> grants =
      hand_down->decide(ctx, mac::LinkDirection::kForward, 0, round);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].request, 0u);
  EXPECT_EQ(grants[0].carrier, 1);  // handed down to the idle carrier
  EXPECT_GT(grants[0].m, 0);
  EXPECT_LE(grants[0].m, ctx.max_sgr);
}

/// Asymmetric reverse rise: two soft-hand-off cells, three carriers.
/// The requesting mobile's PRIMARY leg (cell 0) sees the lowest
/// rise on carrier 1, but its secondary leg (cell 1) is nearly at the rise
/// cap there; carrier 2 is quiet at both legs.  Weighing the full reduced
/// set must steer the hand-down to carrier 2, where a primary-cell-only
/// rule would have walked into carrier 1's loaded secondary leg.
admission::FrameContext asymmetric_rise_context() {
  admission::FrameContext ctx;
  ctx.now_s = 1.0;
  ctx.num_cells = 2;
  ctx.carriers = 3;
  ctx.p_max_watt = 20.0;
  ctx.l_max_watt = 4e-12;
  // (cell, carrier) row-major: cell 0 then cell 1.
  ctx.forward_load_watt = {3.0, 3.0, 3.0, 3.0, 3.0, 3.0};
  ctx.reverse_interference_watt = {
      4e-12, 1e-13, 2e-13,   // cell 0: carrier 0 at the cap, c1 quietest
      4e-12, 3.9e-12, 1e-13  // cell 1: carrier 1 nearly at the cap
  };

  admission::FrameRequest r;
  r.user = 0;
  r.carrier = 0;
  r.forward = false;  // reverse burst
  r.q_bits = 1.0e6;
  r.waiting_s = 0.5;
  r.delta_beta = 1.0;
  r.tx_cap = ctx.max_sgr;
  r.pilot_tx_watt = 1e-15;
  r.zeta = 2.0;
  r.alpha_rl = 0.8;
  r.reduced_set = {{0, 0.5}, {1, 0.5}};  // equal-gain legs
  r.scrm_pilots = {{0, 0.5}, {1, 0.5}};
  ctx.requests.push_back(r);
  return ctx;
}

TEST(HandDownPolicy, ReverseHandDownWeighsRiseOverFullReducedSet) {
  const admission::FrameContext ctx = asymmetric_rise_context();
  const std::vector<std::size_t> round = {0};

  // Carrier 0 has zero rise headroom at both legs: the base pass rejects.
  auto base = admission::make_policy("jaba-sd");
  EXPECT_TRUE(base->decide(ctx, mac::LinkDirection::kReverse, 0, round).empty());

  // Gain-weighted rise: carrier 1 averages (1e-13 + 3.9e-12)/2, carrier 2
  // (2e-13 + 1e-13)/2 -- carrier 2 wins despite the primary leg alone
  // preferring carrier 1.
  auto hand_down = admission::make_policy("hand-down");
  const std::vector<admission::PolicyGrant> grants =
      hand_down->decide(ctx, mac::LinkDirection::kReverse, 0, round);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].request, 0u);
  EXPECT_EQ(grants[0].carrier, 2);
  EXPECT_GT(grants[0].m, 0);
}

TEST(HandDownPolicy, SingleCarrierBehavesLikeBaseScheduler) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = 1;
  cfg.voice.users = 10;
  cfg.data.users = 6;
  cfg.sim_duration_s = 6.0;
  cfg.warmup_s = 1.0;
  cfg.seed = 888;

  cfg.admission.policy = "jaba-sd";
  const sim::SimMetrics base = sim::Simulator(cfg).run();
  cfg.admission.policy = "hand-down";
  const sim::SimMetrics hd = sim::Simulator(cfg).run();

  // With one carrier there is nowhere to hand down: identical trajectories.
  EXPECT_EQ(hd.carrier_hand_downs, 0);
  EXPECT_TRUE(metrics_identical(hd, base));
}

TEST(HandDownPolicy, HandsDownUnderTwoCarrierOverload) {
  scenario::ScenarioLayout layout = scenario::enterprise_data();
  layout.data_users = 48;
  layout.sim_duration_s = 15.0;
  layout.warmup_s = 3.0;
  sim::SystemConfig cfg = layout.to_config();
  ASSERT_EQ(cfg.placement.carriers, 2);
  cfg.admission.policy = "hand-down";
  const sim::SimMetrics m = sim::Simulator(cfg).run();
  EXPECT_GT(m.carrier_hand_downs, 0);
  EXPECT_GT(m.data_bits_delivered, 0.0);
}

// --- Sweep axes over the new seams ----------------------------------------

TEST(SweepAxes, PolicyAndProviderAxesApply) {
  const sweep::Axis policy = sweep::axis_policy({"jaba-sd", "hand-down"});
  EXPECT_EQ(policy.name, "policy");
  ASSERT_EQ(policy.values.size(), 2u);
  sim::SystemConfig cfg = sim::default_config();
  policy.values[1].apply(cfg);
  EXPECT_EQ(cfg.admission.policy, "hand-down");

  const sweep::Axis csi = sweep::axis_csi_provider({"exhaustive", "culled"});
  EXPECT_EQ(csi.name, "csi_provider");
  csi.values[1].apply(cfg);
  EXPECT_EQ(cfg.csi.provider, "culled");
  cfg.validate();
}

}  // namespace
}  // namespace wcdma
