// Statistical-equivalence test harness: the acceptance gate for every
// optimisation that gives up bit-identity with the reference simulator.
//
// Layers, bottom up:
//  * the common::stats toolkit itself (Welch interval, tolerance specs)
//    against known distributions;
//  * the `culled` channel-state provider against `exhaustive` on paired
//    common-random-number sweeps (the 19-cell hotspot and a shrunk 127-cell
//    metro grid), asserting the paper's headline metrics -- blocking, mean
//    burst delay, throughput, carrier hand-downs -- agree within the
//    tolerance specs declared inline below;
//  * the candidate-epoch contract (candidate index vs the provider's sets)
//    across a load_ramp pulse.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/thread_pool.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma {
namespace {

// --- common::stats toolkit self-tests --------------------------------------

TEST(WelchInterval, CoversZeroForEqualMeansAndFlagsSeparatedOnes) {
  common::Rng rng(7);
  std::vector<double> a, b, c;
  for (int i = 0; i < 40; ++i) {
    a.push_back(rng.normal(5.0, 1.0));
    b.push_back(rng.normal(5.0, 2.0));
    c.push_back(rng.normal(9.0, 1.0));
  }
  const common::WelchInterval same = common::welch_difference_95(a, b);
  EXPECT_TRUE(same.within(1.2)) << same.mean_diff << " +/- " << same.half_width;
  EXPECT_LT(std::fabs(same.mean_diff), 1.5);
  const common::WelchInterval apart = common::welch_difference_95(a, c);
  EXPECT_FALSE(apart.contains_zero());
  // TOST containment: a real 4-sigma separation can never sit inside the
  // margin band, no matter the noise.
  EXPECT_FALSE(apart.within(1.2));
}

TEST(MetricTolerance, AbsoluteAndRelativeBoundsCompose) {
  const common::MetricTolerance tol{"demo", 0.1, 0.5};
  EXPECT_TRUE(common::within_tolerance(0.2, 0.6, tol));    // abs bound
  EXPECT_TRUE(common::within_tolerance(100.0, 109.0, tol));  // rel bound
  EXPECT_FALSE(common::within_tolerance(100.0, 120.0, tol));
  EXPECT_NE(common::tolerance_report(100.0, 120.0, tol).find("VIOLATED"),
            std::string::npos);
}


// --- Paired CRN sweeps: `culled` vs `exhaustive` ----------------------------
//
// Only worlds larger than the candidate radius are paired: on a 7-cell world
// the default 3R radius covers every cell, and `culled` reproduces
// `exhaustive`'s grants, reject rounds and mean delay to 17 digits.

/// Rounds that granted nothing, as a fraction of all scheduling rounds that
/// had work: the measurable "blocking" proxy the admission metrics expose.
double blocking_probability(const sim::SimMetrics& m) {
  const double rounds = static_cast<double>(m.grants + m.reject_rounds);
  return rounds > 0.0 ? static_cast<double>(m.reject_rounds) / rounds : 0.0;
}

struct EquivalenceTolerances {
  common::MetricTolerance blocking{"blocking_probability", 0.0, 0.10};
  common::MetricTolerance delay{"mean_burst_delay_s", 0.35, 0.30};
  common::MetricTolerance throughput{"data_throughput_bps", 0.25, 0.0};
  common::MetricTolerance hand_downs{"carrier_hand_downs", 0.50, 12.0};
  /// TOST margin on the per-replication mean delays, seconds: the whole
  /// Welch 95% interval of the difference must fit in +/- this band, so an
  /// under-powered (too-noisy) comparison FAILS rather than passing
  /// vacuously.  Sized per scenario from measured |diff| + half_width with
  /// headroom for compiler-level fp trajectory differences.
  double delay_welch_margin_s = 2.5;
};

/// Runs `spec` with an (exhaustive, culled) provider axis prepended under
/// common random numbers and asserts the headline metrics agree.  The sweep
/// runs on the hardware thread count; its results do not depend on it.
void expect_culled_matches(sweep::SweepSpec spec, const EquivalenceTolerances& tol) {
  spec.axes.insert(spec.axes.begin(),
                   sweep::axis_csi_provider({"exhaustive", "culled"}));
  const sweep::SweepResult r = sweep::run_sweep(spec, common::default_thread_count());
  ASSERT_EQ(r.scenarios.size() % 2, 0u);
  const std::size_t half = r.scenarios.size() / 2;
  for (std::size_t s = 0; s < half; ++s) {
    const sweep::ScenarioResult& ex = r.scenarios[s];
    const sweep::ScenarioResult& cu = r.scenarios[half + s];
    ASSERT_EQ(ex.labels[0], "exhaustive");
    ASSERT_EQ(cu.labels[0], "culled");
    SCOPED_TRACE("scenario " + std::to_string(s));
    ASSERT_GT(ex.merged.burst_delay_s.count(), 0u);
    ASSERT_GT(cu.merged.burst_delay_s.count(), 0u);

    EXPECT_TRUE(common::within_tolerance(blocking_probability(cu.merged),
                                         blocking_probability(ex.merged),
                                         tol.blocking))
        << common::tolerance_report(blocking_probability(cu.merged),
                                    blocking_probability(ex.merged), tol.blocking);
    EXPECT_TRUE(common::within_tolerance(cu.merged.mean_delay_s(),
                                         ex.merged.mean_delay_s(), tol.delay))
        << common::tolerance_report(cu.merged.mean_delay_s(),
                                    ex.merged.mean_delay_s(), tol.delay);
    EXPECT_TRUE(common::within_tolerance(cu.merged.data_throughput_bps(),
                                         ex.merged.data_throughput_bps(),
                                         tol.throughput))
        << common::tolerance_report(cu.merged.data_throughput_bps(),
                                    ex.merged.data_throughput_bps(), tol.throughput);
    EXPECT_TRUE(common::within_tolerance(
        static_cast<double>(cu.merged.carrier_hand_downs),
        static_cast<double>(ex.merged.carrier_hand_downs), tol.hand_downs))
        << common::tolerance_report(
               static_cast<double>(cu.merged.carrier_hand_downs),
               static_cast<double>(ex.merged.carrier_hand_downs), tol.hand_downs);

    // Distribution-level check on the replication means: the Welch 95%
    // interval of the difference must sit within the declared margin.
    if (ex.replication_mean_delay_s.size() >= 2) {
      const common::WelchInterval w = common::welch_difference_95(
          cu.replication_mean_delay_s, ex.replication_mean_delay_s);
      EXPECT_TRUE(w.within(tol.delay_welch_margin_s))
          << "welch diff " << w.mean_diff << " +/- " << w.half_width;
    }
  }
}

TEST(StatisticalEquivalence, CulledMatchesExhaustiveOnHotspotCenter) {
  // 19-cell hotspot against the full exhaustive reference -- the scenario
  // that leans hardest on the culling physics.  Before far-field
  // aggregation the dropped far-cell interference cost a ~0.10 absolute
  // blocking gap here (declared as rel 0.16 through PR 5); with the culled
  // cells folded back in as ring aggregates the gap is pinned at <= 0.03
  // absolute (docs/ACCURACY.md records the before/after sweep).
  scenario::ScenarioLayout layout = scenario::hotspot_center();
  layout.data_users = 32;
  layout.sim_duration_s = 25.0;
  layout.warmup_s = 5.0;
  sweep::SweepSpec spec;
  spec.name = "statcheck-hotspot-center";
  spec.base = layout.to_config();
  spec.replications = 4;
  EquivalenceTolerances tol;
  // Measured: blocking 0.7855 culled vs 0.7834 exhaustive, and a Welch
  // delay difference of -0.22 +/- 1.36 s at 4 replications.
  tol.blocking = {"blocking_probability", 0.0, 0.03};
  tol.delay_welch_margin_s = 3.0;
  expect_culled_matches(spec, tol);
}

TEST(StatisticalEquivalence, CulledMatchesExhaustiveOnShrunkLargeHex) {
  // The 127-cell metro grid, shrunk to a CI population/horizon: the world
  // size where culling earns its keep (candidates are ~13 of 127 cells)
  // and the far-field aggregate carries almost the whole out-of-candidate
  // interference budget.  Exhaustive is affordable here only because the
  // population is cut to ~360 users.
  scenario::ScenarioLayout layout = scenario::large_hex();
  layout.voice_users = 300;
  layout.data_users = 60;
  layout.sim_duration_s = 15.0;
  layout.warmup_s = 3.0;
  sweep::SweepSpec spec;
  spec.name = "statcheck-large-hex";
  spec.base = layout.to_config();
  // Replications sized by power: per replication, blocking has a standard
  // deviation of about 0.058 and the paired culled - exhaustive gap about
  // 0.049, so at 3 replications the gap's standard error (0.028) is as
  // large as the 0.03 bound (this seed read 0.4593 vs 0.4273).  30 bring
  // it to about 0.009, under a third of the bound.
  spec.replications = 30;
  EquivalenceTolerances tol;
  // Same accuracy contract as the hotspot test: <= 0.03 absolute blocking
  // (measured 0.4509 culled vs 0.4317 exhaustive) and a delay TOST margin
  // with headroom (measured Welch difference 0.012 +/- 0.069 s).
  tol.blocking = {"blocking_probability", 0.0, 0.03};
  tol.delay_welch_margin_s = 2.0;
  expect_culled_matches(spec, tol);
}

// --- Candidate-epoch contract across a load ramp ----------------------------

// Regression test for the epoch/queue-rebuild contract: the candidate index
// must mirror the provider's live candidate sets after EVERY frame
// (including the frames where a mid-ramp refresh changes sets and bumps the
// epoch), and the indexed request queues must match the O(users) scan.
// Written to reproduce a suspected mismatch between `culled` candidate
// epochs and the queue/index rebuilds under `load_ramp`; the sweep found the
// contract holds, and this test now pins it (a provider that mutates a
// candidate set without moving its epoch fails here immediately).
TEST(CandidateEpochContract, CulledIndexAndQueuesTrackMidRampEpochChanges) {
  scenario::ScenarioLayout layout = scenario::uniform_hex7();
  layout.sim_duration_s = 14.0;
  layout.warmup_s = 2.0;
  // Vehicular speeds force frequent candidate churn; the ramp piles
  // requests into the middle of the run.
  layout.max_speed_mps = 30.0;
  layout.min_speed_mps = 10.0;
  layout.load_ramp.peak_scale = 4.0;
  layout.load_ramp.start_s = 4.0;
  layout.load_ramp.rise_s = 2.0;
  layout.load_ramp.hold_s = 4.0;
  layout.load_ramp.fall_s = 2.0;
  sim::SystemConfig cfg = layout.to_config();
  cfg.csi.provider = "culled";
  cfg.csi.refresh_interval_s = 0.2;  // several epochs inside the ramp
  // The default radius covers this whole 7-cell world, which would freeze
  // the candidate sets; shrink it so refreshes genuinely churn the epoch.
  cfg.csi.cull_radius_scale = 2.0;
  sim::Simulator simulator(cfg);
  ASSERT_EQ(simulator.channel_provider_name(), "culled");

  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  std::uint64_t last_epoch = 0;
  int epoch_moves_mid_ramp = 0;
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_TRUE(simulator.csi_index_consistent())
        << "candidate index diverged from the provider's sets at frame " << f;
    ASSERT_EQ(simulator.queued_requests(), simulator.pending_requests())
        << "request queues diverged at frame " << f;
    const std::uint64_t epoch = simulator.csi_candidate_epoch();
    const double now = simulator.now_s();
    if (epoch != last_epoch && now > 4.0 && now < 12.0) ++epoch_moves_mid_ramp;
    last_epoch = epoch;
  }
  // The scenario must actually exercise mid-ramp epoch changes, otherwise
  // the per-frame assertions above prove nothing.
  EXPECT_GE(epoch_moves_mid_ramp, 5);
  EXPECT_GT(simulator.metrics().requests_seen, 0);
}

}  // namespace
}  // namespace wcdma
