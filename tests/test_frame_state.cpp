// Tests for the SoA hot-path rework: deterministic intra-frame parallelism
// (sim.threads bit-identity), the lazy-fading replay equivalence against an
// eagerly-stepped channel::Ar1Fading on the same stream, and the indexed
// per-(direction, carrier) request queues against the O(users) scan.
#include <gtest/gtest.h>

#include <cmath>

#include "src/channel/fading.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/frame_state.hpp"
#include "src/sim/request_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma {
namespace {

sim::SystemConfig small_config() {
  sim::SystemConfig cfg = sim::default_config();
  cfg.voice.users = 24;
  cfg.data.users = 10;
  cfg.sim_duration_s = 8.0;
  cfg.warmup_s = 2.0;
  cfg.data.mean_reading_s = 1.0;
  cfg.seed = 777;
  return cfg;
}

void expect_identical(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  EXPECT_EQ(a.mean_delay_s(), b.mean_delay_s());
  EXPECT_EQ(a.data_bits_delivered, b.data_bits_delivered);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.requests_seen, b.requests_seen);
  EXPECT_EQ(a.granted_sgr.mean(), b.granted_sgr.mean());
  EXPECT_EQ(a.queue_delay_s.mean(), b.queue_delay_s.mean());
  EXPECT_EQ(a.reverse_rise_db.mean(), b.reverse_rise_db.mean());
  EXPECT_EQ(a.forward_load_fraction.mean(), b.forward_load_fraction.mean());
  EXPECT_EQ(a.voice_sir_error_db.mean(), b.voice_sir_error_db.mean());
  EXPECT_EQ(a.pending_queue_len.mean(), b.pending_queue_len.mean());
}

// --- sim.threads bit-identity ---------------------------------------------

TEST(SimThreads, OneVsFourThreadsBitIdentical) {
  sim::SystemConfig cfg = small_config();
  cfg.sim_threads = 1;
  const sim::SimMetrics t1 = sim::Simulator(cfg).run();
  cfg.sim_threads = 4;
  const sim::SimMetrics t4 = sim::Simulator(cfg).run();
  expect_identical(t1, t4);
}

TEST(SimThreads, CulledProviderBitIdenticalAcrossThreadCounts) {
  sim::SystemConfig cfg = small_config();
  cfg.csi.provider = "culled";
  cfg.sim_threads = 1;
  const sim::SimMetrics t1 = sim::Simulator(cfg).run();
  cfg.sim_threads = 3;
  const sim::SimMetrics t3 = sim::Simulator(cfg).run();
  cfg.sim_threads = 0;  // hardware concurrency
  const sim::SimMetrics t0 = sim::Simulator(cfg).run();
  expect_identical(t1, t3);
  expect_identical(t1, t0);
}

TEST(SimThreads, MultiCarrierScenarioBitIdentical) {
  scenario::ScenarioLayout layout = scenario::enterprise_data();
  layout.sim_duration_s = 8.0;
  layout.warmup_s = 2.0;
  sim::SystemConfig cfg = layout.to_config();
  ASSERT_EQ(cfg.placement.carriers, 2);
  cfg.sim_threads = 1;
  const sim::SimMetrics t1 = sim::Simulator(cfg).run();
  cfg.sim_threads = 4;
  const sim::SimMetrics t4 = sim::Simulator(cfg).run();
  expect_identical(t1, t4);
}

TEST(SimThreads, ResolvesHardwareConcurrencyForZero) {
  sim::SystemConfig cfg = small_config();
  cfg.sim_duration_s = 1.0;
  cfg.warmup_s = 0.5;
  cfg.sim_threads = 0;
  const sim::Simulator simulator(cfg);
  EXPECT_GE(simulator.sim_threads(), 1u);
  cfg.sim_threads = 5;
  const sim::Simulator pinned(cfg);
  EXPECT_EQ(pinned.sim_threads(), 5u);
}

// --- Lazy fading replay ----------------------------------------------------

TEST(FrameStateFading, LazyReplayMatchesEagerAr1OnTheSameStream) {
  const cell::HexLayout layout(cell::HexLayoutConfig{});
  const channel::PathLoss path_loss{channel::PathLossConfig{}};
  const channel::ShadowingConfig shadowing{};
  const double frame_s = 0.020;
  const double doppler = 24.0;

  sim::FrameState state;
  state.init(&layout, &path_loss, shadowing, sim::CsiConfig{}, frame_s, 1);
  const common::Rng user_rng(0xfade);
  state.init_user(0, user_rng, doppler);

  // The eager twin consumes the identical stream the legacy per-link
  // construction used: user_rng.fork(100 + cell).fork(2).
  const std::size_t cell_idx = 7;
  channel::Ar1Fading eager(doppler, frame_s, user_rng.fork(100 + cell_idx).fork(2));

  // Observe only every 5th frame: the replay must hide the gap entirely.
  for (int frame = 1; frame <= 40; ++frame) {
    state.advance_frame();
    const double eager_gain = eager.step(frame_s);
    if (frame % 5 == 0) {
      EXPECT_EQ(state.fading_factor(0, cell_idx), eager_gain) << "frame " << frame;
    }
  }
}

// --- Indexed request queues ------------------------------------------------

TEST(RequestQueues, BucketOpsKeepAscendingUserOrder) {
  sim::RequestQueues queues;
  queues.init(2);
  queues.add(5, 0, true);
  queues.add(2, 0, true);
  queues.add(9, 0, true);
  queues.add(3, 1, false);
  EXPECT_EQ(queues.bucket(true, 0), (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(queues.bucket(false, 1), (std::vector<int>{3}));
  EXPECT_EQ(queues.total_pending(), 4u);
  queues.remove(5, 0, true);
  EXPECT_EQ(queues.bucket(true, 0), (std::vector<int>{2, 9}));
  EXPECT_EQ(queues.total_pending(), 3u);
}

TEST(RequestQueues, MatchesFullScanEveryFrame) {
  // The incrementally-maintained queues must agree with the O(users) scan
  // after every frame, through grants, rejections, SCRM retries, and burst
  // completions.
  sim::SystemConfig cfg = small_config();
  cfg.data.mean_reading_s = 0.6;  // request-heavy
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  int seen_pending = 0;
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_EQ(simulator.queued_requests(), simulator.pending_requests())
        << "frame " << f;
    seen_pending += simulator.pending_requests();
  }
  EXPECT_GT(seen_pending, 0);  // the run actually exercised the queues
}

TEST(RequestQueues, MatchesFullScanUnderHandDown) {
  scenario::ScenarioLayout layout = scenario::enterprise_data();
  layout.data_users = 48;
  layout.sim_duration_s = 10.0;
  layout.warmup_s = 2.0;
  sim::SystemConfig cfg = layout.to_config();
  cfg.admission.policy = "hand-down";
  sim::Simulator simulator(cfg);
  const int frames = static_cast<int>(cfg.sim_duration_s / cfg.frame_s);
  for (int f = 0; f < frames; ++f) {
    simulator.step_frame();
    ASSERT_EQ(simulator.queued_requests(), simulator.pending_requests())
        << "frame " << f;
  }
  EXPECT_GT(simulator.metrics().carrier_hand_downs, 0);
}

// --- Sweep-level integration ----------------------------------------------

TEST(SimThreads, SweepAxisLeavesMetricsIdentical) {
  sweep::SweepSpec spec;
  spec.name = "threads-identity";
  spec.base = small_config();
  spec.base.sim_duration_s = 4.0;
  spec.base.warmup_s = 1.0;
  spec.axes = {sweep::axis_sim_threads({1, 4})};
  spec.replications = 1;
  spec.common_random_numbers = true;
  const sweep::SweepResult r = sweep::run_sweep(spec, 0);
  ASSERT_EQ(r.scenarios.size(), 2u);
  expect_identical(r.scenarios[0].merged, r.scenarios[1].merged);
}

}  // namespace
}  // namespace wcdma
