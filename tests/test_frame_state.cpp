// Tests for the SoA hot path: deterministic intra-frame parallelism
// (sim.threads bit-identity), the lazy-fading replay equivalence against an
// eagerly-stepped channel::Ar1Fading on the same stream, the link-major
// channel step against the per-link scalar reference, and the indexed
// per-(direction, carrier) request queues against the O(users) scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/channel/fading.hpp"
#include "src/channel/shadowing.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"
#include "src/common/simd.hpp"
#include "src/common/units.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/frame_state.hpp"
#include "src/sim/request_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"
#include "tests/metrics_identity.hpp"

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

// --- sim.threads bit-identity ---------------------------------------------

TEST(SimThreads, OneVsFourThreadsBitIdentical) {
  sim::SystemConfig cfg = small_config();
  cfg.sim_threads = 1;
  const sim::SimMetrics t1 = sim::Simulator(cfg).run();
  cfg.sim_threads = 4;
  const sim::SimMetrics t4 = sim::Simulator(cfg).run();
  EXPECT_TRUE(metrics_identical(t1, t4));
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
  EXPECT_TRUE(metrics_identical(t1, t3));
  EXPECT_TRUE(metrics_identical(t1, t0));
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
  EXPECT_TRUE(metrics_identical(t1, t4));
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

// --- Link-major channel step ------------------------------------------------

/// Restores the ambient dispatch level when a test scope ends.
struct SimdLevelGuard {
  common::SimdLevel saved = common::active_simd_level();
  ~SimdLevelGuard() { common::set_simd_level(saved); }
};

// step_users() fills 64-link blocks across user boundaries and draws every
// innovation from the stream bank.  Per link it must still be the scalar
// reference: the link's own Rng stream (user_rng.fork(100 + k).fork(1)),
// the user's AR(1) pair, and one refmath exp2/log2 of the gain, for any
// split of the users into step_users() calls and at every dispatch level.
TEST(FrameStateLinks, StepUsersIsThePerLinkScalarReferenceForAnySplit) {
  SimdLevelGuard guard;
  const cell::HexLayout layout(cell::HexLayoutConfig{});
  const channel::PathLoss path_loss{channel::PathLossConfig{}};
  const channel::ShadowingConfig shadowing{};
  const channel::PathLoss::AffineLog10 loss = path_loss.affine_log10();
  const double bias = -common::kExp2PerDb * loss.a_db;
  const double half_slope = loss.b_db / 10.0 * 0.5;
  const double min_d = path_loss.config().min_distance_m;
  const std::size_t users = 23;  // 23 x 19 links: blocks end mid-user
  const std::size_t cells = layout.num_cells();
  const std::vector<std::size_t> no_members;
  std::vector<common::SimdLevel> levels = {common::SimdLevel::kScalar};
  if (common::max_supported_simd_level() == common::SimdLevel::kAvx2) {
    levels.push_back(common::SimdLevel::kAvx2);
  }
  for (const char* provider : {"exhaustive", "culled"}) {
    for (const common::SimdLevel level : levels) {
      SCOPED_TRACE(std::string(provider) + " @ " + common::simd_level_name(level));
      ASSERT_TRUE(common::set_simd_level(level));
      sim::CsiConfig csi;
      csi.provider = provider;
      csi.cull_radius_scale = 2.0;  // culls on the 19-cell world
      sim::FrameState whole, split;
      whole.init(&layout, &path_loss, shadowing, csi, 0.020, users);
      split.init(&layout, &path_loss, shadowing, csi, 0.020, users);
      std::vector<common::Rng> link_rng;
      std::vector<double> shadow;
      for (std::size_t u = 0; u < users; ++u) {
        const common::Rng user_rng(0x11c + u);
        whole.init_user(u, user_rng, 24.0);
        split.init_user(u, user_rng, 24.0);
        for (std::size_t k = 0; k < cells; ++k) {
          link_rng.push_back(user_rng.fork(100 + k).fork(1));
          shadow.push_back(link_rng.back().normal(0.0, shadowing.sigma_db));
        }
      }
      common::Rng walk(0x3a1);
      std::vector<cell::Point> pos(users);
      std::vector<double> moved(users);
      const std::vector<const std::vector<std::size_t>*> members(users, &no_members);
      for (int frame = 1; frame <= 6; ++frame) {
        for (std::size_t u = 0; u < users; ++u) {
          pos[u] = layout.random_point(walk.uniform(), walk.uniform());
          moved[u] = frame % 3 == 0 ? 0.0 : 30.0 * walk.uniform();
        }
        whole.advance_frame();
        split.advance_frame();
        whole.step_users(0, users, pos.data(), moved.data(), members.data());
        // Ragged groups: 1, 2, 3, ... users per call.
        for (std::size_t first = 0, size = 1; first < users; first += size, ++size) {
          const std::size_t last = std::min(first + size, users);
          split.step_users(first, last, &pos[first], &moved[first], &members[first]);
        }
        for (std::size_t u = 0; u < users; ++u) {
          const double rho = channel::Shadowing::correlation(shadowing, moved[u]);
          const double innovation = channel::Shadowing::innovation_sigma(shadowing, rho);
          ASSERT_EQ(whole.cells_for(u), split.cells_for(u));
          ASSERT_FALSE(whole.cells_for(u).empty());
          for (const std::size_t k : whole.cells_for(u)) {
            const std::size_t i = u * cells + k;
            shadow[i] = rho * shadow[i] + innovation * link_rng[i].normal();
            const double d_sq =
                std::max(layout.distance_sq_to_cell(pos[u], k), min_d * min_d);
            const double gain = common::refmath::exp2(
                common::kExp2PerDb * shadow[i] + bias -
                half_slope * common::refmath::log2(d_sq));
            ASSERT_EQ(whole.gain_mean(u, k), gain) << "frame " << frame << " link " << i;
            ASSERT_EQ(split.gain_mean(u, k), gain) << "frame " << frame << " link " << i;
          }
        }
        common::BinaryWriter a, b;
        whole.save(a);
        split.save(b);
        ASSERT_EQ(a.bytes(), b.bytes()) << "frame " << frame;
      }
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
  const sweep::SweepResult r = sweep::run_sweep(spec, 0);
  ASSERT_EQ(r.scenarios.size(), 2u);
  EXPECT_TRUE(metrics_identical(r.scenarios[0].merged, r.scenarios[1].merged));
}

}  // namespace
}  // namespace wcdma
