// Multi-process sweep supervisor tests (src/runner/): shard arithmetic,
// fault-plan parsing, shard archive integrity, and the robustness contract
// end to end -- every injected fault either converges to a merged result
// bit-identical to the in-process sweep or fails hard with an error naming
// the shard and cause.
//
// Supervised runs here call run_supervised_sweep() directly, so the whole
// state machine runs under the test binary.  The same supervisor behind
// tools/sweep_main --workers is exercised by SweepMainCli* below when ctest
// exports WCDMA_SWEEP_MAIN, and by the CI crash-recovery smoke.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/runner/fault.hpp"
#include "src/runner/shard_io.hpp"
#include "src/runner/supervisor.hpp"
#include "src/runner/worker.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/presets.hpp"
#include "src/sweep/sweep.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma::runner {
namespace {

/// 2 scenarios x 2 reps = 4 items, ~200 frames each: big enough to cross
/// several checkpoint boundaries, small enough for the fault matrix below.
sweep::SweepSpec tiny_spec(std::uint64_t seed = 7705) {
  sweep::SweepSpec spec;
  spec.name = "runner-tiny";
  spec.base = sim::default_config();
  spec.base.layout.rings = 1;
  spec.base.voice.users = 6;
  spec.base.data.users = 3;
  spec.base.data.mean_reading_s = 1.0;
  spec.base.sim_duration_s = 2.0;
  spec.base.warmup_s = 0.5;
  spec.base.seed = seed;
  spec.axes = {sweep::axis_data_users({2, 4})};
  spec.replications = 2;
  return spec;
}

/// Fresh work dir per supervised run, removed with its contents here: a
/// failed run keeps its shard files for post-mortem.
struct WorkDir {
  WorkDir() {
    char tmpl[] = "/tmp/wcdma-runner-test-XXXXXX";
    made = mkdtemp(tmpl) != nullptr;
    path = made ? tmpl : ".";
  }
  ~WorkDir() {
    std::error_code ignored;
    if (made) std::filesystem::remove_all(path, ignored);
  }
  std::string path;
  bool made = false;
};

SupervisorOptions fast_options(const std::string& work_dir) {
  SupervisorOptions options;
  options.work_dir = work_dir;
  options.backoff_base_s = 0.001;  // keep retry waits out of the test budget
  options.backoff_cap_s = 0.01;
  options.checkpoint_every_frames = 32;
  return options;
}

// ------------------------------------------------------------ unit pieces

TEST(Backoff, DoublesFromBaseAndSaturatesAtTheCap) {
  EXPECT_DOUBLE_EQ(backoff_delay_s(0, 0.05, 2.0), 0.05);
  EXPECT_DOUBLE_EQ(backoff_delay_s(1, 0.05, 2.0), 0.10);
  EXPECT_DOUBLE_EQ(backoff_delay_s(2, 0.05, 2.0), 0.20);
  EXPECT_DOUBLE_EQ(backoff_delay_s(3, 0.05, 2.0), 0.40);
  EXPECT_DOUBLE_EQ(backoff_delay_s(5, 0.05, 2.0), 1.60);
  EXPECT_DOUBLE_EQ(backoff_delay_s(6, 0.05, 2.0), 2.0);   // saturated
  EXPECT_DOUBLE_EQ(backoff_delay_s(60, 0.05, 2.0), 2.0);  // no overflow
  EXPECT_DOUBLE_EQ(backoff_delay_s(4, 0.0, 1.0), 0.0);    // zero base stays 0
}

TEST(FaultPlanSpec, ParsesEveryFieldOfEachGrammarForm) {
  const struct {
    const char* text;
    FaultKind kind;
    std::size_t shard;
    std::int64_t frame;
    std::size_t item;
    CorruptMode mode;
    bool every_attempt;
  } cases[] = {
      {"kill:shard=1,frame=50", FaultKind::kKill, 1, 50, SIZE_MAX,
       CorruptMode::kBitFlip, false},
      {"stall:shard=0,frame=10", FaultKind::kStall, 0, 10, SIZE_MAX,
       CorruptMode::kBitFlip, false},
      {"kill:shard=2,frame=7,item=3,attempts=all", FaultKind::kKill, 2, 7, 3,
       CorruptMode::kBitFlip, true},
      {"stall:shard=3,frame=9,item=0,attempts=first", FaultKind::kStall, 3, 9, 0,
       CorruptMode::kBitFlip, false},
      {"corrupt-checkpoint:shard=0,frame=40,mode=bitflip",
       FaultKind::kCorruptCheckpoint, 0, 40, SIZE_MAX, CorruptMode::kBitFlip, false},
      {"corrupt-checkpoint:shard=1,frame=8,mode=truncate,attempts=all",
       FaultKind::kCorruptCheckpoint, 1, 8, SIZE_MAX, CorruptMode::kTruncate, true},
      {"corrupt-checkpoint:shard=4", FaultKind::kCorruptCheckpoint, 4, 0, SIZE_MAX,
       CorruptMode::kBitFlip, false},
      {"drop-result:shard=2", FaultKind::kDropResult, 2, 0, SIZE_MAX,
       CorruptMode::kBitFlip, false},
      {"drop-result:shard=5,attempts=all", FaultKind::kDropResult, 5, 0, SIZE_MAX,
       CorruptMode::kBitFlip, true},
  };
  for (const auto& c : cases) {
    FaultPlan plan;
    std::string why;
    ASSERT_TRUE(FaultPlan::parse(c.text, &plan, &why)) << c.text << ": " << why;
    EXPECT_TRUE(plan.enabled()) << c.text;
    EXPECT_EQ(plan.kind, c.kind) << c.text;
    EXPECT_EQ(plan.shard, c.shard) << c.text;
    EXPECT_EQ(plan.frame, c.frame) << c.text;
    EXPECT_EQ(plan.item, c.item) << c.text;
    EXPECT_EQ(plan.mode, c.mode) << c.text;
    EXPECT_EQ(plan.every_attempt, c.every_attempt) << c.text;
  }
  for (const char* off : {"none", ""}) {
    FaultPlan plan;
    plan.kind = FaultKind::kKill;  // parse must reset it
    std::string why;
    ASSERT_TRUE(FaultPlan::parse(off, &plan, &why)) << off;
    EXPECT_FALSE(plan.enabled()) << off;
  }
}

TEST(FaultPlanSpec, ErrorsNameTheOffendingToken) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"explode:shard=0", "explode"},
      {"kill", "shard=I"},
      {"kill:frame=5", "shard=I"},
      {"kill:shard=x", "'x'"},
      {"kill:shard=0,frame=-3", "'-3'"},
      {"kill:shard=0,colour=red", "colour"},
      {"kill:shard=0,frame", "key=value"},
      {"corrupt-checkpoint:shard=0,mode=zap", "zap"},
      {"kill:shard=0,attempts=twice", "twice"},
  };
  for (const auto& c : cases) {
    FaultPlan plan;
    std::string why;
    EXPECT_FALSE(FaultPlan::parse(c.text, &plan, &why)) << c.text;
    EXPECT_NE(why.find(c.needle), std::string::npos)
        << c.text << " -> " << why;
  }
}

TEST(FaultPlan, ArmsFirstAttemptOnlyUnlessEveryAttempt) {
  FaultPlan plan;
  plan.kind = FaultKind::kKill;
  plan.shard = 2;
  EXPECT_TRUE(plan.armed_for(2, 0));
  EXPECT_FALSE(plan.armed_for(2, 1));  // retries run clean by default
  EXPECT_FALSE(plan.armed_for(1, 0));  // other shards never see it
  plan.every_attempt = true;
  EXPECT_TRUE(plan.armed_for(2, 5));
}

TEST(ShardRangeTest, PartitionsTheGridExactlyOnce) {
  for (std::size_t total : {0u, 1u, 2u, 4u, 7u, 16u, 23u}) {
    for (std::size_t workers : {1u, 2u, 3u, 5u, 8u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < workers; ++s) {
        const ShardRange r = shard_range(total, s, workers);
        EXPECT_EQ(r.begin, prev_end) << total << "/" << workers << "/" << s;
        EXPECT_LE(r.end, total);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, total) << total << " items over " << workers;
      EXPECT_EQ(prev_end, total);
    }
  }
}

TEST(ShardRangeTest, CostSplitIsContiguousCoveringAndBalanced) {
  common::Rng rng(5151);
  for (int trial = 0; trial < 400; ++trial) {
    // Fewer items than workers (some shards then empty), zero-cost items,
    // and cost ranges from uniform to one dominant item.
    const std::size_t total = rng.uniform_int(24);
    const std::size_t workers = 1 + rng.uniform_int(8);
    const std::uint64_t spread = 1 + rng.uniform_int(1000);
    std::vector<std::uint64_t> costs(total);
    for (std::uint64_t& c : costs) c = rng.uniform_int(spread + 1);
    std::uint64_t whole = 0, largest = 0;
    for (const std::uint64_t c : costs) {
      whole += c;
      largest = std::max(largest, c);
    }
    std::size_t prev_end = 0;
    for (std::size_t s = 0; s < workers; ++s) {
      const ShardRange r = shard_range(costs, s, workers);
      ASSERT_EQ(r.begin, prev_end) << "trial " << trial << " shard " << s;
      ASSERT_LE(r.begin, r.end) << "trial " << trial << " shard " << s;
      std::uint64_t cost = 0;
      for (std::size_t i = r.begin; i < r.end; ++i) cost += costs[i];
      // cost <= whole/workers + largest, kept in integers.
      EXPECT_LE(cost * workers, whole + largest * workers)
          << "trial " << trial << " shard " << s;
      prev_end = r.end;
    }
    EXPECT_EQ(prev_end, total) << "trial " << trial;
  }
}

TEST(ShardRangeTest, CostSplitMovesThePaperSweepBoundaries) {
  // E4 puts the data-user axis outermost: 15 items per user count, cost
  // 2500 frames x (30 voice + 4..24 data users).  By count the boundary
  // is item 45; by cost it is item 51, at 4.97M / 4.94M user-frames.
  const std::vector<std::uint64_t> e4 = item_costs(scenario::e4_delay_fl());
  ASSERT_EQ(e4.size(), 90u);
  EXPECT_EQ(shard_range(e4.size(), 0, 2).end, 45u);
  EXPECT_EQ(shard_range(e4, 0, 2).end, 51u);
  EXPECT_EQ(shard_range(e4, 1, 2).end, 90u);
  std::uint64_t first = 0, second = 0;
  for (std::size_t i = 0; i < e4.size(); ++i) (i < 51 ? first : second) += e4[i];
  EXPECT_EQ(first, 4965000u);
  EXPECT_EQ(second, 4935000u);
  // data-heavy: 12 items, 4 per data-user count of 12, 18 and 24.
  const std::vector<std::uint64_t> heavy =
      item_costs(sweep::make_preset("data-heavy"));
  ASSERT_EQ(heavy.size(), 12u);
  EXPECT_EQ(shard_range(heavy.size(), 0, 2).end, 6u);
  EXPECT_EQ(shard_range(heavy, 0, 2).end, 7u);
  // tiny_spec: the 3-worker cost split differs from the count split, so
  // the supervised tests below cross a moved boundary.
  const std::vector<std::uint64_t> tiny = item_costs(tiny_spec());
  bool moved = false;
  for (std::size_t s = 0; s < 3; ++s) {
    moved = moved || shard_range(tiny, s, 3).end != shard_range(tiny.size(), s, 3).end;
  }
  EXPECT_TRUE(moved);
}

// A finished shard's result is its final checkpoint: every item's metrics
// and no snapshot.
TEST(ShardArchive, ResultRoundTripsAndRefusesDamage) {
  const sweep::SweepSpec spec = tiny_spec();
  ShardCheckpoint result;
  result.header = {0, 2, 0, 2, spec.base.seed};
  result.next_item = 2;
  for (std::size_t i = 0; i < 2; ++i) {
    result.completed.push_back(sim::Simulator(sweep::item_config(spec, i)).run());
  }
  const ShardHeader& header = result.header;

  const std::vector<std::uint8_t> bytes = encode_shard_checkpoint(result);
  ShardCheckpoint back;
  std::string why;
  ASSERT_TRUE(decode_shard_checkpoint(bytes, header, &back, &why)) << why;
  EXPECT_EQ(back.next_item, header.item_end);
  EXPECT_TRUE(back.snapshot.empty());
  ASSERT_EQ(back.completed.size(), result.completed.size());
  for (std::size_t i = 0; i < result.completed.size(); ++i) {
    EXPECT_TRUE(metrics_identical(back.completed[i], result.completed[i]));
  }

  // A single flipped bit anywhere trips the crc footer.
  for (std::size_t i = 0; i < bytes.size(); i += 13) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[i] ^= 0x04;
    EXPECT_FALSE(decode_shard_checkpoint(damaged, header, &back, &why))
        << "flip at " << i;
  }
  // Truncation -- below and above the footer boundary.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_shard_checkpoint(trunc, header, &back, &why))
        << "cut at " << cut;
  }
  // An intact archive from the wrong shard/run is refused by identity.
  for (auto mutate : {+[](ShardHeader* h) { h->shard = 1; },
                      +[](ShardHeader* h) { h->workers = 4; },
                      +[](ShardHeader* h) { h->item_end = 1; },
                      +[](ShardHeader* h) { h->master_seed ^= 1; }}) {
    ShardHeader other = header;
    mutate(&other);
    EXPECT_FALSE(decode_shard_checkpoint(bytes, other, &back, &why));
    EXPECT_NE(why.find("different shard"), std::string::npos) << why;
  }
}

TEST(ShardArchive, CheckpointRoundTripsWithSnapshotAndCursor) {
  const sweep::SweepSpec spec = tiny_spec();
  sim::Simulator sim(sweep::item_config(spec, 1));
  for (int f = 0; f < 40; ++f) sim.step_frame();

  ShardCheckpoint ck;
  ck.header.shard = 0;
  ck.header.workers = 1;
  ck.header.item_begin = 0;
  ck.header.item_end = 4;
  ck.header.master_seed = spec.base.seed;
  ck.next_item = 1;
  ck.completed = {sim::Simulator(sweep::item_config(spec, 0)).run()};
  ck.snapshot = sim.snapshot();

  const std::vector<std::uint8_t> bytes = encode_shard_checkpoint(ck);
  ShardCheckpoint back;
  std::string why;
  ASSERT_TRUE(decode_shard_checkpoint(bytes, ck.header, &back, &why)) << why;
  EXPECT_EQ(back.next_item, 1u);
  ASSERT_EQ(back.completed.size(), 1u);
  EXPECT_TRUE(back.snapshot == ck.snapshot);

  // The snapshot is embedded verbatim: a u64 length and the raw bytes just
  // before the crc footer, and it decodes back byte for byte.
  const std::size_t at = bytes.size() - 4 - ck.snapshot.size();
  EXPECT_TRUE(std::equal(ck.snapshot.begin(), ck.snapshot.end(),
                         bytes.begin() + static_cast<long>(at)));
  common::BinaryReader len(bytes.data() + at - 8, 8);
  EXPECT_EQ(len.u64(), ck.snapshot.size());
  EXPECT_EQ(encode_shard_checkpoint(back), bytes);

  // The restored snapshot actually restores.
  sim::Simulator resumed(sweep::item_config(spec, 1));
  ASSERT_TRUE(resumed.restore(back.snapshot));
  EXPECT_EQ(resumed.frame_index(), sim.frame_index());

  // A cursor outside [item_begin, item_end] is structural damage even when
  // the crc is valid.  The encoder asserts it never writes one, so forge
  // it: patch the u64 at its fixed offset (magic 4 + version 4 + five u64
  // header fields = 48) and re-seal the footer.
  std::vector<std::uint8_t> forged = bytes;
  forged[48] = 9;
  for (std::size_t i = 49; i < 56; ++i) forged[i] = 0;
  const std::uint32_t crc = common::crc32(forged.data(), forged.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    forged[forged.size() - 4 + i] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFFu);
  }
  EXPECT_FALSE(decode_shard_checkpoint(forged, ck.header, &back, &why));
  EXPECT_NE(why.find("cursor"), std::string::npos) << why;
}

// --------------------------------------------------- supervised execution

TEST(Supervisor, FaultFreeMergeIsBitIdenticalForAnyWorkerCount) {
  const sweep::SweepSpec spec = tiny_spec();
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    WorkDir dir;
    SupervisorOptions options = fast_options(dir.path);
    options.workers = workers;
    const SupervisorResult sup = run_supervised_sweep(spec, options);
    ASSERT_TRUE(sup.ok) << sup.error;
    EXPECT_EQ(sup.retries, 0);
    EXPECT_EQ(sweep::to_csv(sup.result), reference) << workers << " workers";
  }
}

TEST(Supervisor, ProgressCountsDecodedItemsUpToTheTotal) {
  const sweep::SweepSpec spec = tiny_spec();
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  const std::size_t total = sweep::item_count(spec);
  for (const std::size_t workers : {1u, 3u}) {
    for (const bool kill : {false, true}) {
      WorkDir dir;
      SupervisorOptions options = fast_options(dir.path);
      options.workers = workers;
      if (kill) {
        std::string why;
        ASSERT_TRUE(FaultPlan::parse("kill:shard=0,frame=40", &options.fault, &why))
            << why;
      }
      std::vector<std::size_t> seen;
      options.progress = [&](std::size_t done, std::size_t of) {
        EXPECT_EQ(of, total);
        seen.push_back(done);
      };
      const SupervisorResult sup = run_supervised_sweep(spec, options);
      ASSERT_TRUE(sup.ok) << sup.error;
      // One call per shard, a retried shard included only once.
      ASSERT_EQ(seen.size(), workers);
      for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_GE(seen[i], seen[i - 1]);
      EXPECT_EQ(seen.back(), total);
      EXPECT_EQ(sweep::to_csv(sup.result), reference)
          << workers << " workers, kill " << kill;
    }
  }
}

TEST(Supervisor, KillAtEveryCheckpointBoundaryMergesIdentically) {
  // The tentpole property: for three master seeds, kill a worker at every
  // checkpoint boundary of its first in-flight item; the resumed run's
  // merged CSV must be byte-identical to the undisturbed single-process
  // sweep every time.
  for (const std::uint64_t seed : {101u, 7705u, 424243u}) {
    const sweep::SweepSpec spec = tiny_spec(seed);
    const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
    const std::int64_t frames =
        sim::Simulator(sweep::item_config(spec, 0)).total_frames();
    const std::int64_t every = 32;
    int resumed_runs = 0;
    for (std::int64_t boundary = every; boundary < frames; boundary += every) {
      WorkDir dir;
      SupervisorOptions options = fast_options(dir.path);
      options.workers = 2;
      options.checkpoint_every_frames = every;
      options.fault.kind = FaultKind::kKill;
      options.fault.shard = 1;
      options.fault.frame = boundary;
      const SupervisorResult sup = run_supervised_sweep(spec, options);
      ASSERT_TRUE(sup.ok) << "seed " << seed << " boundary " << boundary
                          << ": " << sup.error;
      EXPECT_EQ(sup.crashes, 1);
      EXPECT_EQ(sup.retries, 1);
      resumed_runs += sup.checkpoint_resumes;
      ASSERT_EQ(sweep::to_csv(sup.result), reference)
          << "seed " << seed << " boundary " << boundary;
    }
    // Kill-at-boundary leaves the just-written checkpoint on disk, so every
    // retry must have resumed rather than restarted.
    EXPECT_EQ(resumed_runs, static_cast<int>((frames - 1) / every))
        << "seed " << seed;
  }
}

TEST(Supervisor, CutsAtMostOneShardPerItemAndForksNoneForAnEmptyShard) {
  // 6 workers asked for on 4 items: a 6-way cost split leaves shard 4
  // empty.  The supervisor cuts 4 shards instead, so no empty shard's
  // result file can fail the sweep, and shard 4 does not exist: a fault
  // aimed at it is refused, naming the shard count, instead of never firing.
  const sweep::SweepSpec spec = tiny_spec();
  ASSERT_EQ(sweep::item_count(spec), 4u);
  ASSERT_EQ(shard_range(item_costs(spec), 4, 6).size(), 0u);
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 6;
  options.max_retries = 0;
  const SupervisorResult sup = run_supervised_sweep(spec, options);
  ASSERT_TRUE(sup.ok) << sup.error;
  EXPECT_EQ(sup.retries, 0);
  EXPECT_EQ(sweep::to_csv(sup.result), reference);

  options.fault.kind = FaultKind::kDropResult;
  options.fault.shard = 4;
  const SupervisorResult refused = run_supervised_sweep(spec, options);
  ASSERT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("shard 4"), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("4 shard(s)"), std::string::npos) << refused.error;
  EXPECT_EQ(refused.crashes, 0);
}

TEST(Supervisor, RefusesAFaultAimedAtAShardTheCostSplitLeavesEmpty) {
  // One item costs far more than the other two together, so the 3-way cost
  // split puts both cheap items in shard 0, the dear one in shard 1, and
  // nothing in shard 2: a fault there would never fire.
  sweep::SweepSpec spec = tiny_spec();
  spec.base.voice.users = 1;
  spec.axes = {sweep::axis_data_users({1, 1, 300})};
  spec.replications = 1;
  ASSERT_EQ(shard_range(item_costs(spec), 2, 3).size(), 0u);
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 3;
  options.fault.kind = FaultKind::kKill;
  options.fault.shard = 2;
  options.fault.frame = 10;
  const SupervisorResult refused = run_supervised_sweep(spec, options);
  ASSERT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("shard 2"), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("3 shard(s)"), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("empty"), std::string::npos) << refused.error;
}

TEST(Supervisor, StallPastTheTimeoutIsKilledAndRetried) {
  const sweep::SweepSpec spec = tiny_spec();
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 2;
  options.timeout_s = 0.5;
  options.fault.kind = FaultKind::kStall;
  options.fault.shard = 0;
  options.fault.frame = 40;
  const SupervisorResult sup = run_supervised_sweep(spec, options);
  ASSERT_TRUE(sup.ok) << sup.error;
  EXPECT_EQ(sup.timeouts, 1);
  EXPECT_EQ(sup.retries, 1);
  EXPECT_EQ(sweep::to_csv(sup.result), reference);
}

TEST(Supervisor, DropResultIsAttributedAndRetriedNeverMergedPartial) {
  const sweep::SweepSpec spec = tiny_spec();
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 2;
  options.fault.kind = FaultKind::kDropResult;
  options.fault.shard = 1;
  const SupervisorResult sup = run_supervised_sweep(spec, options);
  ASSERT_TRUE(sup.ok) << sup.error;
  EXPECT_EQ(sup.retries, 1);
  EXPECT_EQ(sweep::to_csv(sup.result), reference);
}

TEST(Supervisor, GivesUpAfterMaxRetriesWithAnAttributedError) {
  const sweep::SweepSpec spec = tiny_spec();
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 2;
  options.max_retries = 2;
  options.fault.kind = FaultKind::kKill;
  options.fault.shard = 1;
  options.fault.frame = 20;
  options.fault.every_attempt = true;  // never recovers
  const SupervisorResult sup = run_supervised_sweep(spec, options);
  ASSERT_FALSE(sup.ok);
  EXPECT_EQ(sup.retries, 2);
  EXPECT_EQ(sup.crashes, 3);  // initial attempt + both retries
  // The error names the shard, the attempt count, and the cause.
  EXPECT_NE(sup.error.find("shard 1"), std::string::npos) << sup.error;
  EXPECT_NE(sup.error.find("3 attempt"), std::string::npos) << sup.error;
  EXPECT_NE(sup.error.find("signal 9"), std::string::npos) << sup.error;
}

TEST(Supervisor, CorruptCheckpointIsDiscardedGracefullyByDefault) {
  const sweep::SweepSpec spec = tiny_spec();
  const std::string reference = sweep::to_csv(sweep::run_sweep(spec, 1));
  for (const CorruptMode mode : {CorruptMode::kBitFlip, CorruptMode::kTruncate}) {
    WorkDir dir;
    SupervisorOptions options = fast_options(dir.path);
    options.workers = 2;
    options.fault.kind = FaultKind::kCorruptCheckpoint;
    options.fault.shard = 0;
    options.fault.frame = 40;
    options.fault.mode = mode;
    const SupervisorResult sup = run_supervised_sweep(spec, options);
    ASSERT_TRUE(sup.ok) << sup.error;
    EXPECT_EQ(sup.discarded_checkpoints, 1);
    EXPECT_EQ(sup.checkpoint_resumes, 0);  // restarted from scratch instead
    EXPECT_EQ(sweep::to_csv(sup.result), reference);
  }
}

TEST(Supervisor, CorruptCheckpointIsAHardErrorUnderStrict) {
  const sweep::SweepSpec spec = tiny_spec();
  WorkDir dir;
  SupervisorOptions options = fast_options(dir.path);
  options.workers = 2;
  options.strict_checkpoint = true;
  options.fault.kind = FaultKind::kCorruptCheckpoint;
  options.fault.shard = 0;
  options.fault.frame = 40;
  const SupervisorResult sup = run_supervised_sweep(spec, options);
  ASSERT_FALSE(sup.ok);
  EXPECT_NE(sup.error.find("shard 0"), std::string::npos) << sup.error;
  EXPECT_NE(sup.error.find("integrity"), std::string::npos) << sup.error;
  EXPECT_NE(sup.error.find("shard-0.ckpt"), std::string::npos) << sup.error;
}

TEST(Supervisor, WorkerBadCheckpointExitIsTheResumeBackstop) {
  // Hand a worker a resume order with no checkpoint on disk: it must exit
  // kWorkerBadCheckpoint rather than silently restart.
  const sweep::SweepSpec spec = tiny_spec();
  WorkDir dir;
  WorkerJob job;
  job.spec = spec;
  job.shard = 0;
  job.workers = 1;
  job.checkpoint_path = dir.path + "/r.ckpt";
  job.resume = true;
  EXPECT_EQ(run_worker(job), kWorkerBadCheckpoint);
  std::remove(job.checkpoint_path.c_str());
}

// ----------------------------------------------- the CLI (sweep_main)

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SweepMainCli, WorkersSurviveAKillFaultBitIdentically) {
  const char* bin = std::getenv("WCDMA_SWEEP_MAIN");
  if (!bin || access(bin, X_OK) != 0) {
    GTEST_SKIP() << "WCDMA_SWEEP_MAIN not exported by ctest";
  }
  WorkDir dir;
  const std::string ref_csv = dir.path + "/ref.csv";
  const std::string sup_csv = dir.path + "/sup.csv";
  const std::string base = std::string(bin) +
                           " --preset smoke --replications 2 --duration 3";
  ASSERT_EQ(std::system((base + " --threads 1 --output " + ref_csv).c_str()),
            0);
  ASSERT_EQ(std::system((base +
                         " --workers 2 --fault kill:shard=1,frame=40"
                         " --checkpoint-every 16 --backoff 0.01"
                         " --runner-dir " + dir.path +
                         " --output " + sup_csv)
                            .c_str()),
            0);
  const std::string reference = read_text_file(ref_csv);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(read_text_file(sup_csv), reference);
  std::remove(ref_csv.c_str());
  std::remove(sup_csv.c_str());
}

TEST(SweepMainCli, RefusesAFaultAimedAtAShardThatStartsNoWorker) {
  const char* bin = std::getenv("WCDMA_SWEEP_MAIN");
  if (!bin || access(bin, X_OK) != 0) {
    GTEST_SKIP() << "WCDMA_SWEEP_MAIN not exported by ctest";
  }
  WorkDir dir;
  const std::string err = dir.path + "/fault.err";
  // smoke has 2 items, so 2 workers cut shards 0 and 1 only.
  const int status = std::system((std::string(bin) +
                                  " --preset smoke --workers 2 --max-retries 0"
                                  " --fault kill:shard=7,frame=10 --runner-dir " +
                                  dir.path + " --output " + dir.path +
                                  "/sup.csv 2> " + err)
                                     .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  const std::string text = read_text_file(err);
  EXPECT_NE(text.find("shard 7"), std::string::npos) << text;
  EXPECT_NE(text.find("2 shard(s)"), std::string::npos) << text;
}

TEST(SweepMainCli, RefusesIntegerFlagsThatDoNotFitTheirType) {
  const char* bin = std::getenv("WCDMA_SWEEP_MAIN");
  if (!bin || access(bin, X_OK) != 0) {
    GTEST_SKIP() << "WCDMA_SWEEP_MAIN not exported by ctest";
  }
  WorkDir dir;
  const std::string err = dir.path + "/flag.err";
  // No value fits its destination: a cast would wrap 2^32 to 0 in an int
  // and 2^63 to a negative int64.
  for (const std::string& flag :
       std::vector<std::string>{"--max-retries 4294967296", "--sim-threads 4294967296",
                                "--checkpoint-every 9223372036854775808"}) {
    SCOPED_TRACE(flag);
    const int status =
        std::system((std::string(bin) + " --preset smoke --workers 2 " + flag +
                     " --runner-dir " + dir.path + " > /dev/null 2> " + err)
                        .c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    const std::string name = flag.substr(0, flag.find(' '));
    EXPECT_NE(read_text_file(err).find("bad " + name + " value"), std::string::npos)
        << read_text_file(err);
  }
}

TEST(SweepMainCli, ProgressReachesTheTotalUnderWorkers) {
  const char* bin = std::getenv("WCDMA_SWEEP_MAIN");
  if (!bin || access(bin, X_OK) != 0) {
    GTEST_SKIP() << "WCDMA_SWEEP_MAIN not exported by ctest";
  }
  WorkDir dir;
  const std::string err = dir.path + "/progress.err";
  const std::string base = std::string(bin) + " --preset smoke --duration 3";
  ASSERT_EQ(std::system((base + " --workers 2 --progress --runner-dir " + dir.path +
                         " --output " + dir.path + "/sup.csv 2> " + err)
                            .c_str()),
            0);
  const std::string text = read_text_file(err);
  // The last report names the whole grid: "sweep: N/N items".
  const std::size_t at = text.rfind("sweep: ");
  ASSERT_NE(at, std::string::npos) << "no progress on stderr: " << text;
  const std::string last = text.substr(at + 7);
  const std::size_t slash = last.find('/');
  ASSERT_NE(slash, std::string::npos) << last;
  EXPECT_EQ(last.substr(0, slash), last.substr(slash + 1, last.find(' ') - slash - 1))
      << last;
}

}  // namespace
}  // namespace wcdma::runner
