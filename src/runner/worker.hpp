// One sweep-shard worker process: runs a contiguous block of the
// (scenario x replication) grid through the deterministic item_config()
// seeding, checkpoints its progress every `checkpoint_every_frames`
// frames, and ends in a final checkpoint holding every item's metrics.
//
// run_worker() is the whole process body: the supervisor calls it in a
// forked child, on its own SweepSpec, for the CLI and the tests alike.  The
// worker is a pure function of its job description plus the files on disk,
// so a retried attempt -- resumed from the checkpoint or restarted from
// scratch -- reproduces the exact metrics an undisturbed attempt would
// have produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/fault.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma::runner {

/// Worker process exit codes the supervisor attributes failures by.
inline constexpr int kWorkerOk = 0;
/// The checkpoint it was told to resume from failed integrity/decoding.
inline constexpr int kWorkerBadCheckpoint = 3;
/// The checkpoint could not be written (I/O error, full disk).
inline constexpr int kWorkerIoError = 4;

struct WorkerJob {
  sweep::SweepSpec spec;
  std::size_t shard = 0;
  std::size_t workers = 1;
  std::string checkpoint_path;
  /// Frames between checkpoint writes within an item; 0 writes only the
  /// final checkpoint (a retried shard restarts from frame 0).
  std::int64_t checkpoint_every_frames = 0;
  /// Resume from checkpoint_path instead of the shard's first item.  The
  /// supervisor validates the file before setting this; an unusable
  /// checkpoint still exits kWorkerBadCheckpoint as a backstop.
  bool resume = false;
  /// Self-injected fault, already filtered to this shard by the
  /// supervisor; fires only when armed for `attempt`.
  FaultPlan fault;
  /// 0-based attempt number (retries increment it).
  int attempt = 0;
};

/// Per-item cost the grid is sharded by: total frames x (voice + data
/// users) of each item_config().  E4/E5 put the data-user axis outermost,
/// so a split by item count would hand the last shard all the heaviest
/// items.  The supervisor and every forked worker cut
/// shard_range(item_costs(spec), shard, workers) from the same spec, so
/// they agree on every boundary.
std::vector<std::uint64_t> item_costs(const sweep::SweepSpec& spec);

/// Runs the shard to completion; returns the process exit code.  Never
/// throws; fault kinds kKill/kStall/kCorruptCheckpoint do not return.
int run_worker(const WorkerJob& job);

}  // namespace wcdma::runner
