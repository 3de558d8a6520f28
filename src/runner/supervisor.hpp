// Fault-tolerant multi-process sweep supervisor.
//
// run_supervised_sweep() shards the (scenario x replication) grid across N
// forked worker processes (src/runner/worker.hpp) in contiguous blocks of
// about equal cost (item_costs()), watches them, and merges their final
// checkpoints through sweep::merge_item_metrics() -- the same merge the
// in-process runner ends in, so the output is byte-identical to
// sweep::run_sweep() for any worker count.  The supervisor owns the robustness contract:
//
//  * crash detection -- exit codes and signals are attributed per shard;
//  * wall-clock timeouts -- a stalled worker is SIGKILLed at its deadline;
//  * bounded retries -- each failed shard relaunches up to max_retries
//    times on a jitter-free exponential backoff (backoff_delay_s());
//  * checkpoint recovery -- a retried shard resumes from its last valid
//    checkpoint (Simulator::snapshot() inside a crc-sealed shard archive)
//    instead of frame 0; a checkpoint that fails integrity is discarded
//    with a warning (restart-from-scratch is bit-identical too, the items
//    are deterministic in their seeds) or, under strict_checkpoint, turned
//    into a hard error naming the shard and file.
//
// Every failure path ends in one of two places: a merged result
// byte-identical to the fault-free run, or SupervisorResult::ok == false
// with `error` naming the shard and cause.  Never a silent partial merge.
//
// This file is the one deliberately wall-clock-dependent corner of the
// tree (timeouts, backoff scheduling); src/runner/ is allowlisted for the
// DET-WALLCLOCK lint rule because elapsed time only decides *when* a
// deterministic shard re-runs, never *what* it computes.
#pragma once

#include <cstdint>
#include <string>

#include "src/runner/fault.hpp"
#include "src/sweep/sweep.hpp"

namespace wcdma::runner {

/// Delay before retry attempt `retry` (0-based): base * 2^retry, capped.
/// Pure and jitter-free, so retry schedules are themselves deterministic
/// and unit-testable.
double backoff_delay_s(int retry, double base_s, double cap_s);

struct SupervisorOptions {
  /// Worker process count == shard count; >= 1.  Capped at the grid's
  /// item count, and a shard the cost split leaves empty starts no worker.
  std::size_t workers = 1;
  /// Per-attempt wall-clock budget in seconds; <= 0 disables the timeout.
  double timeout_s = 0.0;
  /// Retries per shard beyond the first attempt.
  int max_retries = 2;
  double backoff_base_s = 0.05;
  double backoff_cap_s = 2.0;
  /// Frames between worker checkpoints; 0 writes only each shard's final
  /// checkpoint (its result), so a retried shard restarts from frame 0.
  std::int64_t checkpoint_every_frames = 256;
  /// Directory for the shard checkpoint files; must exist.
  std::string work_dir = ".";
  /// Injected fault, forwarded to the worker whose shard it names.  A
  /// fault naming a shard that starts no worker (past the shard count, or
  /// left empty by the cost split) is refused before any worker forks.
  FaultPlan fault;
  /// Corrupt checkpoint = hard error instead of discard-and-restart.
  bool strict_checkpoint = false;
  /// Called with (items done, items total) each time a shard's final
  /// checkpoint decodes, so the count only grows and its last call reads
  /// total.
  sweep::ProgressFn progress;
};

struct SupervisorResult {
  bool ok = false;
  /// When !ok: names the failing shard and the attributed cause.
  std::string error;
  /// Valid when ok; byte-identical (through to_csv/to_json) to
  /// sweep::run_sweep() on the same spec.
  sweep::SweepResult result;

  // Robustness telemetry for tests and operators.
  int retries = 0;
  int timeouts = 0;
  int crashes = 0;
  int checkpoint_resumes = 0;
  int discarded_checkpoints = 0;
};

/// Runs the sweep under process supervision.  Each worker is a forked
/// child that runs run_worker() on `spec` itself and _exits, so every
/// worker simulates exactly the spec validated here.
SupervisorResult run_supervised_sweep(const sweep::SweepSpec& spec,
                                      const SupervisorOptions& options);

}  // namespace wcdma::runner
