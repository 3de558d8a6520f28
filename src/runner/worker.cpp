#include "src/runner/worker.hpp"

#include <csignal>
#include <cstdio>
#include <chrono>
#include <thread>
#include <vector>

#include "src/runner/shard_io.hpp"
#include "src/sim/simulator.hpp"

namespace wcdma::runner {

namespace {

/// Damages a just-written checkpoint in place: a single flipped bit or a
/// truncation to half size.  Both must trip the crc32 footer on the next
/// read -- that is exactly what the fault-injection tests assert.
void corrupt_file(const std::string& path, CorruptMode mode) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, &bytes) || bytes.empty()) return;
  if (mode == CorruptMode::kTruncate) {
    bytes.resize(bytes.size() / 2);
  } else {
    bytes[bytes.size() / 2] ^= 0x01;
  }
  write_file_atomic(path, bytes);
}

[[noreturn]] void stall_forever() {
  // The supervisor's wall-clock timeout is the only way out of here; the
  // worker is SIGKILLed once the deadline passes.
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

}  // namespace

std::vector<std::uint64_t> item_costs(const sweep::SweepSpec& spec) {
  std::vector<std::uint64_t> costs(sweep::item_count(spec));
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const sim::SystemConfig cfg = sweep::item_config(spec, i);
    costs[i] = static_cast<std::uint64_t>(cfg.total_frames()) *
               static_cast<std::uint64_t>(cfg.voice.users + cfg.data.users);
  }
  return costs;
}

int run_worker(const WorkerJob& job) {
  const ShardRange range =
      shard_range(item_costs(job.spec), job.shard, job.workers);
  ShardHeader header;
  header.shard = job.shard;
  header.workers = job.workers;
  header.item_begin = range.begin;
  header.item_end = range.end;
  header.master_seed = job.spec.base.seed;

  // The shard's progress, kept in checkpoint form: `completed` grows item
  // by item, and a cadence frame only refreshes the snapshot.
  ShardCheckpoint ck;
  ck.header = header;
  ck.next_item = range.begin;
  if (job.resume) {
    std::vector<std::uint8_t> bytes;
    std::string why;
    if (!read_file(job.checkpoint_path, &bytes) ||
        !decode_shard_checkpoint(bytes, header, &ck, &why)) {
      std::fprintf(stderr, "worker shard %zu: cannot resume from %s (%s)\n",
                   job.shard, job.checkpoint_path.c_str(),
                   why.empty() ? "unreadable file" : why.c_str());
      return kWorkerBadCheckpoint;
    }
  }
  const std::size_t start_item = static_cast<std::size_t>(ck.next_item);

  const bool fault_armed = job.fault.armed_for(job.shard, job.attempt);
  bool fault_fired = false;

  for (std::size_t item = start_item; item < range.end; ++item) {
    sim::Simulator sim(sweep::item_config(job.spec, item));
    ck.next_item = item;
    if (item == start_item && !ck.snapshot.empty() && !sim.restore(ck.snapshot)) {
      std::fprintf(stderr,
                   "worker shard %zu: snapshot in %s refused by restore()\n",
                   job.shard, job.checkpoint_path.c_str());
      return kWorkerBadCheckpoint;
    }
    const std::int64_t frames = sim.total_frames();
    while (sim.frame_index() < frames) {
      sim.step_frame();
      const std::int64_t at = sim.frame_index();
      const bool item_matches =
          job.fault.item == SIZE_MAX || job.fault.item == item;
      // Checkpoint cadence first, fault trigger second: "kill at frame N"
      // with N on the cadence leaves the frame-N checkpoint on disk, which
      // is precisely the boundary the resume property tests exercise.
      if (job.checkpoint_every_frames > 0 && at < frames &&
          at % job.checkpoint_every_frames == 0) {
        ck.snapshot = sim.snapshot();
        if (!write_file_atomic(job.checkpoint_path,
                               encode_shard_checkpoint(ck))) {
          std::fprintf(stderr, "worker shard %zu: cannot write checkpoint %s\n",
                       job.shard, job.checkpoint_path.c_str());
          return kWorkerIoError;
        }
        if (fault_armed && !fault_fired && item_matches &&
            job.fault.kind == FaultKind::kCorruptCheckpoint &&
            at >= job.fault.frame) {
          fault_fired = true;
          corrupt_file(job.checkpoint_path, job.fault.mode);
          raise(SIGKILL);
        }
      }
      if (fault_armed && !fault_fired && item_matches &&
          at == job.fault.frame) {
        if (job.fault.kind == FaultKind::kKill) {
          fault_fired = true;
          raise(SIGKILL);
        } else if (job.fault.kind == FaultKind::kStall) {
          fault_fired = true;
          stall_forever();
        }
      }
    }
    ck.completed.push_back(sim.metrics());
  }

  if (fault_armed && job.fault.kind == FaultKind::kDropResult) {
    // Finish "successfully" without the final checkpoint: the supervisor
    // must attribute the missing result to this shard and retry, never
    // merge a partial grid.
    return kWorkerOk;
  }
  // The final checkpoint is the shard's result.
  ck.next_item = range.end;
  ck.snapshot.clear();
  if (!write_file_atomic(job.checkpoint_path, encode_shard_checkpoint(ck))) {
    std::fprintf(stderr, "worker shard %zu: cannot write final checkpoint %s\n",
                 job.shard, job.checkpoint_path.c_str());
    return kWorkerIoError;
  }
  return kWorkerOk;
}

}  // namespace wcdma::runner
