// On-disk shard interchange for the multi-process sweep runner.
//
// A worker owns one contiguous block of (scenario x replication) item
// indices and communicates with the supervisor through exactly two files,
// both versioned little-endian archives (common/serialize.hpp) with a
// crc32 footer and an identity header binding them to one (spec, shard,
// worker-count, master-seed) tuple:
//
//  * result file  -- the shard's finished per-item SimMetrics, written
//    once, atomically (temp + rename), when every item is done.  The
//    supervisor merges result files in item-index order, so the merged
//    sweep is byte-identical to the in-process path for any worker count.
//  * checkpoint file -- the shard's progress mid-run: metrics of the
//    completed items plus a Simulator::snapshot() archive of the in-flight
//    item at its last checkpoint frame.  A retried worker resumes from
//    here instead of frame 0; a checkpoint that fails its checksum or
//    identity check is detected before a single field is trusted.
//
// Decoders fail soft with an attributed reason string -- the supervisor
// turns that into either a discard-and-restart (still bit-identical, the
// items are deterministic from their seeds) or a hard error naming the
// shard and file, never silent data loss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/metrics.hpp"

namespace wcdma::runner {

/// Contiguous item block [begin, end) of one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};
/// Block of `shard` when `total` items split across `workers` shards by
/// count (floor boundaries: sizes differ by at most one).
ShardRange shard_range(std::size_t total, std::size_t shard,
                       std::size_t workers);
/// Block of `shard` when items of the given costs split across `workers`
/// shards by cost: boundary s sits at the item whose running cost total is
/// nearest s/workers of the whole (the earlier one on a tie).  No shard
/// exceeds whole/workers by more than the costliest item; with fewer items
/// than workers some shards are empty.  Supervised sweeps split this way,
/// by frames x users per item (item_costs() in worker.hpp): E4/E5 put the
/// data-user axis outermost, so a count split overloads the last shard.
ShardRange shard_range(const std::vector<std::uint64_t>& costs,
                       std::size_t shard, std::size_t workers);

/// Identity header of both shard file kinds: a file is only trusted when
/// every field matches the run that expects it.
struct ShardHeader {
  std::uint64_t shard = 0;
  std::uint64_t workers = 0;
  std::uint64_t item_begin = 0;
  std::uint64_t item_end = 0;
  std::uint64_t master_seed = 0;

  bool operator==(const ShardHeader& o) const {
    return shard == o.shard && workers == o.workers &&
           item_begin == o.item_begin && item_end == o.item_end &&
           master_seed == o.master_seed;
  }
};

/// Whole-file read; false on any I/O error.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out);
/// Write-temp-then-rename, so a crashed writer never leaves a
/// half-written file under the final name; false on any I/O error.
bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

// --- Result files ---------------------------------------------------------
std::vector<std::uint8_t> encode_shard_result(
    const ShardHeader& header, const std::vector<sim::SimMetrics>& items);
/// Verifies checksum + identity before decoding; on failure returns false
/// with the reason in *error (when non-null) and leaves *items empty.
bool decode_shard_result(const std::vector<std::uint8_t>& bytes,
                         const ShardHeader& expect,
                         std::vector<sim::SimMetrics>* items,
                         std::string* error);

// --- Checkpoint files ------------------------------------------------------
struct ShardCheckpoint {
  ShardHeader header;
  /// First incomplete item; `completed` holds [header.item_begin, next_item).
  std::uint64_t next_item = 0;
  std::vector<sim::SimMetrics> completed;
  /// Simulator::snapshot() of the in-flight item at the checkpoint frame;
  /// empty when the checkpoint sits exactly on an item boundary.
  std::vector<std::uint8_t> snapshot;
};
std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& ck);
bool decode_shard_checkpoint(const std::vector<std::uint8_t>& bytes,
                             const ShardHeader& expect, ShardCheckpoint* out,
                             std::string* error);

}  // namespace wcdma::runner
