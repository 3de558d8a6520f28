// On-disk shard interchange for the multi-process sweep runner.
//
// A worker owns one contiguous block of (scenario x replication) item
// indices and communicates with the supervisor through exactly one file:
// its checkpoint, a versioned little-endian archive (common/serialize.hpp)
// with a crc32 footer and an identity header binding it to one (spec,
// shard, worker-count, master-seed) tuple.  It holds the metrics of the
// completed items plus a Simulator::snapshot() archive of the in-flight
// item at its last checkpoint frame, and is rewritten atomically (temp +
// rename) at each one.  A retried worker resumes from it instead of frame
// 0.  A finished shard writes its final checkpoint -- every item
// completed, no snapshot -- which is the shard's result: the supervisor
// merges the final checkpoints in item-index order, so the merged sweep is
// byte-identical to the in-process path for any worker count.
//
// The decoder fails soft with an attributed reason string, checksum and
// identity first, before a single field is trusted -- the supervisor turns
// that into either a discard-and-restart (still bit-identical, the items
// are deterministic from their seeds) or a hard error naming the shard and
// file, never silent data loss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/metrics.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

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

/// Identity header of the shard checkpoint: a file is only trusted when
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
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);
};

/// Whole-file read; false on any I/O error.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out);
/// Write-temp-then-rename, so a crashed writer never leaves a
/// half-written file under the final name; false on any I/O error.
bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

// --- Checkpoint files ------------------------------------------------------
struct ShardCheckpoint {
  ShardHeader header;
  /// First incomplete item; `completed` holds [header.item_begin, next_item).
  /// header.item_end in the final checkpoint.
  std::uint64_t next_item = 0;
  std::vector<sim::SimMetrics> completed;
  /// Simulator::snapshot() of the in-flight item at the checkpoint frame;
  /// empty when the checkpoint sits exactly on an item boundary, as the
  /// final one does.
  std::vector<std::uint8_t> snapshot;
};
std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& ck);
/// Verifies checksum + identity before decoding; on failure returns false
/// with the reason in *error (when non-null) and leaves *out empty.
bool decode_shard_checkpoint(const std::vector<std::uint8_t>& bytes,
                             const ShardHeader& expect, ShardCheckpoint* out,
                             std::string* error);

}  // namespace wcdma::runner
