#include "src/runner/shard_io.hpp"

#include <cstdio>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::runner {

namespace {

// Both archives hold SimMetrics encodings, so a metrics field moves both
// versions.  v2: the metrics carry `requests_granted`.
constexpr std::uint32_t kResultMagic = 0x53525357;      // "WSRS" little-endian
constexpr std::uint32_t kResultVersion = 2;
constexpr std::uint32_t kCheckpointMagic = 0x43525357;  // "WSRC" little-endian
constexpr std::uint32_t kCheckpointVersion = 2;

void write_header(common::BinaryWriter& w, const ShardHeader& h) {
  w.u64(h.shard);
  w.u64(h.workers);
  w.u64(h.item_begin);
  w.u64(h.item_end);
  w.u64(h.master_seed);
}

ShardHeader read_header(common::BinaryReader& r) {
  ShardHeader h;
  h.shard = r.u64();
  h.workers = r.u64();
  h.item_begin = r.u64();
  h.item_end = r.u64();
  h.master_seed = r.u64();
  return h;
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Footer + magic/version gate shared by both decoders; on success `r` is
/// positioned after the version field and covers the payload only.
bool open_archive(const std::vector<std::uint8_t>& bytes, std::uint32_t magic,
                  std::uint32_t version, const char* what,
                  common::BinaryReader* reader, std::string* error) {
  if (bytes.size() <= common::kSealBytes) {
    return fail(error, std::string(what) + " truncated below the crc footer");
  }
  if (!common::unseal(bytes, reader)) {
    return fail(error, std::string(what) + " failed its crc32 check");
  }
  if (reader->u32() != magic || reader->u32() != version) {
    return fail(error, std::string(what) + " has a wrong magic/version");
  }
  return true;
}

/// Boundary s of the cost split: the smallest k minimising
/// |workers * cost[0, k) - s * whole|, in exact integers.  The running
/// total never decreases, so neither do the boundaries.
std::size_t cost_boundary(const std::vector<std::uint64_t>& costs,
                          std::uint64_t whole, std::size_t s,
                          std::size_t workers) {
  if (s == workers) return costs.size();
  const std::uint64_t target = s * whole;
  std::size_t best = 0;
  std::uint64_t best_gap = target;
  std::uint64_t prefix = 0;
  for (std::size_t k = 1; k <= costs.size(); ++k) {
    prefix += costs[k - 1];
    const std::uint64_t scaled = workers * prefix;
    const std::uint64_t gap = scaled > target ? scaled - target : target - scaled;
    if (gap < best_gap) {
      best = k;
      best_gap = gap;
    }
  }
  return best;
}

}  // namespace

ShardRange shard_range(std::size_t total, std::size_t shard,
                       std::size_t workers) {
  WCDMA_ASSERT(workers >= 1 && shard < workers);
  // Balanced split without overflow-prone multiplication ordering issues:
  // floor(shard * total / workers) boundaries.
  ShardRange range;
  range.begin = shard * total / workers;
  range.end = (shard + 1) * total / workers;
  return range;
}

ShardRange shard_range(const std::vector<std::uint64_t>& costs,
                       std::size_t shard, std::size_t workers) {
  WCDMA_ASSERT(workers >= 1 && shard < workers);
  std::uint64_t whole = 0;
  for (const std::uint64_t c : costs) {
    WCDMA_ASSERT(c <= UINT64_MAX / workers - whole && "grid cost overflows");
    whole += c;
  }
  ShardRange range;
  range.begin = cost_boundary(costs, whole, shard, workers);
  range.end = cost_boundary(costs, whole, shard + 1, workers);
  return range;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out->clear();
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fclose flushes; a full disk surfaces here and must not leave the final
  // name pointing at a short file.
  if (std::fclose(f) != 0 || written != bytes.size()) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<std::uint8_t> encode_shard_result(
    const ShardHeader& header, const std::vector<sim::SimMetrics>& items) {
  WCDMA_ASSERT(items.size() == header.item_end - header.item_begin);
  common::BinaryWriter w;
  w.u32(kResultMagic);
  w.u32(kResultVersion);
  write_header(w, header);
  for (const sim::SimMetrics& m : items) m.save(w);
  common::seal(w);
  return w.take();
}

bool decode_shard_result(const std::vector<std::uint8_t>& bytes,
                         const ShardHeader& expect,
                         std::vector<sim::SimMetrics>* items,
                         std::string* error) {
  items->clear();
  common::BinaryReader r(nullptr, 0);
  if (!open_archive(bytes, kResultMagic, kResultVersion, "result file", &r,
                    error)) {
    return false;
  }
  const ShardHeader h = read_header(r);
  if (!r.ok() || !(h == expect)) {
    return fail(error, "result file belongs to a different shard/run");
  }
  const std::size_t count = expect.item_end - expect.item_begin;
  items->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(*items)[i].load(r)) {
      items->clear();
      return fail(error,
                  "result file item " + std::to_string(expect.item_begin + i) +
                      " failed to decode");
    }
  }
  if (!r.ok() || !r.at_end()) {
    items->clear();
    return fail(error, "result file has trailing or missing payload");
  }
  return true;
}

std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& ck) {
  WCDMA_ASSERT(ck.next_item >= ck.header.item_begin &&
               ck.next_item <= ck.header.item_end);
  WCDMA_ASSERT(ck.completed.size() == ck.next_item - ck.header.item_begin);
  common::BinaryWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  write_header(w, ck.header);
  w.u64(ck.next_item);
  for (const sim::SimMetrics& m : ck.completed) m.save(w);
  w.blob(ck.snapshot);
  common::seal(w);
  return w.take();
}

bool decode_shard_checkpoint(const std::vector<std::uint8_t>& bytes,
                             const ShardHeader& expect, ShardCheckpoint* out,
                             std::string* error) {
  *out = ShardCheckpoint{};
  common::BinaryReader r(nullptr, 0);
  if (!open_archive(bytes, kCheckpointMagic, kCheckpointVersion, "checkpoint",
                    &r, error)) {
    return false;
  }
  const ShardHeader h = read_header(r);
  if (!r.ok() || !(h == expect)) {
    return fail(error, "checkpoint belongs to a different shard/run");
  }
  out->header = h;
  out->next_item = r.u64();
  if (!r.ok() || out->next_item < h.item_begin || out->next_item > h.item_end) {
    return fail(error, "checkpoint progress cursor is out of range");
  }
  const std::size_t completed =
      static_cast<std::size_t>(out->next_item - h.item_begin);
  out->completed.resize(completed);
  for (std::size_t i = 0; i < completed; ++i) {
    if (!out->completed[i].load(r)) {
      return fail(error, "checkpoint item " + std::to_string(h.item_begin + i) +
                             " failed to decode");
    }
  }
  r.blob(out->snapshot);
  if (!r.ok() || !r.at_end()) {
    return fail(error, "checkpoint has trailing or missing payload");
  }
  return true;
}

}  // namespace wcdma::runner
