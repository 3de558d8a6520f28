#include "src/runner/shard_io.hpp"

#include <cstdio>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::runner {

namespace {

// The checkpoint holds SimMetrics encodings, so a metrics field moves its
// version.  v2: the metrics carry `requests_granted`.
constexpr std::uint32_t kCheckpointMagic = 0x43525357;  // "WSRC" little-endian
constexpr std::uint32_t kCheckpointVersion = 2;

template <typename Self, typename Archive>
void header_fields(Self& h, Archive& ar) {
  ar.field(h.shard);
  ar.field(h.workers);
  ar.field(h.item_begin);
  ar.field(h.item_end);
  ar.field(h.master_seed);
}

/// The checkpoint layout.  A reader starts from the header the run
/// expects, and refuses an archive of any other shard or run.
template <typename Self, typename Archive>
void checkpoint_fields(Self& ck, Archive& ar) {
  ar.expect(kCheckpointMagic);
  ar.expect(kCheckpointVersion);
  ar.blame("has a wrong magic/version");
  ar.expect(ck.header);
  ar.blame("belongs to a different shard/run");
  ar.field(ck.next_item);
  ar.check([&] {
    return ck.next_item >= ck.header.item_begin && ck.next_item <= ck.header.item_end;
  });
  ar.blame("progress cursor is out of range");
  // One metrics record per completed item; the cursor gives their count.
  if constexpr (Archive::kLoads) {
    ck.completed.resize(ar.ok() ? ck.next_item - ck.header.item_begin : 0);
  }
  for (std::size_t i = 0; i < ck.completed.size(); ++i) {
    ar.field(ck.completed[i]);
    ar.blame([&] {
      return "item " + std::to_string(ck.header.item_begin + i) + " failed to decode";
    });
  }
  ar.vec(ck.snapshot);
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
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

void ShardHeader::save(common::BinaryWriter& w) const { header_fields(*this, w); }

bool ShardHeader::load(common::BinaryReader& r) { return r.load_whole(*this, header_fields); }

std::vector<std::uint8_t> encode_shard_checkpoint(const ShardCheckpoint& ck) {
  WCDMA_ASSERT(ck.next_item >= ck.header.item_begin &&
               ck.next_item <= ck.header.item_end);
  WCDMA_ASSERT(ck.completed.size() == ck.next_item - ck.header.item_begin);
  WCDMA_ASSERT(ck.next_item < ck.header.item_end || ck.snapshot.empty());
  common::BinaryWriter w;
  checkpoint_fields(ck, w);
  common::seal(w);
  return w.take();
}

bool decode_shard_checkpoint(const std::vector<std::uint8_t>& bytes,
                             const ShardHeader& expect, ShardCheckpoint* out,
                             std::string* error) {
  *out = ShardCheckpoint{};
  if (bytes.size() <= common::kSealBytes) {
    return fail(error, "checkpoint truncated below the crc footer");
  }
  common::BinaryReader r(nullptr, 0);
  if (!common::unseal(bytes, &r)) return fail(error, "checkpoint failed its crc32 check");
  ShardCheckpoint ck;
  ck.header = expect;
  checkpoint_fields(ck, r);
  if (!r.ok() || !r.at_end()) {
    return fail(error, "checkpoint " + (r.failure().empty() ? "has trailing or missing payload"
                                                            : r.failure()));
  }
  *out = std::move(ck);
  return true;
}

}  // namespace wcdma::runner
