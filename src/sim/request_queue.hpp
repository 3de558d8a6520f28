// Indexed pending-burst-request queues for the admission hot path.
//
// The legacy frame loop re-scanned every user per frame to gather pending
// burst requests (and again per (direction, carrier) scheduling round) --
// O(users) work per round even when nothing is pending, which dominates at
// large populations with short scheduling rounds.  RequestQueues maintains
// one bucket per (direction, carrier) incrementally at the MAC transitions
// that actually change membership:
//
//   * burst arrival while no burst is active        -> add
//   * grant applied (request becomes a burst)       -> remove
//   * inter-carrier hand-down at grant time         -> remove from the old
//     carrier's bucket (the grant removal), re-adds are impossible because
//     the request became a burst
//
// Rejected requests stay queued (the SCRM retry gate is evaluated at
// snapshot time), so rejection costs no queue maintenance.  Buckets store
// ascending user ids, which keeps each scheduling round's request order
// identical to the legacy full scan -- the refactor is bit-identical by
// construction, and a cross-check against the O(users) scan is pinned in
// tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::sim {

class RequestQueues {
 public:
  /// One bucket per (direction, carrier); all buckets start empty.
  void init(int carriers) {
    WCDMA_ASSERT(carriers >= 1);
    carriers_ = carriers;
    buckets_.assign(2 * static_cast<std::size_t>(carriers), {});
  }

  void add(int user, int carrier, bool forward) {
    std::vector<int>& b = bucket_mut(forward, carrier);
    const auto it = std::lower_bound(b.begin(), b.end(), user);
    WCDMA_DEBUG_ASSERT(it == b.end() || *it != user);
    b.insert(it, user);
  }

  void remove(int user, int carrier, bool forward) {
    std::vector<int>& b = bucket_mut(forward, carrier);
    const auto it = std::lower_bound(b.begin(), b.end(), user);
    WCDMA_ASSERT(it != b.end() && *it == user && "removing a user not queued");
    b.erase(it);
  }

  /// Ascending user ids pending on (direction, carrier).
  const std::vector<int>& bucket(bool forward, int carrier) const {
    WCDMA_DEBUG_ASSERT(carrier >= 0 && carrier < carriers_);
    return buckets_[index(forward, carrier)];
  }

  /// Total queued requests across every bucket (the pending-queue metric).
  std::size_t total_pending() const {
    std::size_t n = 0;
    for (const std::vector<int>& b : buckets_) n += b.size();
    return n;
  }

  int carriers() const { return carriers_; }

  void save(common::BinaryWriter& w) const { fields(*this, w); }
  bool load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

 private:
  template <typename Self, typename Archive>
  static void fields(Self& q, Archive& ar) {
    ar.expect(q.buckets_.size());  // shape fixed at init
    for (auto& bucket : q.buckets_) ar.vec(bucket);
  }

  std::size_t index(bool forward, int carrier) const {
    return (forward ? 0 : 1) * static_cast<std::size_t>(carriers_) +
           static_cast<std::size_t>(carrier);
  }
  std::vector<int>& bucket_mut(bool forward, int carrier) {
    WCDMA_DEBUG_ASSERT(carrier >= 0 && carrier < carriers_);
    return buckets_[index(forward, carrier)];
  }

  int carriers_ = 1;
  std::vector<std::vector<int>> buckets_;
};

}  // namespace wcdma::sim
