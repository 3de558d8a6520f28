// Hierarchical far-field interference aggregation for the culled provider.
//
// The culled channel-state provider drops every non-candidate cell from
// a user's link state, which removes its interference contribution entirely
// -- a ~0.10 blocking-probability gap vs the exhaustive reference on the
// 19-cell hotspot, growing with world size (docs/ACCURACY.md).  The paper's
// Eq. 7 admissible-region test budgets against TOTAL received interference,
// so the residual from far cells belongs in the SIR denominators even when
// their per-link fading state is not worth tracking.
//
// FarFieldAggregator restores that residual as ONE additive term per link
// direction, computed from ring-aggregated mean gains instead of per-link
// state:
//
//  * Geometry is bucketed once at init: cell pair (a, k) falls into ring
//    r = floor(d(a, k) / ring_width) around anchor cell a, and each (a, r)
//    bucket stores the mean local-mean gain of its cells -- path loss at the
//    centre distance times the lognormal shadowing mean
//    E[10^(S/10)] = exp((sigma ln10 / 10)^2 / 2), so the aggregate is
//    unbiased against the expectation of the exhaustive far field.  The SAME
//    ring-quantised gain G(a, k) is used both when summing all cells and
//    when subtracting a user's candidates, so the far term is a sum over
//    exactly the non-candidate cells and can never go negative by more than
//    floating-point residue (clamped to zero).
//  * Forward link: A[a][c] = sum_k G(a, k) P_fwd(k, c) over all cells; a
//    user anchored at a with candidate set C sees
//    far_fl = A[a][c] - sum_{k in C} G(a, k) P_fwd(k, c), written into the
//    FrameState's per-user aggregate lane and added to the interference
//    total alongside thermal noise.
//  * Reverse link: per-(anchor, carrier) transmit-power buckets
//    TX[a][c] = sum_{users anchored at a on carrier c} tx_i are maintained
//    INCREMENTALLY -- one O(1) delta per user per frame as transmit powers,
//    carriers, and (at refresh) anchors change -- and folded through the
//    ring gains into a per-station term
//    far_rl[k][c] = sum_a G(a, k) TX[a][c] - (each contributor's candidate
//    cells), added to the station's received power alongside thermal noise.
//
// A user's anchor is its active-set primary, sampled at refresh time; the
// whole aggregate refreshes on the simulator's slow candidate-refresh
// timer (csi.refresh_interval_s), so the per-frame hot path gains exactly
// one add per link row and one bucket delta per user.  Everything here runs
// sequentially on the frame thread: results stay bit-identical for every
// sim.threads value, and no RNG stream is consumed, so paired
// common-random-number sweeps stay paired.
//
// Inactive (csi.far_field.enabled = false, or a non-culling provider) the
// aggregator holds all-zero terms and the simulator's sums are bit-identical
// to the pre-far-field path -- the exhaustive goldens never move.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cell/geometry.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/sim/config.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::sim {

class FrameState;

class FarFieldAggregator {
 public:
  /// Precomputes the ring geometry and mean-gain tables.  `provider_culls`
  /// comes from FrameState::culls(): an exhaustive world has no far field,
  /// so the aggregator stays inactive (all terms zero) there regardless of
  /// the config knob.
  void init(const cell::HexLayout* layout, const channel::PathLoss* path_loss,
            const channel::ShadowingConfig& shadowing, const CsiConfig& csi,
            std::size_t num_users, int carriers, bool provider_culls);

  bool active() const { return active_; }

  /// O(1) incremental TX-bucket maintenance: `user` now transmits `tx_w` on
  /// `carrier` (anchored wherever the last refresh put it).  Call once per
  /// user per frame after transmit powers settle; no-op while inactive.
  void on_user_tx(std::size_t user, double tx_w, int carrier);

  /// Slow-timer refresh: re-anchors every user at `anchor[user]` (its
  /// active-set primary), recomputes the forward aggregates from
  /// `station_forward_w` ([cell * carriers + c], last frame's TX powers),
  /// subtracts each user's candidate cells (FrameState::cells_for), and
  /// writes the per-user forward lane into `state` plus the per-station
  /// reverse terms.  Sequential; call from the frame thread only.
  void refresh(FrameState& state, const std::uint32_t* anchor,
               const double* station_forward_w);

  /// Aggregate far-field power received at station (cell, carrier) on the
  /// reverse link, watts.  Zero while inactive.
  double reverse_far_w(std::size_t cell, int carrier) const {
    return reverse_far_w_[cell * static_cast<std::size_t>(carriers_) +
                          static_cast<std::size_t>(carrier)];
  }

  /// Ring-quantised mean gain G(anchor, cell) (test/debug hook).
  double ring_gain(std::size_t anchor, std::size_t cell) const {
    return gain_of(anchor, cell);
  }
  std::size_t num_rings() const { return num_rings_; }

  /// Cross-checks the incrementally maintained TX buckets against a
  /// rebuild-from-scratch over the applied per-user states: the O(1) deltas
  /// may only drift from the batch sum by floating-point residue.  Test
  /// hook for the bucket-maintenance regression suite.
  bool tx_buckets_match_rebuild(double rel_tol) const;

  /// Serializes the evolved state (TX buckets, applied per-user deltas,
  /// refresh outputs); ring geometry is reproduced by init() on the same
  /// config.  Inactive aggregators round-trip as a single flag.  load()
  /// refuses anchors outside the world and carriers outside [0, carriers).
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& agg, Archive& ar);
  double gain_of(std::size_t anchor, std::size_t cell) const {
    return ring_gain_[anchor * num_rings_ + ring_of_[anchor * num_cells_ + cell]];
  }
  std::size_t bucket_index(std::size_t anchor, int carrier) const {
    return anchor * static_cast<std::size_t>(carriers_) +
           static_cast<std::size_t>(carrier);
  }

  bool active_ = false;
  std::size_t num_cells_ = 0;
  std::size_t num_users_ = 0;
  std::size_t num_rings_ = 0;
  int carriers_ = 1;

  // Ring geometry, fixed at init: ring index per (anchor, cell) pair and
  // the mean local-mean gain per (anchor, ring) bucket.
  std::vector<std::uint16_t> ring_of_;  // [anchor * cells + cell]
  std::vector<double> ring_gain_;       // [anchor * num_rings + ring]

  // Incremental reverse TX buckets plus the per-user state last applied to
  // them (what a rebuild-from-scratch re-sums).
  std::vector<double> tx_sum_;             // [anchor * carriers + carrier]
  std::vector<double> applied_tx_w_;       // [user]
  std::vector<int> applied_carrier_;       // [user]
  std::vector<std::uint32_t> applied_anchor_;  // [user]

  // Refresh outputs / scratch.
  std::vector<double> reverse_far_w_;  // [cell * carriers + carrier]
  std::vector<double> fwd_agg_w_;      // scratch: A[anchor * carriers + carrier]
};

}  // namespace wcdma::sim
