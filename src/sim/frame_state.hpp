// Structure-of-arrays per-link channel state for the simulator hot path.
//
// FrameState keeps every (user, cell) link's state -- the composite channel
// of Eq. (1) over the mean path loss -- in flat, simulator-owned buffers
// indexed [user * num_cells + cell], so the measurement loops stream
// linearly:
//
//  * shadowing and local-mean gain: a per-link value_db lane and a per-link
//    xoshiro stream, the streams side by side in one common::RngBank.
//    step_users() steps every candidate link of a group of users once per
//    frame in link-major 64-link blocks that run across user boundaries:
//    the bank draws a block's innovations in one batched polar pass,
//    HexLayout::distance_sq_lane gives the squared wrap distances, and
//    kernels::shadow_gain_lane folds each link's shadowing and the log2 of
//    its squared distance into one exp2.  The AR(1) correlation pair is one
//    exp/sqrt per *user* (all links of a mobile move together);
//  * fast fading: per-link AR(1) state advanced LAZILY -- the stream
//    is replayed up to the current frame only when a link's fading factor
//    is observed (the serving leg of an active burst).  Bit-identical to
//    stepping every frame because each link owns its RNG stream and only
//    observed values enter the metrics; candidate links that are never
//    observed simply never consume their draws.
//  * local-mean gains and forward pilots: flat double buffers shared by the
//    interference, pilot, and rise loops.  Each frame rewrites every
//    candidate link's entries before any read, and no loop reads another
//    link's, so both are per-frame scratch: entries outside the candidate
//    set keep stale values, and neither lane is checkpointed.
//
// FrameState also owns each user's candidate set -- the cells whose links
// it steps -- as the `csi.provider` row (src/sim/channel_state.hpp) says:
// every cell on `exhaustive`; on `culled`, the active-set members plus the
// cells within csi.cull_radius_scale cell radii, chosen again whenever the
// user's csi.refresh_interval_s timer runs out.  A monotone epoch moves
// whenever any set changes.  The cell -> users transpose of the sets is
// derived state, rebuilt only when the epoch moves (and on load) and never
// checkpointed.  It is what turns the reverse-link rise update from a
// scatter (racy under sharding) into a deterministic per-station gather in
// ascending user order.
//
// RNG stream discipline: link (user, cell) forks user_rng.fork(100 + cell),
// shadowing consumes fork(1), fading fork(2).  Golden tests pin the
// resulting trajectories.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/cell/geometry.hpp"
#include "src/channel/fading.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/sim/config.hpp"

namespace wcdma::sim {

class FrameState {
 public:
  /// Binds the world, folds the path-loss model into the gain lane's two
  /// constants, and fixes, from the `csi.provider` row, whether the
  /// candidate sets cull.
  void init(const cell::HexLayout* layout, const channel::PathLoss* path_loss,
            const channel::ShadowingConfig& shadowing, const CsiConfig& csi,
            double frame_s, std::size_t num_users);

  /// Builds one user's per-cell link state from the `user_rng` streams
  /// (see the stream discipline above).
  void init_user(std::size_t user, const common::Rng& user_rng, double doppler_hz);

  bool culls() const { return culls_; }

  /// Starts a new frame (advances the lazy-fading clock).  Call once per
  /// simulator frame before stepping any user.
  void advance_frame() { ++frame_; }
  /// Frames started since init (the lazy-fading clock).
  std::int64_t frame() const { return frame_; }

  /// The channel step of users [begin, end), user u having moved
  /// moved_m[u - begin] metres to pos[u - begin]: on `culled`, counts down
  /// each user's refresh timer and, when it runs out (or before the user's
  /// first step), chooses its candidate set again around
  /// *active_members[u - begin]; then steps shadowing and refreshes the
  /// local-mean gain of every link (u, k), k in cells_for(u), in link-major
  /// blocks that run across user boundaries.  Reads and writes only these
  /// users' state, so it is safe to call concurrently for disjoint ranges,
  /// and any split of the users into ranges gives the same bits.
  void step_users(std::size_t begin, std::size_t end, const cell::Point* pos,
                  const double* moved_m,
                  const std::vector<std::size_t>* const* active_members);

  /// Cells with live link state for `user`, ascending: every cell on
  /// `exhaustive`, the candidate set otherwise (empty before the user's
  /// first step).  step_users() writes this frame's gain of exactly these
  /// links, and every loop that reads a gain or pilot iterates this set or
  /// a subset (the active-set members stay candidates); entries outside it
  /// are stale.
  const std::vector<std::size_t>& cells_for(std::size_t user) const {
    return culls_ ? candidates_[user] : all_cells_;
  }

  /// Moves whenever any user's candidate set changes: 0 forever on
  /// `exhaustive`, from 1 on `culled`.
  std::uint64_t candidate_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Rebuilds the cell -> users transpose if the epoch moved since the last
  /// build.  Sequential; call between the channel and measurement phases.
  void refresh_transpose() {
    if (candidate_epoch() != transpose_epoch_) rebuild_transpose();
  }

  /// Users holding `cell` as a candidate, ascending (transpose index).
  const std::uint32_t* users_of_cell_begin(std::size_t cell) const {
    return &transpose_users_[transpose_offsets_[cell]];
  }
  std::size_t users_of_cell_count(std::size_t cell) const {
    return transpose_offsets_[cell + 1] - transpose_offsets_[cell];
  }

  /// Fast-fading power factor of link (user, cell) at the current frame;
  /// replays the link's fading stream up to the frame clock on demand.
  double fading_factor(std::size_t user, std::size_t cell);

  double gain_mean(std::size_t user, std::size_t cell) const {
    return gain_mean_[user * num_cells_ + cell];
  }
  const double* gain_mean_row(std::size_t user) const {
    return &gain_mean_[user * num_cells_];
  }
  double pilot_fl(std::size_t user, std::size_t cell) const {
    return pilot_fl_[user * num_cells_ + cell];
  }
  double* pilot_fl_row(std::size_t user) { return &pilot_fl_[user * num_cells_]; }

  // --- Far-field aggregate lane (src/sim/far_field.hpp) -------------------
  /// Ring-aggregated forward interference from the user's non-candidate
  /// cells, watts; added to the interference total alongside thermal noise.
  /// Zero unless the FarFieldAggregator is active and refreshed it, so the
  /// default exhaustive path stays bit-identical.
  double far_fl_w(std::size_t user) const { return far_fl_w_[user]; }
  void set_far_fl_w(std::size_t user, double w) { far_fl_w_[user] = w; }

  std::size_t num_cells() const { return num_cells_; }
  std::size_t num_users() const { return num_users_; }

  // --- Invariant checks (Simulator::check_invariants) ----------------------
  /// Every candidate set is well formed (set_well_formed()), and the
  /// transpose equals a rebuild from the sets: the epoch contract says they
  /// may only disagree if a set changed without moving the epoch.  O(links).
  bool candidate_index_consistent() const;
  /// Every link's lazy-fading clock lies in [0, frame()].
  bool fading_clocks_valid() const;

  /// Serializes the state a later frame reads: frame clock, shadowing/fading
  /// RNG streams and lanes, far-field lane, and on `culled` the epoch,
  /// refresh timers and candidate sets.  The gain and pilot lanes are
  /// per-frame scratch (see the file comment) and stay out; load() leaves
  /// them as they were.  Init-time state (geometry tables, per-user fading
  /// coefficients, gain-lane fold constants) is reproduced by re-running
  /// init()/init_user() on the same config, and the transpose by a rebuild,
  /// so load() overwrites only what evolves, size-checks every lane against
  /// the initialised layout, and refuses any candidate set that
  /// set_well_formed() rejects before the rebuild indexes with it.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& state, Archive& ar);

  /// Up to kSize candidate links of consecutive users, each with its
  /// user's AR(1) pair and its clamped squared distance.
  struct LinkBlock {
    static constexpr std::size_t kSize = 64;
    std::size_t fill = 0;
    std::size_t link[kSize];
    double rho[kSize], innovation[kSize], d_sq[kSize];
  };

  /// Chooses `user`'s candidate set again around `active_members` and moves
  /// the epoch if it changed.
  void refresh_candidates(std::size_t user, cell::Point pos,
                          const std::vector<std::size_t>& active_members);
  /// Draws the block's innovations from the stream bank, steps its
  /// shadowing and writes its gains; leaves the block empty.
  void step_block(LinkBlock& block);
  /// The cell -> users transpose of the candidate sets, by counting sort.
  void build_transpose(std::vector<std::uint32_t>& offsets,
                       std::vector<std::uint32_t>& users) const;
  void rebuild_transpose();
  /// Ascending, unique, in range, and (on `culled`) empty exactly
  /// while the frame clock reads 0.
  bool set_well_formed(const std::vector<std::size_t>& cells) const;
  std::size_t link_index(std::size_t user, std::size_t cell) const {
    WCDMA_DEBUG_ASSERT(user < num_users_ && cell < num_cells_);
    return user * num_cells_ + cell;
  }

  const cell::HexLayout* layout_ = nullptr;
  const channel::PathLoss* path_loss_ = nullptr;
  channel::ShadowingConfig shadowing_{};
  double frame_s_ = 0.020;
  std::size_t num_users_ = 0;
  std::size_t num_cells_ = 0;
  std::int64_t frame_ = 0;

  // Per-link shadowing state (stepped eagerly for candidates).
  common::RngBank shadow_rng_;
  std::vector<double> shadow_db_;

  // Per-link AR(1) fading state (advanced lazily).  rho/innovation depend
  // only on the user's Doppler, so they live per user.
  std::vector<common::Rng> fade_rng_;
  std::vector<double> fade_re_, fade_im_;
  std::vector<std::int64_t> fade_frame_;
  std::vector<double> fade_rho_, fade_innovation_;  // per user

  // Per-frame link outputs (flat, stride num_cells_; scratch, see above).
  std::vector<double> gain_mean_;
  std::vector<double> pilot_fl_;
  // Far-field aggregate lane, one forward term per user (stride 1).
  std::vector<double> far_fl_w_;

  // The path-loss model is affine in log10(d), so loss_db(d) = A + B log10(d)
  // folds with the dB->linear conversion into one exp2 per link:
  //   gain = 2^(K (shadow_db - A) - (B / 20) log2(max(d^2, d_min^2))),
  // K = log2(10) / 10.
  double gain_bias_ = 0.0;           // -K * A
  /// (B / 10) * 0.5: the d^2 form of the loss term (exact: a power-of-two
  /// scale), matching kernels::shadow_gain_lane's signature.
  double half_log2_slope_ = 0.0;
  double min_distance_sq_m_ = 0.0;   // near-field clamp, squared metres

  // Candidate sets.  `exhaustive` lists every cell once in all_cells_;
  // `culled` keeps one ascending set and one refresh countdown per user,
  // and step_users() writes both from the shard pool, each user's from
  // one shard.
  bool culls_ = false;
  double cull_radius_sq_m_ = 0.0;
  double refresh_interval_s_ = 0.0;
  std::vector<std::size_t> all_cells_;
  std::vector<std::vector<std::size_t>> candidates_;
  std::vector<double> refresh_left_s_;
  std::atomic<std::uint64_t> epoch_{0};

  // Cell -> users transpose of the sets, valid for transpose_epoch_.
  std::vector<std::uint32_t> transpose_offsets_, transpose_users_;
  std::uint64_t transpose_epoch_ = 0;
};

}  // namespace wcdma::sim
