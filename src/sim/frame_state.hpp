// Structure-of-arrays per-link channel state for the simulator hot path.
//
// FrameState keeps every (user, cell) link's state -- the composite channel
// of Eq. (1) over the mean path loss -- in flat, simulator-owned buffers
// indexed [user * num_cells + cell], so the measurement loops stream
// linearly:
//
//  * shadowing: per-link (rng, value_db) pairs stepped once per frame for
//    every candidate cell, with the AR(1) correlation pair hoisted to one
//    exp/sqrt per *user* (all links of a mobile move together);
//  * fast fading: per-link AR(1) state advanced LAZILY -- the stream
//    is replayed up to the current frame only when a link's fading factor
//    is observed (the serving leg of an active burst).  Bit-identical to
//    stepping every frame because each link owns its RNG stream and only
//    observed values enter the metrics; candidate links that are never
//    observed simply never consume their draws.
//  * local-mean gains and forward pilots: flat double buffers shared by the
//    interference, pilot, and rise loops.
//
// Candidate sets come from the ChannelStateProvider as per-user cell lists;
// FrameState folds them into a CSR-style (offsets, cells) index plus its
// transpose (cell -> users), rebuilt only when the provider's candidate
// epoch moves.  The transpose is what turns the reverse-link rise update
// from a scatter (racy under sharding) into a deterministic per-station
// gather in ascending user order.
//
// RNG stream discipline: link (user, cell) forks user_rng.fork(100 + cell),
// shadowing consumes fork(1), fading fork(2).  Golden tests pin the
// resulting trajectories.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cell/geometry.hpp"
#include "src/channel/fading.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/common/ziggurat.hpp"

namespace wcdma::sim {

class ChannelStateProvider;

class FrameState {
 public:
  void init(const cell::HexLayout* layout, const channel::PathLoss* path_loss,
            const channel::ShadowingConfig& shadowing, double frame_s,
            std::size_t num_users);

  /// Builds one user's per-cell link state from the `user_rng` streams
  /// (see the stream discipline above).
  void init_user(std::size_t user, const common::Rng& user_rng, double doppler_hz);

  /// Switches link stepping and AR(1) fading replay onto the relaxed-
  /// precision kernels (common/fastmath.hpp + ziggurat draws): the fused
  /// dB->linear composite gain replaces the per-link pow/log10 pair, and
  /// shadowing/fading innovations come from the ziggurat instead of polar
  /// Box-Muller.  Same per-link RNG streams, same lazy-replay contract,
  /// same candidate semantics -- but NOT bit-identical to the default path,
  /// so only the `fast` channel-state provider may flip this.  Must be
  /// called after init() (it folds the path-loss model into affine
  /// log-domain constants).
  void set_fast_math(bool on);
  bool fast_math() const { return fast_math_; }

  /// Starts a new frame (advances the lazy-fading clock).  Call once per
  /// simulator frame before stepping any user.
  void advance_frame() { ++frame_; }

  /// Steps shadowing and refreshes local-mean gains for the user's
  /// candidate `cells` after the mobile moved `moved_m` to `pos`.  On the
  /// reference path the link distances are taken in 32-link blocks through
  /// kernels::hypot_lane, which equals std::hypot bit for bit at every
  /// dispatch level.  Safe to call concurrently for distinct users.
  void step_user_links(std::size_t user, cell::Point pos, double moved_m,
                       const std::size_t* cells, std::size_t count);

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

  /// Zeroes the cached gain of a link leaving a candidate set, so dropped
  /// cells stop contributing to interference sums.
  void clear_gain(std::size_t user, std::size_t cell) {
    gain_mean_[user * num_cells_ + cell] = 0.0;
  }

  std::size_t num_cells() const { return num_cells_; }
  std::size_t num_users() const { return num_users_; }

  // --- CSR candidate index (built from the provider's per-user lists) -----
  /// Rebuilds the CSR candidate index and its transpose if the provider's
  /// candidate epoch moved since the last build.  Sequential; call between
  /// the channel and measurement phases.
  void refresh_candidate_index(const ChannelStateProvider& provider);

  /// True once refresh_candidate_index() has built the CSR index at least
  /// once (the far-field refresh must wait for it on the first frame).
  bool has_candidate_index() const {
    return csr_offsets_.size() == num_users_ + 1;
  }

  /// Candidate cells of `user` as a contiguous [begin, end) range.
  const std::uint32_t* candidates_begin(std::size_t user) const {
    return &csr_cells_[csr_offsets_[user]];
  }
  std::size_t candidate_count(std::size_t user) const {
    return csr_offsets_[user + 1] - csr_offsets_[user];
  }

  /// Users holding `cell` as a candidate, ascending (transpose index).
  const std::uint32_t* users_of_cell_begin(std::size_t cell) const {
    return &transpose_users_[transpose_offsets_[cell]];
  }
  std::size_t users_of_cell_count(std::size_t cell) const {
    return transpose_offsets_[cell + 1] - transpose_offsets_[cell];
  }

  /// Cross-checks the CSR candidate index against the provider's live
  /// per-user candidate sets, and its transpose against a rebuild: the
  /// candidate-epoch contract says they may only disagree if the provider
  /// changed a set without moving its epoch.  Test/debug hook for the
  /// epoch regression suite; O(users x candidates).
  bool candidate_index_matches(const ChannelStateProvider& provider) const;

  /// Serializes the evolved state only: frame clock, shadowing/fading RNG
  /// streams and lanes, cached gains/pilots, far-field lane, and the CSR
  /// candidate index.  Init-time state (geometry tables, per-user fading
  /// coefficients, fast-math fold constants) is reproduced by re-running
  /// init()/init_user() on the same config, so load() overwrites only what
  /// evolves, size-checks every lane against the initialised layout, and
  /// refuses a CSR index that is not well formed over this world.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  void step_user_links_fast(std::size_t user, cell::Point pos, double moved_m,
                            const std::size_t* cells, std::size_t count);
  /// The CSR index covers every user with ascending offsets and in-range
  /// cells, and the stored transpose is its rebuild.
  bool candidate_index_well_formed() const;
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
  std::vector<common::Rng> shadow_rng_;
  std::vector<double> shadow_db_;
  // Fast-mode innovation streams: one per USER, not per link -- the batch
  // of a user's per-candidate innovations comes from a single stream whose
  // state stays in registers across the lane loop (the per-link streams
  // exist for the reference path's lazy bit-identity contract, which the
  // relaxed provider explicitly does not promise; the innovations stay iid
  // N(0,1) across links either way).
  std::vector<common::Rng> fast_shadow_rng_;

  // Per-link AR(1) fading state (advanced lazily).  rho/innovation depend
  // only on the user's Doppler, so they live per user.
  std::vector<common::Rng> fade_rng_;
  std::vector<double> fade_re_, fade_im_;
  std::vector<std::int64_t> fade_frame_;
  std::vector<double> fade_rho_, fade_innovation_;  // per user

  // Per-frame link outputs (flat, stride num_cells_).
  std::vector<double> gain_mean_;
  std::vector<double> pilot_fl_;
  // Far-field aggregate lane, one forward term per user (stride 1).
  std::vector<double> far_fl_w_;

  // Relaxed-precision mode (the `fast` provider): the path-loss model is
  // affine in log10(d), so loss_db(d) = A + B log10(d) folds with the
  // dB->linear conversion into one fast_exp2 per link:
  //   gain = 2^(K (shadow_db - A) - (B / 10) log2(d)),  K = log2(10) / 10.
  bool fast_math_ = false;
  double fast_gain_bias_ = 0.0;      // -K * A
  double fast_log2_slope_ = 0.0;     // B / 10
  /// (B / 10) * 0.5, folded once for the d^2 form of the loss term (exact:
  /// a power-of-two scale), matching kernels::shadow_gain_lane's signature.
  double fast_half_log2_slope_ = 0.0;
  double fast_min_distance_sq_m_ = 0.0;  // near-field clamp, squared metres
  double fast_inv_decorr_m_ = 0.0;   // 1 / shadowing decorrelation distance
  common::ZigguratNormal zig_;

  // CSR candidate index + transpose, valid for candidate_epoch_.
  std::vector<std::uint32_t> csr_offsets_, csr_cells_;
  std::vector<std::uint32_t> transpose_offsets_, transpose_users_;
  std::uint64_t candidate_epoch_ = ~std::uint64_t{0};
};

}  // namespace wcdma::sim
