#include "src/sim/frame_state.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/serialize.hpp"
#include "src/common/units.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/kernels.hpp"

namespace wcdma::sim {

void FrameState::init(const cell::HexLayout* layout, const channel::PathLoss* path_loss,
                      const channel::ShadowingConfig& shadowing, const CsiConfig& csi,
                      double frame_s, std::size_t num_users) {
  WCDMA_ASSERT(layout != nullptr && path_loss != nullptr);
  const ChannelProvider* provider = find_channel_provider(csi.provider);
  WCDMA_ASSERT(provider != nullptr && "unknown channel-state provider");
  layout_ = layout;
  path_loss_ = path_loss;
  shadowing_ = shadowing;
  frame_s_ = frame_s;
  num_users_ = num_users;
  num_cells_ = layout->num_cells();
  frame_ = 0;

  const std::size_t links = num_users_ * num_cells_;
  shadow_rng_.resize(links);
  shadow_db_.assign(links, 0.0);
  gain_mean_.assign(links, 0.0);
  pilot_fl_.assign(links, 0.0);
  far_fl_w_.assign(num_users_, 0.0);
  fade_rng_.resize(links);
  fade_re_.assign(links, 0.0);
  fade_im_.assign(links, 0.0);
  fade_frame_.assign(links, 0);
  fade_rho_.assign(num_users_, 0.0);
  fade_innovation_.assign(num_users_, 0.0);

  // Every registered path-loss model is affine in log10(d) (after the
  // near-field clamp): loss_db(d) = A + B log10(d), with (A, B) owned by
  // PathLoss itself.  Fold them once so the per-link evaluation is a single
  // fused exp2.
  const channel::PathLoss::AffineLog10 loss = path_loss_->affine_log10();
  gain_bias_ = -common::kExp2PerDb * loss.a_db;
  // kExp2PerDb * B * log10(2) == B / 10, halved for the d^2 form.
  half_log2_slope_ = loss.b_db / 10.0 * 0.5;
  const double min_d = path_loss_->config().min_distance_m;
  min_distance_sq_m_ = min_d * min_d;

  culls_ = provider->culls;
  const double cull_radius_m = csi.cull_radius_scale * layout->cell_radius_m();
  cull_radius_sq_m_ = cull_radius_m * cull_radius_m;
  refresh_interval_s_ = csi.refresh_interval_s;
  candidates_.assign(culls_ ? num_users_ : 0, {});
  refresh_left_s_.assign(culls_ ? num_users_ : 0, 0.0);
  all_cells_.resize(culls_ ? 0 : num_cells_);
  for (std::size_t k = 0; k < all_cells_.size(); ++k) all_cells_[k] = k;
  epoch_.store(culls_ ? 1 : 0, std::memory_order_relaxed);
  rebuild_transpose();
}

void FrameState::init_user(std::size_t user, const common::Rng& user_rng,
                           double doppler_hz) {
  // Stream discipline mirrors the legacy Link construction: link (user, k)
  // derives user_rng.fork(100 + k); its shadowing process consumes fork(1)
  // (one initial N(0, sigma) draw), its fading process fork(2).
  const double rho = channel::Ar1Fading::correlation(doppler_hz, frame_s_);
  fade_rho_[user] = rho;
  fade_innovation_[user] = std::sqrt(std::max(0.0, 1.0 - rho * rho) * 0.5);
  for (std::size_t k = 0; k < num_cells_; ++k) {
    const std::size_t idx = link_index(user, k);
    const common::Rng link_rng = user_rng.fork(100 + k);
    common::Rng srng = link_rng.fork(1);
    shadow_db_[idx] = srng.normal(0.0, shadowing_.sigma_db);
    shadow_rng_.set(idx, srng);
    common::Rng frng = link_rng.fork(2);
    // Stationary start h ~ CN(0, 1), drawn exactly as Ar1Fading's ctor.
    fade_re_[idx] = frng.normal(0.0, std::sqrt(0.5));
    fade_im_[idx] = frng.normal(0.0, std::sqrt(0.5));
    fade_rng_[idx] = frng;
    fade_frame_[idx] = 0;
  }
}

void FrameState::step_users(std::size_t begin, std::size_t end, const cell::Point* pos,
                            const double* moved_m,
                            const std::vector<std::size_t>* const* active_members) {
  if (culls_) {
    for (std::size_t u = begin; u < end; ++u) {
      refresh_left_s_[u] -= frame_s_;
      if (candidates_[u].empty() || refresh_left_s_[u] <= 0.0) {
        refresh_candidates(u, pos[u - begin], *active_members[u - begin]);
      }
    }
  }
  // Link-major blocks: each fills with the candidate links of consecutive
  // users, across user boundaries, so every link of the group goes through
  // the bank's batched draw and the vector lanes.  Each link carries its
  // user's AR(1) pair: one per user, since every link of a mobile travels
  // the same distance this frame.
  LinkBlock block;
  for (std::size_t u = begin; u < end; ++u) {
    const double rho = channel::Shadowing::correlation(shadowing_, moved_m[u - begin]);
    const double innovation = channel::Shadowing::innovation_sigma(shadowing_, rho);
    const std::vector<std::size_t>& cells = cells_for(u);
    const std::size_t row = u * num_cells_;
    for (std::size_t j = 0; j < cells.size();) {
      const std::size_t m = std::min(LinkBlock::kSize - block.fill, cells.size() - j);
      // Distances feed the gain only through B log10(d) = (B/2) log10(d^2),
      // so the squared distance goes straight into the log2 lane: no root
      // per link.
      double* d_sq = &block.d_sq[block.fill];
      layout_->distance_sq_lane(pos[u - begin], &cells[j], m, d_sq);
      for (std::size_t t = 0; t < m; ++t) {
        block.link[block.fill + t] = row + cells[j + t];
        block.rho[block.fill + t] = rho;
        block.innovation[block.fill + t] = innovation;
        d_sq[t] = std::max(d_sq[t], min_distance_sq_m_);
      }
      block.fill += m;
      j += m;
      if (block.fill == LinkBlock::kSize) step_block(block);
    }
  }
  if (block.fill > 0) step_block(block);
}

void FrameState::step_block(LinkBlock& block) {
  const std::size_t n = block.fill;
  // Each link's innovation from its own stream, which is what lets fading
  // replay lazily.
  double z[LinkBlock::kSize], shadow[LinkBlock::kSize], gain[LinkBlock::kSize];
  shadow_rng_.normal(block.link, n, z);
  for (std::size_t i = 0; i < n; ++i) shadow[i] = shadow_db_[block.link[i]];
  kernels::shadow_gain_lane(block.rho, block.innovation, gain_bias_, half_log2_slope_, z,
                            block.d_sq, shadow, gain, n);
  for (std::size_t i = 0; i < n; ++i) {
    shadow_db_[block.link[i]] = shadow[i];
    gain_mean_[block.link[i]] = gain[i];
  }
  block.fill = 0;
}

void FrameState::refresh_candidates(std::size_t user, cell::Point pos,
                                    const std::vector<std::size_t>& active_members) {
  refresh_left_s_[user] = refresh_interval_s_;
  std::vector<std::size_t> next;
  for (std::size_t k = 0; k < num_cells_; ++k) {
    if (layout_->distance_sq_to_cell(pos, k) <= cull_radius_sq_m_) next.push_back(k);
  }
  // Active-set members stay candidates until hand-off drops them, even
  // when the user has moved past the radius (hysteresis consistency).
  for (std::size_t k : active_members) {
    const auto it = std::lower_bound(next.begin(), next.end(), k);
    if (it == next.end() || *it != k) next.insert(it, k);
  }
  if (next.empty()) next.push_back(layout_->nearest_cell(pos));
  std::vector<std::size_t>& current = candidates_[user];
  if (next != current) epoch_.fetch_add(1, std::memory_order_relaxed);
  current = std::move(next);
}

double FrameState::fading_factor(std::size_t user, std::size_t cell) {
  const std::size_t idx = link_index(user, cell);
  const double rho = fade_rho_[user];
  const double innovation = fade_innovation_[user];
  double re = fade_re_[idx], im = fade_im_[idx];
  common::Rng& rng = fade_rng_[idx];
  for (std::int64_t f = fade_frame_[idx]; f < frame_; ++f) {
    re = rho * re + rng.normal(0.0, innovation);
    im = rho * im + rng.normal(0.0, innovation);
  }
  fade_re_[idx] = re;
  fade_im_[idx] = im;
  fade_frame_[idx] = frame_;
  return re * re + im * im;
}

void FrameState::build_transpose(std::vector<std::uint32_t>& offsets,
                                 std::vector<std::uint32_t>& users) const {
  // Counting sort: per-cell user lists come out ascending because the
  // scatter visits users in ascending order.
  offsets.assign(num_cells_ + 2, 0);
  for (std::size_t u = 0; u < num_users_; ++u) {
    for (std::size_t k : cells_for(u)) ++offsets[k + 2];
  }
  for (std::size_t k = 2; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
  users.resize(offsets.back());
  for (std::size_t u = 0; u < num_users_; ++u) {
    for (std::size_t k : cells_for(u)) {
      users[offsets[k + 1]++] = static_cast<std::uint32_t>(u);
    }
  }
  offsets.pop_back();
}

void FrameState::rebuild_transpose() {
  build_transpose(transpose_offsets_, transpose_users_);
  transpose_epoch_ = candidate_epoch();
}

bool FrameState::set_well_formed(const std::vector<std::size_t>& cells) const {
  // `culled` fills every set on the first frame's step and never empties
  // one again.
  if (culls_ && cells.empty() != (frame_ == 0)) return false;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    if (cells[j] >= num_cells_ || (j > 0 && cells[j] <= cells[j - 1])) return false;
  }
  return true;
}

bool FrameState::candidate_index_consistent() const {
  for (std::size_t u = 0; u < num_users_; ++u) {
    if (!set_well_formed(cells_for(u))) return false;
  }
  std::vector<std::uint32_t> offsets, users;
  build_transpose(offsets, users);
  return offsets == transpose_offsets_ && users == transpose_users_;
}

bool FrameState::fading_clocks_valid() const {
  for (const std::int64_t f : fade_frame_) {
    if (f < 0 || f > frame_) return false;
  }
  return true;
}

template <typename Self, typename Archive>
void FrameState::fields(Self& state, Archive& ar) {
  ar.field(state.frame_);
  // Streams and lanes are sized at init from the layout; a snapshot from a
  // different world shape must not resize them.
  ar.expect(state.shadow_rng_.size());
  ar.field(state.shadow_rng_);
  ar.field(state.shadow_db_);
  ar.field(state.fade_rng_);
  ar.field(state.fade_re_);
  ar.field(state.fade_im_);
  ar.field(state.fade_frame_);
  ar.field(state.far_fl_w_);
  if (!state.culls_) return;
  std::uint64_t epoch = state.candidate_epoch();
  ar.field(epoch);
  ar.field(state.refresh_left_s_);
  std::vector<std::uint32_t> cells;  // a set's archive form
  for (auto& set : state.candidates_) {
    cells.assign(set.begin(), set.end());
    ar.vec(cells);
    if constexpr (Archive::kLoads) set.assign(cells.begin(), cells.end());
    // Every set is checked before the transpose's counting sort indexes
    // with it: a CRC-valid archive is not a trusted one.
    ar.check([&] { return state.set_well_formed(set); });
  }
  if constexpr (Archive::kLoads) state.epoch_.store(epoch, std::memory_order_relaxed);
}

void FrameState::save(common::BinaryWriter& w) const { fields(*this, w); }

bool FrameState::load(common::BinaryReader& r) {
  fields(*this, r);
  if (r.ok()) rebuild_transpose();
  return r.ok();
}

}  // namespace wcdma::sim
