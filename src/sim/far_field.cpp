#include "src/sim/far_field.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"
#include "src/sim/frame_state.hpp"

namespace wcdma::sim {

void FarFieldAggregator::init(const cell::HexLayout* layout,
                              const channel::PathLoss* path_loss,
                              const channel::ShadowingConfig& shadowing,
                              const CsiConfig& csi, std::size_t num_users,
                              int carriers, bool provider_culls) {
  WCDMA_ASSERT(layout != nullptr && path_loss != nullptr && carriers >= 1);
  num_cells_ = layout->num_cells();
  num_users_ = num_users;
  carriers_ = carriers;
  active_ = provider_culls && csi.far_field.enabled;
  // The reverse terms are read unconditionally by the station loop, so they
  // exist (as zeros) even while inactive -- that keeps the default path's
  // received_w = noise + 0.0 bit-identical to the pre-far-field sum.
  reverse_far_w_.assign(num_cells_ * static_cast<std::size_t>(carriers_), 0.0);
  if (!active_) return;

  // Ring geometry: cell pair (a, k) belongs to ring floor(d / ring_width)
  // around anchor a, at the wrap-aware centre-to-centre distance.
  const double ring_width_m =
      std::max(csi.far_field.ring_width_scale * layout->cell_radius_m(), 1.0);
  ring_of_.assign(num_cells_ * num_cells_, 0);
  std::size_t max_ring = 0;
  for (std::size_t a = 0; a < num_cells_; ++a) {
    const cell::Point center = layout->center(a);
    for (std::size_t k = 0; k < num_cells_; ++k) {
      const double d = layout->distance_to_cell(center, k);
      const std::size_t r = static_cast<std::size_t>(d / ring_width_m);
      WCDMA_ASSERT(r <= 0xffffu);
      ring_of_[a * num_cells_ + k] = static_cast<std::uint16_t>(r);
      max_ring = std::max(max_ring, r);
    }
  }
  num_rings_ = max_ring + 1;

  // Mean local-mean gain per (anchor, ring) bucket: path loss at the centre
  // distance times the lognormal shadowing mean E[10^(S/10)], so the
  // aggregate matches the exhaustive far field in expectation.
  const double sigma_nat = shadowing.sigma_db * common::refmath::log(10.0) / 10.0;
  const double shadow_mean = common::refmath::exp(csi.far_field.shadowing_fraction *
                                                  0.5 * sigma_nat * sigma_nat);
  ring_gain_.assign(num_cells_ * num_rings_, 0.0);
  std::vector<std::size_t> ring_count(num_rings_);
  for (std::size_t a = 0; a < num_cells_; ++a) {
    std::fill(ring_count.begin(), ring_count.end(), std::size_t{0});
    const cell::Point center = layout->center(a);
    for (std::size_t k = 0; k < num_cells_; ++k) {
      const double d = layout->distance_to_cell(center, k);
      const std::size_t r = ring_of_[a * num_cells_ + k];
      ring_gain_[a * num_rings_ + r] += path_loss->gain_linear(d);
      ++ring_count[r];
    }
    for (std::size_t r = 0; r < num_rings_; ++r) {
      if (ring_count[r] > 0) {
        ring_gain_[a * num_rings_ + r] *=
            shadow_mean / static_cast<double>(ring_count[r]);
      }
    }
  }

  tx_sum_.assign(num_cells_ * static_cast<std::size_t>(carriers_), 0.0);
  applied_tx_w_.assign(num_users_, 0.0);
  applied_carrier_.assign(num_users_, 0);
  applied_anchor_.assign(num_users_, 0);
  fwd_agg_w_.assign(num_cells_ * static_cast<std::size_t>(carriers_), 0.0);
}

void FarFieldAggregator::on_user_tx(std::size_t user, double tx_w, int carrier) {
  if (!active_) return;
  const std::size_t a = applied_anchor_[user];
  tx_sum_[bucket_index(a, applied_carrier_[user])] -= applied_tx_w_[user];
  tx_sum_[bucket_index(a, carrier)] += tx_w;
  applied_tx_w_[user] = tx_w;
  applied_carrier_[user] = carrier;
}

void FarFieldAggregator::refresh(FrameState& state, const std::uint32_t* anchor,
                                 const double* station_forward_w) {
  WCDMA_ASSERT(active_);
  const std::size_t carriers = static_cast<std::size_t>(carriers_);

  // Re-anchor: a user whose active-set primary moved takes its bucketed TX
  // power along (carrier moves are handled per frame by on_user_tx).
  for (std::size_t i = 0; i < num_users_; ++i) {
    if (anchor[i] == applied_anchor_[i]) continue;
    const std::size_t c = static_cast<std::size_t>(applied_carrier_[i]);
    tx_sum_[applied_anchor_[i] * carriers + c] -= applied_tx_w_[i];
    tx_sum_[anchor[i] * carriers + c] += applied_tx_w_[i];
    applied_anchor_[i] = anchor[i];
  }

  // Forward aggregate over ALL cells: A[a][c] = sum_k G(a, k) P_fwd(k, c).
  std::fill(fwd_agg_w_.begin(), fwd_agg_w_.end(), 0.0);
  for (std::size_t a = 0; a < num_cells_; ++a) {
    for (std::size_t k = 0; k < num_cells_; ++k) {
      const double g = gain_of(a, k);
      for (std::size_t c = 0; c < carriers; ++c) {
        fwd_agg_w_[a * carriers + c] += g * station_forward_w[k * carriers + c];
      }
    }
  }

  // Per-user forward lane: full aggregate minus the candidate cells, using
  // the SAME quantised gains, so the remainder is exactly the non-candidate
  // sum (clamp floating-point residue when the candidate set covers the
  // whole world).
  for (std::size_t i = 0; i < num_users_; ++i) {
    const std::size_t a = applied_anchor_[i];
    const std::size_t c = static_cast<std::size_t>(applied_carrier_[i]);
    double far = fwd_agg_w_[a * carriers + c];
    for (const std::size_t k : state.cells_for(i)) {
      far -= gain_of(a, k) * station_forward_w[k * carriers + c];
    }
    state.set_far_fl_w(i, far > 0.0 ? far : 0.0);
  }

  // Reverse: bucketed mobile TX folded through the ring gains, minus each
  // contributor's candidate cells (those users enter the station's exact
  // per-link gather instead).
  for (std::size_t k = 0; k < num_cells_; ++k) {
    for (std::size_t c = 0; c < carriers; ++c) {
      double sum = 0.0;
      for (std::size_t a = 0; a < num_cells_; ++a) {
        sum += gain_of(a, k) * tx_sum_[a * carriers + c];
      }
      reverse_far_w_[k * carriers + c] = sum;
    }
  }
  for (std::size_t i = 0; i < num_users_; ++i) {
    const double tx = applied_tx_w_[i];
    if (tx <= 0.0) continue;
    const std::size_t a = applied_anchor_[i];
    const std::size_t c = static_cast<std::size_t>(applied_carrier_[i]);
    for (const std::size_t k : state.cells_for(i)) {
      reverse_far_w_[k * carriers + c] -= gain_of(a, k) * tx;
    }
  }
  for (double& w : reverse_far_w_) w = w > 0.0 ? w : 0.0;
}

template <typename Self, typename Archive>
void FarFieldAggregator::fields(Self& agg, Archive& ar) {
  // Activity is decided at init from the config + provider; a snapshot
  // taken under a different far-field mode is not restorable.
  ar.expect(agg.active_);
  if (!agg.active_) return;
  ar.field(agg.tx_sum_);
  ar.field(agg.applied_tx_w_);
  ar.field(agg.applied_carrier_);
  ar.field(agg.applied_anchor_);
  ar.field(agg.reverse_far_w_);
  // The anchors and carriers index the TX buckets on the next frame (and
  // in tx_buckets_match_rebuild), so they are range-checked here.
  ar.check([&] {
    for (const std::uint32_t a : agg.applied_anchor_) {
      if (a >= agg.num_cells_) return false;
    }
    for (const int c : agg.applied_carrier_) {
      if (c < 0 || c >= agg.carriers_) return false;
    }
    return true;
  });
}

void FarFieldAggregator::save(common::BinaryWriter& w) const { fields(*this, w); }
bool FarFieldAggregator::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

bool FarFieldAggregator::tx_buckets_match_rebuild(double rel_tol) const {
  if (!active_) return true;
  std::vector<double> rebuilt(tx_sum_.size(), 0.0);
  double total_w = 0.0;
  for (std::size_t i = 0; i < num_users_; ++i) {
    rebuilt[bucket_index(applied_anchor_[i], applied_carrier_[i])] +=
        applied_tx_w_[i];
    total_w += applied_tx_w_[i];
  }
  // Incremental +/- of user powers leaves cancellation residue whose size
  // is set by the magnitudes that passed THROUGH a bucket, not by what it
  // holds now (a bucket whose users all left rebuilds to ~0 but keeps
  // ~eps-scale residue), so the bound carries an absolute floor tied to
  // the total bucketed power.
  for (std::size_t b = 0; b < tx_sum_.size(); ++b) {
    const double bound = rel_tol * (std::fabs(rebuilt[b]) + total_w);
    if (std::fabs(tx_sum_[b] - rebuilt[b]) > bound) return false;
  }
  return true;
}

}  // namespace wcdma::sim
