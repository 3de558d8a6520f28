#include "src/cell/geometry.hpp"

#include <cmath>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/simd.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace wcdma::cell {

std::size_t hex_cell_count(int rings) {
  WCDMA_ASSERT(rings >= 0);
  return 1 + 3 * static_cast<std::size_t>(rings) * (static_cast<std::size_t>(rings) + 1);
}

HexLayout::HexLayout(const HexLayoutConfig& config) : config_(config) {
  WCDMA_ASSERT(config_.rings >= 0);
  WCDMA_ASSERT(config_.cell_radius_m > 0.0);

  // Axial hex coordinates: neighbouring centres are d = sqrt(3) * R apart.
  const double d = std::sqrt(3.0) * config_.cell_radius_m;
  const Point a1{d, 0.0};
  const Point a2{d * 0.5, d * std::sqrt(3.0) / 2.0};

  centers_.push_back({0.0, 0.0});
  for (int ring = 1; ring <= config_.rings; ++ring) {
    // Walk the hex ring: start at ring * a1, then take `ring` steps along
    // each of the six edge directions.
    static constexpr int kDirQ[6] = {-1, -1, 0, 1, 1, 0};
    static constexpr int kDirR[6] = {1, 0, -1, -1, 0, 1};
    int q = ring, r = 0;
    for (int side = 0; side < 6; ++side) {
      for (int step = 0; step < ring; ++step) {
        centers_.push_back({q * a1.x + r * a2.x, q * a1.y + r * a2.y});
        q += kDirQ[side];
        r += kDirR[side];
      }
    }
  }

  if (config_.wrap_around && config_.rings > 0) {
    // Mirror-cluster displacement for a cluster of K = i^2 + i*j + j^2
    // cells.  For the canonical sizes: 7 = (2,1), 19 = (3,2).  For other
    // ring counts fall back to the lattice vector spanning the cluster.
    int ci = config_.rings + 1, cj = config_.rings;  // (3,2) for rings=2 -> K=19
    const Point u{ci * a1.x + cj * a2.x, ci * a1.y + cj * a2.y};
    // Six rotations of u by 60 degrees tile the plane with clusters.
    for (int s = 0; s < 6; ++s) {
      const double ang = s * (M_PI / 3.0);
      const double c = common::refmath::cos(ang), sn = common::refmath::sin(ang);
      translations_.push_back({u.x * c - u.y * sn, u.x * sn + u.y * c});
    }
  }

  // Flatten (image x cell) centre positions for the hot distance path.
  images_per_cell_ = 1 + translations_.size();
  image_x_.reserve(centers_.size() * images_per_cell_);
  image_y_.reserve(centers_.size() * images_per_cell_);
  for (std::size_t i = 0; i < images_per_cell_; ++i) {
    for (const Point& c : centers_) {
      const Point image = i == 0 ? c : c + translations_[i - 1];
      image_x_.push_back(image.x);
      image_y_.push_back(image.y);
    }
  }

  // |p - (c + t)| >= |t| - |p - c|, so when |p - c| < min|t| / 2 the direct
  // image is strictly the nearest and the mirror scan can be skipped.
  near_field_sq_ = std::numeric_limits<double>::infinity();
  for (const Point& t : translations_) {
    const double half = norm(t) / 2.0;
    near_field_sq_ = std::min(near_field_sq_, half * half);
  }
}

#if defined(__GNUC__) && defined(__x86_64__)

namespace {

/// Table entries of four cells, one contiguous load when they are
/// consecutive.
__attribute__((target("avx2"), always_inline)) inline __m256d load4(
    const double* table, const std::size_t* cells, bool consecutive) {
  return consecutive ? _mm256_loadu_pd(table + cells[0])
                     : _mm256_set_pd(table[cells[3]], table[cells[2]], table[cells[1]],
                                     table[cells[0]]);
}

}  // namespace

__attribute__((target("avx2"))) void HexLayout::distance_sq_lane_avx2(
    Point p, const std::size_t* cells, std::size_t n, double* out) const {
  const std::size_t stride = centers_.size();
  const __m256d px = _mm256_set1_pd(p.x), py = _mm256_set1_pd(p.y);
  const __m256d near_field = _mm256_set1_pd(near_field_sq_);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::size_t* c = cells + i;
    const bool consecutive = c[1] == c[0] + 1 && c[2] == c[0] + 2 && c[3] == c[0] + 3;
    const __m256d dx = _mm256_sub_pd(px, load4(image_x_.data(), c, consecutive));
    const __m256d dy = _mm256_sub_pd(py, load4(image_y_.data(), c, consecutive));
    const __m256d direct = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const __m256d near = _mm256_cmp_pd(direct, near_field, _CMP_LT_OQ);
    __m256d sq = direct;
    if (_mm256_movemask_pd(near) != 0xF) {
      // min(a, b) is a < b ? a : b, the scan's strictly-nearer update.
      __m256d best = direct;
      for (std::size_t img = 1; img < images_per_cell_; ++img) {
        const double* x = &image_x_[img * stride];
        const double* y = &image_y_[img * stride];
        const __m256d ix = _mm256_sub_pd(px, load4(x, c, consecutive));
        const __m256d iy = _mm256_sub_pd(py, load4(y, c, consecutive));
        best = _mm256_min_pd(_mm256_add_pd(_mm256_mul_pd(ix, ix), _mm256_mul_pd(iy, iy)),
                             best);
      }
      sq = _mm256_blendv_pd(best, direct, near);
    }
    _mm256_storeu_pd(out + i, sq);
  }
  _mm256_zeroupper();
  for (; i < n; ++i) out[i] = distance_sq_to_cell(p, cells[i]);
}

#endif

void HexLayout::distance_sq_lane(Point p, const std::size_t* cells, std::size_t n,
                                 double* out) const {
#if defined(__GNUC__) && defined(__x86_64__)
  if (common::active_simd_level() == common::SimdLevel::kAvx2) {
    distance_sq_lane_avx2(p, cells, n, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = distance_sq_to_cell(p, cells[i]);
}

Point HexLayout::center(std::size_t k) const {
  WCDMA_ASSERT(k < centers_.size());
  return centers_[k];
}

std::size_t HexLayout::nearest_cell(Point p) const {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < centers_.size(); ++k) {
    const double d = distance_to_cell(p, k);
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

double HexLayout::service_radius_m() const {
  // Outermost centre plus one cell radius.
  double r = 0.0;
  for (const Point& c : centers_) r = std::max(r, norm(c));
  return r + config_.cell_radius_m;
}

Point HexLayout::random_point(double u1, double u2) const {
  WCDMA_DEBUG_ASSERT(u1 >= 0.0 && u1 < 1.0 && u2 >= 0.0 && u2 < 1.0);
  const double radius = service_radius_m() * std::sqrt(u1);
  const double theta = 2.0 * M_PI * u2;
  return {radius * common::refmath::cos(theta), radius * common::refmath::sin(theta)};
}

}  // namespace wcdma::cell
