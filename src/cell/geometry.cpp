#include "src/cell/geometry.hpp"

#include <cmath>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

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

  // Flatten (cell x image) centre positions for the hot distance path.
  images_per_cell_ = 1 + translations_.size();
  images_.reserve(centers_.size() * images_per_cell_);
  for (const Point& c : centers_) {
    images_.push_back(c);
    for (const Point& t : translations_) images_.push_back(c + t);
  }

  // |p - (c + t)| >= |t| - |p - c|, so when |p - c| < min|t| / 2 the direct
  // image is strictly the nearest and the mirror scan can be skipped.
  near_field_sq_ = std::numeric_limits<double>::infinity();
  for (const Point& t : translations_) {
    const double half = norm(t) / 2.0;
    near_field_sq_ = std::min(near_field_sq_, half * half);
  }
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
