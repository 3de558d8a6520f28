// Hexagonal cell layout with optional wrap-around.
//
// The dynamic simulations of the paper (following Kumar & Nanda [2]) use a
// multi-cell layout so soft hand-off and other-cell interference are real.
// We build the standard ring layout (rings=2 -> 19 cells) and remove edge
// effects with the usual wrap-around technique: distances are evaluated as
// the minimum over the identity and six mirror-cluster translations.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/assert.hpp"

namespace wcdma::cell {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

inline Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
inline Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
inline Point operator*(double s, Point p) { return {s * p.x, s * p.y}; }

/// Euclidean length as the correctly rounded root of the squared norm: IEEE
/// operations only, so the same bits on every host (no libm hypot).
inline double norm(Point p) { return std::sqrt(p.x * p.x + p.y * p.y); }
inline double distance(Point a, Point b) { return norm(a - b); }

struct HexLayoutConfig {
  int rings = 2;            // 0 -> 1 cell, 1 -> 7, 2 -> 19
  double cell_radius_m = 1000.0;  // centre-to-vertex radius
  bool wrap_around = true;
};

/// Number of cells in a ring layout: 1 + 3*rings*(rings+1).
std::size_t hex_cell_count(int rings);

class HexLayout {
 public:
  explicit HexLayout(const HexLayoutConfig& config = {});

  std::size_t num_cells() const { return centers_.size(); }
  Point center(std::size_t k) const;
  double cell_radius_m() const { return config_.cell_radius_m; }

  /// Offset (dx, dy) from the nearest wrap image of cell `k`'s centre to
  /// `p`.  The nearest image is selected by squared distance (multiply-adds
  /// only) over the precomputed image table, identity first; a later image
  /// wins only when strictly nearer.  The one scan every distance below is
  /// derived from.
  Point nearest_offset(Point p, std::size_t k) const {
    WCDMA_DEBUG_ASSERT(k < centers_.size());
    const std::size_t cells = centers_.size();
    Point best = p - Point{image_x_[k], image_y_[k]};
    double best_sq = best.x * best.x + best.y * best.y;
    // Near-field shortcut: when the direct distance is under half the
    // closest wrap translation, the triangle inequality guarantees every
    // mirror image is strictly farther -- no need to scan them.
    if (best_sq < near_field_sq_) return best;
    for (std::size_t i = 1; i < images_per_cell_; ++i) {
      const Point d = p - Point{image_x_[i * cells + k], image_y_[i * cells + k]};
      const double sq = d.x * d.x + d.y * d.y;
      if (sq < best_sq) {
        best_sq = sq;
        best = d;
      }
    }
    return best;
  }

  /// Squared distance from `p` to the nearest wrap image of cell `k`.  The
  /// link gains consume distances only through log2(d) = log2(d^2) / 2, and
  /// the culling radius test compares squares, so neither takes a root.
  double distance_sq_to_cell(Point p, std::size_t k) const {
    const Point d = nearest_offset(p, k);
    return d.x * d.x + d.y * d.y;
  }

  /// out[i] = distance_sq_to_cell(p, cells[i]) for i < n, bit for bit at
  /// every dispatch level.  The AVX2 body takes 4 cells at a time: the
  /// squared distance is the smallest of the images' squared offsets
  /// (the one the scan above selects, whose square it returns), unless the
  /// direct image is in the near field; it skips the mirror scan when all
  /// four direct images are, and loads the table contiguously when the
  /// four cells are consecutive.
  void distance_sq_lane(Point p, const std::size_t* cells, std::size_t n,
                        double* out) const;

  /// Distance from `p` to the centre of cell `k`, minimised over the
  /// wrap-around images when enabled: the correctly rounded root of
  /// distance_sq_to_cell.
  double distance_to_cell(Point p, std::size_t k) const {
    return std::sqrt(distance_sq_to_cell(p, k));
  }

  /// Index of the nearest cell (wrap-aware).
  std::size_t nearest_cell(Point p) const;

  /// A uniformly random point in the service area (disc covering the
  /// layout); callers supply uniform variates u1,u2 in [0,1).
  Point random_point(double u1, double u2) const;

  /// Radius of the disc that bounds the whole layout.
  double service_radius_m() const;

  const std::vector<Point>& wrap_translations() const { return translations_; }

 private:
  /// distance_sq_lane's AVX2 body (x86-64 only).
  void distance_sq_lane_avx2(Point p, const std::size_t* cells, std::size_t n,
                             double* out) const;

  HexLayoutConfig config_;
  std::vector<Point> centers_;
  std::vector<Point> translations_;  // identity excluded
  /// Wrap-image table as coordinate lanes, image-major: image i of cell k
  /// (i = 0 the cell itself) is (image_x_[i * num_cells() + k], image_y_[..]),
  /// so one image of consecutive cells is one contiguous load.
  std::vector<double> image_x_, image_y_;
  std::size_t images_per_cell_ = 1;
  /// (min wrap-translation length / 2)^2; +inf without wrap-around.
  double near_field_sq_ = 0.0;
};

}  // namespace wcdma::cell
