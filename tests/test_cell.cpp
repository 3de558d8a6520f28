// Cell-layer tests: hex layout geometry and wrap-around, mobility models,
// and soft-handoff active-set management.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/cell/active_set.hpp"
#include "src/cell/geometry.hpp"
#include "src/cell/mobility.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/simd.hpp"
#include "src/common/units.hpp"

namespace wcdma::cell {
namespace {

using common::Rng;

// ---------------------------------------------------------------- layout

TEST(HexLayout, RingCellCounts) {
  for (const auto& [rings, cells] : std::vector<std::pair<int, std::size_t>>{
           {0, 1}, {1, 7}, {2, 19}, {3, 37}}) {
    HexLayoutConfig cfg;
    cfg.rings = rings;
    cfg.wrap_around = false;
    EXPECT_EQ(HexLayout(cfg).num_cells(), cells) << "rings=" << rings;
  }
}

TEST(HexLayout, FirstRingAtLatticeDistance) {
  HexLayoutConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  const double d = std::sqrt(3.0) * 1000.0;
  for (std::size_t k = 1; k < 7; ++k) {
    EXPECT_NEAR(distance(layout.center(0), layout.center(k)), d, 1e-6);
  }
}

TEST(HexLayout, CentersAreUnique) {
  HexLayoutConfig cfg;
  cfg.rings = 2;
  HexLayout layout(cfg);
  for (std::size_t i = 0; i < layout.num_cells(); ++i) {
    for (std::size_t j = i + 1; j < layout.num_cells(); ++j) {
      EXPECT_GT(distance(layout.center(i), layout.center(j)), 1.0);
    }
  }
}

TEST(HexLayout, WrapDistanceNeverExceedsDirect) {
  HexLayoutConfig cfg;
  cfg.rings = 2;
  cfg.wrap_around = true;
  HexLayout layout(cfg);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    for (std::size_t k = 0; k < layout.num_cells(); ++k) {
      EXPECT_LE(layout.distance_to_cell(p, k), distance(p, layout.center(k)) + 1e-9);
    }
  }
}

TEST(HexLayout, WrapBoundsWorstCaseDistance) {
  // With wrap-around, no point in the service area is catastrophically far
  // from every cell: the nearest cell is within ~2 cell radii.
  HexLayoutConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    const std::size_t k = layout.nearest_cell(p);
    EXPECT_LE(layout.distance_to_cell(p, k), 2.0 * cfg.cell_radius_m);
  }
}

TEST(HexLayout, NearestCellOfCenterIsZero) {
  HexLayout layout;
  EXPECT_EQ(layout.nearest_cell({0.0, 0.0}), 0u);
  EXPECT_EQ(layout.nearest_cell({1.0, -1.0}), 0u);
}

TEST(HexLayout, RandomPointInsideServiceRadius) {
  HexLayout layout;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Point p = layout.random_point(rng.uniform(), rng.uniform());
    EXPECT_LE(norm(p), layout.service_radius_m() + 1e-9);
  }
}

TEST(HexLayout, WrapTranslationsHaveClusterMagnitude) {
  // For a K-cell cluster, |u| = sqrt(3K) * R.
  HexLayoutConfig cfg;
  cfg.rings = 2;  // K = 19
  cfg.cell_radius_m = 1000.0;
  HexLayout layout(cfg);
  ASSERT_EQ(layout.wrap_translations().size(), 6u);
  for (const Point& t : layout.wrap_translations()) {
    EXPECT_NEAR(norm(t), std::sqrt(3.0 * 19.0) * 1000.0, 1.0);
  }
}

// Both distances must be pure functions of the one offset scan (the link
// gains read only the squared one), and that scan must find the nearest
// wrap image.
TEST(HexLayout, DistancesDeriveFromTheNearestOffset) {
  for (const int rings : {1, 2}) {
    for (const bool wrap : {true, false}) {
      const HexLayout layout(HexLayoutConfig{rings, 1000.0, wrap});
      std::vector<Point> images = {{0.0, 0.0}};
      for (const Point& t : layout.wrap_translations()) images.push_back(t);
      Rng rng(0x0ff5 + static_cast<std::uint64_t>(rings));
      const double span = 1.5 * layout.service_radius_m();
      for (int trial = 0; trial < 500; ++trial) {
        const Point p{(2.0 * rng.uniform() - 1.0) * span,
                      (2.0 * rng.uniform() - 1.0) * span};
        for (std::size_t k = 0; k < layout.num_cells(); ++k) {
          const Point o = layout.nearest_offset(p, k);
          ASSERT_EQ(layout.distance_to_cell(p, k), std::sqrt(o.x * o.x + o.y * o.y));
          ASSERT_EQ(layout.distance_sq_to_cell(p, k), o.x * o.x + o.y * o.y);
          double nearest_sq = INFINITY;
          for (const Point& t : images) {
            const Point d = p - (layout.center(k) + t);
            nearest_sq = std::min(nearest_sq, d.x * d.x + d.y * d.y);
          }
          ASSERT_EQ(o.x * o.x + o.y * o.y, nearest_sq)
              << "rings=" << rings << " wrap=" << wrap << " cell " << k;
        }
      }
    }
  }
}

/// Every dispatch level this host runs, scalar first.
std::vector<common::SimdLevel> host_levels() {
  std::vector<common::SimdLevel> levels = {common::SimdLevel::kScalar};
  if (common::max_supported_simd_level() == common::SimdLevel::kAvx2) {
    levels.push_back(common::SimdLevel::kAvx2);
  }
  return levels;
}

/// The distance lane on `cells` at every level writes distance_sq_to_cell's
/// bits, and nothing past n.
void expect_distance_lane_is_scalar(const HexLayout& layout, Point p,
                                    const std::vector<std::size_t>& cells) {
  const common::SimdLevel saved = common::active_simd_level();
  for (const common::SimdLevel level : host_levels()) {
    ASSERT_TRUE(common::set_simd_level(level));
    std::vector<double> out(cells.size() + 1, -7.0);
    layout.distance_sq_lane(p, cells.data(), cells.size(), out.data());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::uint64_t got, want;
      const double scalar = layout.distance_sq_to_cell(p, cells[i]);
      std::memcpy(&got, &out[i], sizeof(got));
      std::memcpy(&want, &scalar, sizeof(want));
      ASSERT_EQ(got, want) << common::simd_level_name(level) << " cell " << cells[i]
                           << " p = (" << p.x << ", " << p.y << ")";
    }
    ASSERT_EQ(out[cells.size()], -7.0) << "wrote past n";
  }
  common::set_simd_level(saved);
}

/// (min wrap-translation length / 2)^2, as HexLayout computes its near
/// field; +inf without wrap-around.
double near_field_sq(const HexLayout& layout) {
  double sq = INFINITY;
  for (const Point& t : layout.wrap_translations()) {
    const double half = norm(t) / 2.0;
    sq = std::min(sq, half * half);
  }
  return sq;
}

TEST(HexLayout, DistanceLaneIsTheScalarDistanceBitForBit) {
  for (const int rings : {0, 1, 2}) {
    for (const bool wrap : {true, false}) {
      SCOPED_TRACE("rings " + std::to_string(rings) + " wrap " + std::to_string(wrap));
      const HexLayout layout(HexLayoutConfig{rings, 1000.0, wrap});
      const std::size_t n = layout.num_cells();
      // Consecutive cells (every cell, and every run from every start) and
      // scattered ones: descending, a stride through the layout, and runs
      // of four whose middle pair is swapped (first and last still three
      // apart).
      std::vector<std::vector<std::size_t>> sets;
      for (std::size_t first = 0; first < n; ++first) {
        std::vector<std::size_t> run;
        for (std::size_t k = first; k < n; ++k) run.push_back(k);
        sets.push_back(run);
      }
      std::vector<std::size_t> descending, strided, swapped;
      for (std::size_t k = n; k-- > 0;) descending.push_back(k);
      for (std::size_t k = 0; k < 3 * n; k += 5) strided.push_back(k % n);
      for (std::size_t k = 0; k + 4 <= n; ++k) {
        swapped.insert(swapped.end(), {k, k + 2, k + 1, k + 3});
      }
      sets.push_back(descending);
      sets.push_back(strided);
      sets.push_back(swapped);
      Rng rng(0xd157 + static_cast<std::uint64_t>(rings));
      const double span = 1.5 * layout.service_radius_m();
      for (int trial = 0; trial < 200; ++trial) {
        const Point p{(2.0 * rng.uniform() - 1.0) * span,
                      (2.0 * rng.uniform() - 1.0) * span};
        for (const std::vector<std::size_t>& cells : sets) {
          expect_distance_lane_is_scalar(layout, p, cells);
        }
      }
    }
  }
}

TEST(HexLayout, DistanceLaneKeepsTheNearFieldSelectAtItsBoundary) {
  // The near-field bound is half the shortest wrap translation, so at the
  // midpoint between a cell and its nearest mirror image the two images
  // are (almost) equally far and the direct one's squared distance sits on
  // the bound.  Points a few ULPs around each such midpoint land on both
  // sides of the select, which must go the scalar shortcut's way.
  for (const int rings : {1, 2}) {
    const HexLayout layout(HexLayoutConfig{rings, 1000.0, true});
    const double bound = near_field_sq(layout);
    ASSERT_TRUE(std::isfinite(bound));
    std::vector<std::size_t> all(layout.num_cells());
    for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
    int below = 0, at_or_above = 0;
    for (std::size_t k = 0; k < layout.num_cells(); ++k) {
      for (const Point& t : layout.wrap_translations()) {
        const Point mid = layout.center(k) + 0.5 * t;
        for (int dx = -2; dx <= 2; ++dx) {
          for (int dy = -2; dy <= 2; ++dy) {
            Point p = mid;
            for (int i = 0; i < std::abs(dx); ++i) {
              p.x = std::nextafter(p.x, dx * INFINITY);
            }
            for (int i = 0; i < std::abs(dy); ++i) {
              p.y = std::nextafter(p.y, dy * INFINITY);
            }
            const Point d = p - layout.center(k);
            (d.x * d.x + d.y * d.y < bound ? below : at_or_above) += 1;
            expect_distance_lane_is_scalar(layout, p, all);
          }
        }
      }
    }
    // Both sides of the select were reached.
    EXPECT_GT(below, 0);
    EXPECT_GT(at_or_above, 0);
  }
}

// ---------------------------------------------------------------- mobility

TEST(RandomWaypoint, StaysInRegion) {
  MobilityConfig cfg;
  cfg.region_radius_m = 1500.0;
  RandomWaypoint rw(cfg, Rng(11));
  for (int i = 0; i < 5000; ++i) {
    rw.step(0.5);
    EXPECT_LE(norm(rw.position()), cfg.region_radius_m + 1e-6);
  }
}

TEST(RandomWaypoint, MovedDistanceMatchesSpeed) {
  MobilityConfig cfg;
  cfg.min_speed_mps = 10.0;
  cfg.max_speed_mps = 10.0;  // pin the speed
  cfg.region_radius_m = 1e5;  // waypoints far away: rarely reached
  RandomWaypoint rw(cfg, Rng(13));
  const double moved = rw.step(2.0);
  EXPECT_NEAR(moved, 20.0, 1e-6);
}

TEST(RandomWaypoint, SpeedWithinBounds) {
  MobilityConfig cfg;
  cfg.min_speed_mps = 1.0;
  cfg.max_speed_mps = 20.0;
  RandomWaypoint rw(cfg, Rng(17));
  for (int i = 0; i < 200; ++i) {
    rw.step(5.0);  // traverse several waypoints
    EXPECT_GE(rw.speed_mps(), 1.0);
    EXPECT_LE(rw.speed_mps(), 20.0);
  }
}

TEST(RandomWaypoint, PauseHaltsMotion) {
  MobilityConfig cfg;
  cfg.pause_s = 1000.0;  // effectively permanent pause at first waypoint
  cfg.min_speed_mps = cfg.max_speed_mps = 5.0;
  cfg.region_radius_m = 10.0;  // tiny region: waypoint reached quickly
  RandomWaypoint rw(cfg, Rng(19));
  rw.step(100.0);  // reach waypoint, start pausing
  const Point before = rw.position();
  const double moved = rw.step(10.0);
  EXPECT_DOUBLE_EQ(moved, 0.0);
  EXPECT_DOUBLE_EQ(before.x, rw.position().x);
}

TEST(RandomWaypoint, StaysInOffCentreRegion) {
  MobilityConfig cfg;
  cfg.region_radius_m = 400.0;
  cfg.region_center = {5000.0, -2000.0};  // home-cell disc far from the origin
  RandomWaypoint rw(cfg, Rng(29));
  for (int i = 0; i < 5000; ++i) {
    rw.step(0.5);
    EXPECT_LE(norm(rw.position() - cfg.region_center), cfg.region_radius_m + 1e-6);
  }
}

TEST(HexLayout, CellCountFormula) {
  EXPECT_EQ(hex_cell_count(0), 1u);
  EXPECT_EQ(hex_cell_count(1), 7u);
  EXPECT_EQ(hex_cell_count(2), 19u);
  for (int rings : {0, 1, 2, 3, 4}) {
    EXPECT_EQ(HexLayout(HexLayoutConfig{rings, 1000.0, true}).num_cells(),
              hex_cell_count(rings));
  }
}

MobilityConfig corridor_config() {
  MobilityConfig cfg;
  cfg.kind = MobilityKind::kCorridor;
  cfg.min_speed_mps = 16.7;
  cfg.max_speed_mps = 33.3;
  cfg.corridor_half_length_m = 4000.0;
  cfg.corridor_half_width_m = 500.0;
  return cfg;
}

TEST(CorridorMobility, StaysOnTheRoad) {
  CorridorMobility car(corridor_config(), Rng(31));
  const double lane_y = car.position().y;
  for (int i = 0; i < 5000; ++i) {
    car.step(0.25);
    EXPECT_LE(std::fabs(car.position().x), 4000.0 + 1e-6);
    // The lane offset is drawn once and never changes: pure along-road motion.
    EXPECT_DOUBLE_EQ(car.position().y, lane_y);
    EXPECT_LE(std::fabs(lane_y), 500.0);
  }
}

TEST(CorridorMobility, MovesDirectionallyAndWrapsAround) {
  const MobilityConfig cfg = corridor_config();
  CorridorMobility car(cfg, Rng(47));
  const int dir = car.direction();
  int wraps = 0;
  double prev_x = car.position().x;
  // 2500 s at >= 16.7 m/s covers the 8 km road several times.
  for (int i = 0; i < 10000; ++i) {
    const double speed_before = car.speed_mps();  // wraps redraw the speed
    const double moved = car.step(0.25);
    EXPECT_NEAR(moved, speed_before * 0.25, 1e-9);
    EXPECT_EQ(car.direction(), dir);  // direction persists for the whole drive
    const double dx = car.position().x - prev_x;
    if (dir * dx < 0.0) {
      ++wraps;  // only a wrap moves the position against the travel direction
      EXPECT_GT(std::fabs(dx), cfg.corridor_half_length_m);
    }
    EXPECT_GE(car.speed_mps(), cfg.min_speed_mps);
    EXPECT_LE(car.speed_mps(), cfg.max_speed_mps);
    prev_x = car.position().x;
  }
  EXPECT_GE(wraps, 2);
}

TEST(CorridorMobility, DerivesHalfLengthFromRegionRadius) {
  MobilityConfig cfg = corridor_config();
  cfg.corridor_half_length_m = 0.0;  // derive from the service region
  cfg.region_radius_m = 1500.0;
  CorridorMobility car(cfg, Rng(53));
  for (int i = 0; i < 2000; ++i) {
    car.step(0.5);
    EXPECT_LE(std::fabs(car.position().x), 1500.0 + 1e-6);
  }
}

TEST(MakeMobility, BuildsTheConfiguredKind) {
  MobilityConfig rw;
  rw.region_radius_m = 1000.0;
  const auto waypoint = make_mobility(rw, Rng(5));
  ASSERT_NE(waypoint, nullptr);
  EXPECT_NE(dynamic_cast<RandomWaypoint*>(waypoint.get()), nullptr);

  const auto corridor = make_mobility(corridor_config(), Rng(5));
  ASSERT_NE(corridor, nullptr);
  EXPECT_NE(dynamic_cast<CorridorMobility*>(corridor.get()), nullptr);
}

// ---------------------------------------------------------------- active set

ActiveSetConfig as_config() {
  ActiveSetConfig cfg;
  cfg.t_add_db = -14.0;
  cfg.t_drop_db = -16.0;
  cfg.drop_timer_s = 1.0;
  cfg.max_size = 3;
  cfg.reduced_size = 2;
  return cfg;
}

TEST(ActiveSet, AddsPilotsAboveThreshold) {
  ActiveSet as(as_config(), 4);
  as.update({-10.0, -13.0, -20.0, -25.0}, 0.02);
  EXPECT_EQ(as.members().size(), 2u);
  EXPECT_TRUE(as.contains(0));
  EXPECT_TRUE(as.contains(1));
  EXPECT_EQ(as.primary(), 0u);
}

TEST(ActiveSet, NeverEmptyEvenBelowThreshold) {
  ActiveSet as(as_config(), 3);
  as.update({-30.0, -28.0, -35.0}, 0.02);
  ASSERT_EQ(as.members().size(), 1u);
  EXPECT_EQ(as.primary(), 1u);  // strongest pilot latched
}

TEST(ActiveSet, DropRequiresTimerExpiry) {
  ActiveSet as(as_config(), 2);
  as.update({-10.0, -12.0}, 0.02);
  EXPECT_TRUE(as.contains(1));
  // Pilot 1 sinks below T_DROP: stays during the timer, leaves after.
  for (int i = 0; i < 49; ++i) as.update({-10.0, -20.0}, 0.02);
  EXPECT_TRUE(as.contains(1)) << "should survive until drop timer expires";
  for (int i = 0; i < 3; ++i) as.update({-10.0, -20.0}, 0.02);
  EXPECT_FALSE(as.contains(1));
}

TEST(ActiveSet, DropTimerResetsOnRecovery) {
  ActiveSet as(as_config(), 2);
  as.update({-10.0, -12.0}, 0.02);
  for (int i = 0; i < 40; ++i) as.update({-10.0, -20.0}, 0.02);  // 0.8 s below
  as.update({-10.0, -12.0}, 0.02);                               // recovers
  for (int i = 0; i < 40; ++i) as.update({-10.0, -20.0}, 0.02);  // 0.8 s again
  EXPECT_TRUE(as.contains(1)) << "timer must reset on recovery";
}

TEST(ActiveSet, RespectsMaxSizeKeepingStrongest) {
  ActiveSet as(as_config(), 5);
  as.update({-5.0, -6.0, -7.0, -8.0, -9.0}, 0.02);
  EXPECT_EQ(as.members().size(), 3u);
  EXPECT_TRUE(as.contains(0));
  EXPECT_TRUE(as.contains(1));
  EXPECT_TRUE(as.contains(2));
}

TEST(ActiveSet, StrongerCandidateReplacesWeakestMember) {
  ActiveSet as(as_config(), 4);
  as.update({-5.0, -6.0, -7.0, -30.0}, 0.02);
  EXPECT_TRUE(as.contains(2));
  // Cell 3 surges above everyone: it should displace the weakest member.
  as.update({-5.0, -6.0, -7.0, -3.0}, 0.02);
  EXPECT_TRUE(as.contains(3));
  EXPECT_FALSE(as.contains(2));
}

TEST(ActiveSet, ReducedSetIsTwoStrongest) {
  ActiveSet as(as_config(), 4);
  as.update({-8.0, -5.0, -11.0, -30.0}, 0.02);
  const auto reduced = as.reduced();
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced[0], 1u);  // strongest first
  EXPECT_EQ(reduced[1], 0u);
}

/// The drop-timer lane an ActiveSet checkpoints.
std::vector<double> saved_timers(const ActiveSet& as) {
  common::BinaryWriter w;
  as.save(w);
  common::BinaryReader r(w.bytes());
  std::vector<double> timers;
  r.vec(timers);
  return timers;
}

/// Linear pilots on and around T_ADD and T_DROP: the thresholds, their three
/// nearest doubles either side, +-1e-12 relative, and update_linear()'s
/// band edges.
std::vector<double> threshold_pilots(const ActiveSetConfig& cfg) {
  std::vector<double> out;
  for (const double t_db : {cfg.t_add_db, cfg.t_drop_db}) {
    const double t = common::db_to_linear(t_db);
    out.push_back(t);
    double below = t, above = t;
    for (int k = 0; k < 3; ++k) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      out.push_back(below);
      out.push_back(above);
    }
    for (const double rel : {1e-12, ActiveSet::kAddBand}) {
      out.push_back(t * (1.0 - rel));
      out.push_back(t * (1.0 + rel));
    }
  }
  return out;
}

/// Two adjacent doubles near `x` with the same dB value: distinct in
/// linear, tied in dB.
std::pair<double, double> db_tied_pair(double x) {
  for (;; x = std::nextafter(x, 1.0)) {
    const double next = std::nextafter(x, 1.0);
    if (common::linear_to_db(x) == common::linear_to_db(next)) return {x, next};
  }
}

// update_linear() must be update() on the dB values of the floored linear
// pilots of the listed cells: same members in the same order and same drop
// timers, frame after frame.  Each trajectory drives two pairs.  One lists
// every cell, as the exhaustive provider does.  The other lists a strict
// candidate subset that always holds the current members, as the culled
// provider does: its update() reference sees every unlisted cell below the
// listed cells' floor, and its pilot row holds 0 dB there, a value that
// would join the set if update_linear() ever read it.  The trajectories mix
// a random walk with pilots on and within 1e-12 of both thresholds, exact
// ties, ties that only exist in dB, zero pilots (the floor), and all-below
// frames long enough to empty the set (the fallback).
TEST(ActiveSet, UpdateLinearMatchesUpdateOnDbPilots) {
  constexpr std::size_t kCells = 19;
  constexpr double kFloor = 1e-30;
  constexpr double kUnlistedDb = -1000.0;  // below linear_to_db(kFloor)
  const ActiveSetConfig cfg = as_config();
  const std::vector<double> special = threshold_pilots(cfg);
  const auto [tie_lo, tie_hi] = db_tied_pair(common::db_to_linear(-20.5));
  ASSERT_LT(tie_lo, tie_hi);
  std::vector<std::size_t> all_cells(kCells);
  for (std::size_t k = 0; k < kCells; ++k) all_cells[k] = k;
  Rng rng(0xac71);
  Rng list_rng(0x5eb5);  // the subsets, apart from the pilot draws
  // With nothing at T_ADD, only the empty fallback can bring a cell in.
  const auto fell_back = [&](const std::vector<double>& dbs,
                             const std::vector<std::size_t>& before,
                             const ActiveSet& as) {
    return *std::max_element(dbs.begin(), dbs.end()) < cfg.t_add_db &&
           std::find(before.begin(), before.end(), as.primary()) == before.end();
  };
  std::size_t fallbacks = 0, subset_fallbacks = 0, threshold_cells = 0, unlisted = 0;
  for (int trajectory = 0; trajectory < 150; ++trajectory) {
    ActiveSet dense(cfg, kCells), linear(cfg, kCells);
    ActiveSet dense_sub(cfg, kCells), linear_sub(cfg, kCells);
    std::vector<double> walk_db(kCells), pilot(kCells), db(kCells);
    std::vector<double> pilot_sub(kCells), db_sub(kCells);
    std::vector<std::size_t> listed;
    for (double& w : walk_db) w = -30.0 + 25.0 * rng.uniform();
    for (int frame = 0; frame < 120; ++frame) {
      const double dt = rng.uniform() < 0.5 ? 0.02 : 0.3;  // 0.3 s: timers expire fast
      for (std::size_t k = 0; k < kCells; ++k) {
        walk_db[k] = std::clamp(walk_db[k] + rng.normal(0.0, 1.5), -40.0, -2.0);
        pilot[k] = common::db_to_linear(walk_db[k]);
        const double pick = rng.uniform();
        if (pick < 0.15) {
          pilot[k] = special[rng.uniform_int(special.size())];
          ++threshold_cells;
        } else if (pick < 0.2) {
          pilot[k] = 0.0;
        } else if (pick < 0.25 && k > 0) {
          pilot[k] = pilot[k - 1];  // exact tie
        }
      }
      if (frame == 0 || frame % 40 >= 30) {
        // All below T_DROP for long enough to empty the set, with the
        // strongest pair tied in dB only.
        for (std::size_t k = 0; k < kCells; ++k) {
          pilot[k] = rng.uniform() < 0.3
                         ? 0.0
                         : common::db_to_linear(-35.0 + 10.0 * rng.uniform());
        }
        pilot[rng.uniform_int(kCells)] = tie_lo;
        pilot[rng.uniform_int(kCells)] = tie_hi;
      }
      for (std::size_t k = 0; k < kCells; ++k) {
        db[k] = common::linear_to_db(std::max(pilot[k], kFloor));
      }
      listed.clear();
      pilot_sub = pilot;
      db_sub = db;
      for (std::size_t k = 0; k < kCells; ++k) {
        if (linear_sub.contains(k) || list_rng.uniform() < 0.6) {
          listed.push_back(k);
        } else {
          pilot_sub[k] = 1.0;
          db_sub[k] = kUnlistedDb;
          ++unlisted;
        }
      }
      ASSERT_FALSE(listed.empty());
      const std::vector<std::size_t> before = linear.members();
      const std::vector<std::size_t> before_sub = linear_sub.members();
      dense.update(db, dt);
      linear.update_linear(pilot.data(), all_cells, kFloor, dt);
      ASSERT_EQ(dense.members(), linear.members())
          << "trajectory " << trajectory << " frame " << frame;
      ASSERT_EQ(saved_timers(dense), saved_timers(linear));
      dense_sub.update(db_sub, dt);
      linear_sub.update_linear(pilot_sub.data(), listed, kFloor, dt);
      ASSERT_EQ(dense_sub.members(), linear_sub.members())
          << "subset, trajectory " << trajectory << " frame " << frame;
      ASSERT_EQ(saved_timers(dense_sub), saved_timers(linear_sub));
      fallbacks += fell_back(db, before, linear);
      subset_fallbacks += fell_back(db_sub, before_sub, linear_sub);
    }
  }
  // The trajectories must reach the cases they are built for.
  EXPECT_GT(fallbacks, 300u);
  EXPECT_GT(subset_fallbacks, 300u);
  EXPECT_GT(threshold_cells, 10000u);
  EXPECT_GT(unlisted, 50000u);
}

/// An ActiveSet checkpoint written field by field, for forging.
std::vector<std::uint8_t> active_set_archive(const std::vector<double>& timers,
                                             const std::vector<std::uint64_t>& members,
                                             bool initialised) {
  common::BinaryWriter w;
  w.vec(timers);
  w.u64(members.size());
  for (const std::uint64_t m : members) w.u64(m);
  w.boolean(initialised);
  return w.take();
}

TEST(ActiveSet, LoadRoundTripsAndRefusesMalformedArchives) {
  ActiveSet donor(as_config(), 4);
  donor.update({-10.0, -13.0, -20.0, -25.0}, 0.02);
  common::BinaryWriter w;
  donor.save(w);
  const std::vector<std::uint8_t> good = w.take();

  ActiveSet as(as_config(), 4);
  {
    common::BinaryReader r(good);
    ASSERT_TRUE(as.load(r));
    EXPECT_TRUE(r.at_end());
  }
  EXPECT_EQ(as.members(), donor.members());
  EXPECT_EQ(saved_timers(as), saved_timers(donor));

  const std::vector<double> t4(4, 0.0);
  const std::pair<const char*, std::vector<std::uint8_t>> refused[] = {
      {"timer lane for 3 cells",
       active_set_archive(std::vector<double>(3, 0.0), {0}, true)},
      {"more than max_size members", active_set_archive(t4, {0, 1, 2, 3}, true)},
      {"member out of range", active_set_archive(t4, {0, 100000}, true)},
      {"member one past the last cell", active_set_archive(t4, {4}, true)},
      {"repeated member", active_set_archive(t4, {1, 2, 1}, true)},
      {"initialised without members", active_set_archive(t4, {}, true)},
      {"truncated", std::vector<std::uint8_t>(good.begin(), good.end() - 9)},
  };
  for (const auto& [why, bytes] : refused) {
    common::BinaryReader r(bytes);
    EXPECT_FALSE(as.load(r)) << why;
    // A refused load leaves the set as it was.
    EXPECT_EQ(as.members(), donor.members()) << why;
    EXPECT_EQ(saved_timers(as), saved_timers(donor)) << why;
  }

  // The accepted edges: a full set in any order, and a fresh empty one.
  {
    const std::vector<std::uint8_t> full = active_set_archive(t4, {3, 0, 2}, true);
    common::BinaryReader r(full);
    ASSERT_TRUE(as.load(r));
    EXPECT_EQ(as.members(), (std::vector<std::size_t>{3, 0, 2}));
  }
  {
    const std::vector<std::uint8_t> fresh = active_set_archive(t4, {}, false);
    common::BinaryReader r(fresh);
    ASSERT_TRUE(as.load(r));
    EXPECT_TRUE(as.members().empty());
  }
}

TEST(ActiveSet, AdjustmentFactors) {
  ActiveSet as(as_config(), 3);
  as.update({-10.0, -30.0, -30.0}, 0.02);
  EXPECT_DOUBLE_EQ(as.forward_adjustment(), 1.0);  // single leg
  EXPECT_DOUBLE_EQ(as.reverse_adjustment(), 1.0);
  as.update({-10.0, -11.0, -30.0}, 0.02);
  EXPECT_NEAR(as.forward_adjustment(), 1.8, 1e-12);  // two legs cost more
  EXPECT_NEAR(as.reverse_adjustment(), 0.8, 1e-12);  // diversity discount
}

}  // namespace
}  // namespace wcdma::cell
