// User mobility models (the paper's dynamic simulation "takes into account
// of the user mobility").  Random-waypoint is the primary model: users roam
// a circular service region by picking waypoints inside it.  Corridor
// mobility drives users along a road segment (directional motion with
// wrap-around at the ends).
#pragma once

#include <memory>

#include "src/cell/geometry.hpp"
#include "src/common/rng.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::cell {

/// Which model the simulator builds for each user.
enum class MobilityKind { kRandomWaypoint, kCorridor };

struct MobilityConfig {
  MobilityKind kind = MobilityKind::kRandomWaypoint;
  double min_speed_mps = 0.3;   // ~1 km/h pedestrian
  double max_speed_mps = 16.7;  // ~60 km/h vehicular
  double pause_s = 0.0;         // random-waypoint pause at each waypoint
  double region_radius_m = 3000.0;
  /// Centre of the circular service region.  Per-cell load scaling places
  /// each user in a disc around its home cell, not around the origin.
  Point region_center{};
  // Corridor only: the road is the segment |x| <= half_length on the x-axis
  // (the row of cells through the origin), with lanes spread over
  // |y| <= half_width.  half_length <= 0 derives from region_radius_m.
  double corridor_half_length_m = 0.0;
  double corridor_half_width_m = 250.0;
};

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  /// Advances by dt seconds; returns metres moved (drives shadowing).
  virtual double step(double dt) = 0;
  virtual Point position() const = 0;
  virtual double speed_mps() const = 0;

  /// Checkpoint support: each model serializes its evolved state (position,
  /// waypoint/heading, RNG) behind a model tag.  The config itself is not
  /// archived -- restore targets a model rebuilt from the same SystemConfig,
  /// and the tag catches a kind mismatch.
  virtual void save(common::BinaryWriter& w) const = 0;
  virtual bool load(common::BinaryReader& r) = 0;
};

class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(const MobilityConfig& config, common::Rng rng);

  double step(double dt) override;
  Point position() const override { return pos_; }
  double speed_mps() const override { return speed_; }
  Point waypoint() const { return target_; }
  void save(common::BinaryWriter& w) const override;
  bool load(common::BinaryReader& r) override;

 private:
  template <typename Self, typename Archive>
  static void fields(Self& m, Archive& ar);
  void pick_waypoint();

  MobilityConfig config_;
  common::Rng rng_;
  Point pos_;
  Point target_;
  double speed_ = 0.0;
  double pause_left_ = 0.0;
};

/// Directional line-segment motion for highway corridors: each user draws a
/// lane offset, a travel direction (+x or -x), and a cruise speed, then
/// drives along the road and wraps around at the segment ends (matching the
/// wrap-around cell layout, so the corridor load is stationary in time).
/// Speed is redrawn at each wrap (a fresh "vehicle" enters the road).
class CorridorMobility final : public MobilityModel {
 public:
  CorridorMobility(const MobilityConfig& config, common::Rng rng);

  double step(double dt) override;
  Point position() const override { return pos_; }
  double speed_mps() const override { return speed_; }
  int direction() const { return dir_; }
  void save(common::BinaryWriter& w) const override;
  bool load(common::BinaryReader& r) override;

 private:
  template <typename Self, typename Archive>
  static void fields(Self& m, Archive& ar);

  MobilityConfig config_;
  common::Rng rng_;
  Point pos_;
  double half_length_m_ = 0.0;
  int dir_ = 1;  // +1 = towards +x, -1 = towards -x
  double speed_ = 0.0;
};

/// Builds the model selected by `config.kind` (the simulator's factory).
/// The RNG is consumed exactly as the model's constructor always did, so
/// the default (random-waypoint) path is stream-compatible with older code.
std::unique_ptr<MobilityModel> make_mobility(const MobilityConfig& config,
                                             common::Rng rng);

}  // namespace wcdma::cell
