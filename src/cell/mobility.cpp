#include "src/cell/mobility.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::cell {

namespace {

// Model tags for the checkpoint archives; stable, never reordered.  Tags 2
// (random walk) and 4 (fixed position) belonged to deleted models and stay
// retired, never reused.
constexpr std::uint8_t kTagWaypoint = 1;
constexpr std::uint8_t kTagCorridor = 3;

template <typename P, typename Archive>
void point_fields(P& p, Archive& ar) {
  ar.field(p.x);
  ar.field(p.y);
}

Point random_in_disc(common::Rng& rng, const MobilityConfig& config) {
  const double r = config.region_radius_m * std::sqrt(rng.uniform());
  const double th = rng.uniform(0.0, 2.0 * M_PI);
  return config.region_center +
         Point{r * common::refmath::cos(th), r * common::refmath::sin(th)};
}

}  // namespace

RandomWaypoint::RandomWaypoint(const MobilityConfig& config, common::Rng rng)
    : config_(config), rng_(rng) {
  WCDMA_ASSERT(config_.max_speed_mps >= config_.min_speed_mps);
  WCDMA_ASSERT(config_.min_speed_mps > 0.0);
  pos_ = random_in_disc(rng_, config_);
  pick_waypoint();
}

void RandomWaypoint::pick_waypoint() {
  target_ = random_in_disc(rng_, config_);
  speed_ = rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
}

double RandomWaypoint::step(double dt) {
  double moved = 0.0;
  double remaining = dt;
  while (remaining > 0.0) {
    if (pause_left_ > 0.0) {
      const double pause = std::min(pause_left_, remaining);
      pause_left_ -= pause;
      remaining -= pause;
      continue;
    }
    const Point delta = target_ - pos_;
    const double dist = norm(delta);
    const double reach = speed_ * remaining;
    if (reach >= dist) {
      pos_ = target_;
      moved += dist;
      remaining -= (speed_ > 0.0 ? dist / speed_ : remaining);
      pause_left_ = config_.pause_s;
      pick_waypoint();
    } else {
      const double f = reach / dist;
      pos_ = pos_ + f * delta;
      moved += reach;
      remaining = 0.0;
    }
  }
  return moved;
}

CorridorMobility::CorridorMobility(const MobilityConfig& config, common::Rng rng)
    : config_(config), rng_(rng) {
  WCDMA_ASSERT(config_.max_speed_mps >= config_.min_speed_mps);
  WCDMA_ASSERT(config_.min_speed_mps > 0.0);
  half_length_m_ = config_.corridor_half_length_m > 0.0
                       ? config_.corridor_half_length_m
                       : config_.region_radius_m;
  WCDMA_ASSERT(half_length_m_ > 0.0);
  pos_.x = rng_.uniform(-half_length_m_, half_length_m_);
  pos_.y = rng_.uniform(-config_.corridor_half_width_m, config_.corridor_half_width_m);
  dir_ = rng_.uniform() < 0.5 ? 1 : -1;
  speed_ = rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
}

double CorridorMobility::step(double dt) {
  const double moved = speed_ * dt;
  pos_.x += dir_ * moved;
  // Wrap around the segment ends; a wrapping vehicle re-enters at the far
  // end with a fresh cruise speed (and keeps its lane and direction).
  if (pos_.x > half_length_m_) {
    pos_.x -= 2.0 * half_length_m_;
    speed_ = rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
  } else if (pos_.x < -half_length_m_) {
    pos_.x += 2.0 * half_length_m_;
    speed_ = rng_.uniform(config_.min_speed_mps, config_.max_speed_mps);
  }
  return moved;
}

template <typename Self, typename Archive>
void RandomWaypoint::fields(Self& m, Archive& ar) {
  ar.expect(kTagWaypoint);
  ar.field(m.rng_);
  point_fields(m.pos_, ar);
  point_fields(m.target_, ar);
  ar.field(m.speed_);
  ar.field(m.pause_left_);
}

void RandomWaypoint::save(common::BinaryWriter& w) const { fields(*this, w); }
bool RandomWaypoint::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

template <typename Self, typename Archive>
void CorridorMobility::fields(Self& m, Archive& ar) {
  ar.expect(kTagCorridor);
  ar.field(m.rng_);
  point_fields(m.pos_, ar);
  ar.field(m.dir_);
  ar.field(m.speed_);
}

void CorridorMobility::save(common::BinaryWriter& w) const { fields(*this, w); }
bool CorridorMobility::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

std::unique_ptr<MobilityModel> make_mobility(const MobilityConfig& config,
                                             common::Rng rng) {
  switch (config.kind) {
    case MobilityKind::kCorridor:
      return std::make_unique<CorridorMobility>(config, rng);
    case MobilityKind::kRandomWaypoint:
      break;
  }
  return std::make_unique<RandomWaypoint>(config, rng);
}

}  // namespace wcdma::cell
