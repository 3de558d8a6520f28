#include "src/traffic/voice.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::traffic {

VoiceSource::VoiceSource(const VoiceConfig& config, common::Rng rng)
    : config_(config), rng_(rng) {
  WCDMA_ASSERT(config_.mean_on_s > 0.0 && config_.mean_off_s > 0.0);
  // Stationary start: active with probability of the activity factor.
  active_ = rng_.bernoulli(activity_factor());
  time_left_ = rng_.exponential(active_ ? config_.mean_on_s : config_.mean_off_s);
}

bool VoiceSource::step(double dt) {
  double remaining = dt;
  while (remaining >= time_left_) {
    remaining -= time_left_;
    active_ = !active_;
    time_left_ = rng_.exponential(active_ ? config_.mean_on_s : config_.mean_off_s);
  }
  time_left_ -= remaining;
  return active_;
}

void VoiceSource::save(common::BinaryWriter& w) const {
  rng_.save(w);
  w.boolean(active_);
  w.f64(time_left_);
}

bool VoiceSource::load(common::BinaryReader& r) {
  if (!rng_.load(r)) return false;
  active_ = r.boolean();
  time_left_ = r.f64();
  return r.ok();
}

}  // namespace wcdma::traffic
