#include "src/traffic/voice.hpp"

#include <cmath>

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

template <typename Self, typename Archive>
void VoiceSource::fields(Self& source, Archive& ar) {
  ar.field(source.rng_);
  ar.field(source.active_);
  ar.field(source.time_left_);
  // A live clock is finite and >= 0: the constructor draws it from an
  // exponential, and step() leaves it positive.  step() loops while the
  // frame outlasts the clock, so a forged negative one would never end.
  ar.check([&] { return std::isfinite(source.time_left_) && source.time_left_ >= 0.0; });
}

void VoiceSource::save(common::BinaryWriter& w) const { fields(*this, w); }
bool VoiceSource::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

}  // namespace wcdma::traffic
