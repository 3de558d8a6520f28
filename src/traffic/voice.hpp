// On/off Markov voice source.
//
// Section 1 of the paper builds CDMA voice capacity on the statistical
// multiplexing of independent on/off voice users with activity factor p_on
// (E[sum 1(v_n = 1)] -> N * p_on).  Exponential talk-spurt and silence
// durations give exactly that stationary activity.
#pragma once

#include "src/common/rng.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::traffic {

struct VoiceConfig {
  double mean_on_s = 1.0;
  double mean_off_s = 1.5;  // activity factor = 1.0 / (1.0 + 1.5) = 0.4
  double bit_rate = 9600.0; // RS1 vocoder full rate
};

class VoiceSource {
 public:
  VoiceSource(const VoiceConfig& config, common::Rng rng);

  /// Advances dt seconds; returns true if the source is in a talk spurt.
  bool step(double dt);

  bool active() const { return active_; }
  double bit_rate() const { return config_.bit_rate; }

  /// Stationary activity factor implied by the configuration.
  double activity_factor() const {
    return config_.mean_on_s / (config_.mean_on_s + config_.mean_off_s);
  }

  /// load() refuses, leaving the source as it was, a short read, an RNG
  /// state Rng::load refuses, or a talk/silence clock that is negative or
  /// not finite.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& source, Archive& ar);

  VoiceConfig config_;
  common::Rng rng_;
  bool active_;
  double time_left_;
};

}  // namespace wcdma::traffic
