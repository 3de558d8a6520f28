// Distance-dependent mean path loss.
//
// Section 3.1 of the paper relies on path-loss *symmetry* between forward
// and reverse links (Eq. 13-14) to project neighbour-cell interference from
// forward pilot measurements; these models are therefore direction-free.
// The per-frame link gains never evaluate them: sim::FrameState folds
// affine_log10() into one exp2 per link at init.
#pragma once

#include <algorithm>

#include "src/common/refmath.hpp"

namespace wcdma::channel {

enum class PathLossModelKind {
  kLogDistance,   // PL(d) = PL(d0) + 10 n log10(d/d0)
  k3gppMacro,     // 128.1 + 37.6 log10(d_km)  (3GPP TR 25.942 macro cell)
  kCost231Hata,   // COST231-Hata urban, 2 GHz, hb=32m, hm=1.5m
};

struct PathLossConfig {
  PathLossModelKind kind = PathLossModelKind::k3gppMacro;
  // kLogDistance parameters:
  double exponent = 3.76;
  double reference_db = 128.1;   // loss at reference_distance_m
  double reference_distance_m = 1000.0;
  // Distances below this are clamped (near-field guard).
  double min_distance_m = 10.0;
};

/// Stateless path-loss evaluator.
class PathLoss {
 public:
  explicit PathLoss(const PathLossConfig& config = {});

  /// Path loss in dB at distance `d_m` metres (clamped to min_distance_m).
  double loss_db(double d_m) const {
    namespace rm = common::refmath;
    const double d = std::max(d_m, config_.min_distance_m);
    switch (config_.kind) {
      case PathLossModelKind::kLogDistance:
        return config_.reference_db +
               10.0 * config_.exponent * rm::log10(d / config_.reference_distance_m);
      case PathLossModelKind::k3gppMacro:
        return 128.1 + 37.6 * rm::log10(d / 1000.0);
      case PathLossModelKind::kCost231Hata: {
        // Urban macro at fc = 2000 MHz, hb = 32 m, hm = 1.5 m, large city.
        const double fc = 2000.0, hb = 32.0, hm = 1.5;
        const double l_hm = rm::log10(11.75 * hm);
        const double a_hm = 3.2 * (l_hm * l_hm) - 4.97;
        return 46.3 + 33.9 * rm::log10(fc) - 13.82 * rm::log10(hb) - a_hm +
               (44.9 - 6.55 * rm::log10(hb)) * rm::log10(d / 1000.0) + 3.0;
      }
    }
    return 0.0;  // unreachable
  }

  /// Linear channel power *gain* (= 10^(-loss/10)), always in (0, 1].
  double gain_linear(double d_m) const {
    return common::refmath::pow(10.0, -loss_db(d_m) / 10.0);
  }

  /// Every model above is affine in log10 of the clamped distance:
  /// loss_db(d) = a + b * log10(max(d, min_distance_m)).  Exposed so
  /// sim::FrameState::init can fold the model into the gain lane's two
  /// constants while this class stays the single source of the per-model
  /// parameters.
  struct AffineLog10 {
    double a_db = 0.0;
    double b_db = 0.0;
  };
  AffineLog10 affine_log10() const {
    // Derived from loss_db() itself at two points above the near-field
    // clamp a decade apart, so no model constant is duplicated and any
    // affine model folds correctly by construction (pinned across models
    // by PathLoss.AffineFoldMatchesEveryModel).
    const double d1 = std::max(config_.min_distance_m, 1.0) * 2.0;
    const double d2 = d1 * 10.0;
    const double l1 = loss_db(d1);
    const double b = loss_db(d2) - l1;  // log10(d2) - log10(d1) == 1
    return {l1 - b * common::refmath::log10(d1), b};
  }

  const PathLossConfig& config() const { return config_; }

 private:
  PathLossConfig config_;
};

}  // namespace wcdma::channel
