// Short-term (fast) fading component Xs(t) of Eq. (1).
//
// Two Rayleigh generators:
//  * JakesFading — Clarke/Jakes sum-of-sinusoids; a deterministic function
//    of time given its random phases, so tests can sample it densely and
//    verify the Doppler autocorrelation J0(2*pi*fd*tau).  It is the Clarke
//    reference the frame-rate AR(1) model is checked against.
//  * Ar1Fading — complex Gauss-Markov process stepped at the frame rate;
//    cheap, where only per-frame values matter.  sim::FrameState replays
//    the same recursion lazily in flat buffers for every link; this eager
//    object is the twin its tests check that replay against.
// Both are normalised to unit mean power so the composite channel of Eq. (1)
// separates cleanly into mean (path loss x shadowing) and fluctuation.
#pragma once

#include <complex>
#include <vector>

#include "src/common/rng.hpp"

namespace wcdma::channel {

class JakesFading {
 public:
  /// `paths` sinusoids per quadrature (8-32 typical).
  JakesFading(double doppler_hz, common::Rng rng, int paths = 16);

  /// Advances internal time by dt seconds and returns the instantaneous
  /// *power* gain (unit mean).
  double step(double dt);
  /// Current power gain without advancing.
  double power_gain() const;

  /// Evaluates the complex gain at absolute time t (used by tests/benches).
  std::complex<double> gain_at(double t) const;

  double doppler_hz() const { return doppler_hz_; }

 private:
  double doppler_hz_;
  double t_ = 0.0;
  std::vector<double> omega_;   // per-path Doppler angular frequencies
  std::vector<double> phase_i_;
  std::vector<double> phase_q_;
  double norm_;
};

class Ar1Fading {
 public:
  /// `dt_nominal` is the expected step interval; the AR coefficient is
  /// recomputed if step() is called with a different dt.
  Ar1Fading(double doppler_hz, double dt_nominal, common::Rng rng);

  /// Advances by dt seconds and returns the instantaneous power gain.
  double step(double dt);
  double power_gain() const;

  /// step(dt_nominal) without the per-step innovation sqrt: the coefficient
  /// pair is cached at construction.  Bit-identical to step(dt_nominal).
  double step_nominal() {
    h_ = {rho_ * h_.real() + rng_.normal(0.0, innovation_),
          rho_ * h_.imag() + rng_.normal(0.0, innovation_)};
    return std::norm(h_);
  }

  /// AR(1) coefficient for lag dt: rho = J0(2 pi fd dt), floored at 0.
  static double correlation(double doppler_hz, double dt);

 private:
  double doppler_hz_;
  double dt_nominal_;
  double rho_;
  double innovation_;  // innovation sigma at dt_nominal (cached)
  common::Rng rng_;
  std::complex<double> h_;
};

}  // namespace wcdma::channel
