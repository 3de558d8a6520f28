// Deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible for a given master seed regardless
// of thread count, so every logical entity (replication, cell, user, channel
// process) owns its own Rng derived from the master seed and a stream index
// via SplitMix64.  Xoshiro256** is the workhorse generator: tiny state, fast,
// and passes BigCrush.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "src/common/assert.hpp"

namespace wcdma::common {

class BinaryWriter;
class BinaryReader;

namespace detail {
inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// SplitMix64 stream: used to expand a master seed into independent
/// sub-seeds.  Deterministic seed derivation, not a statistics-grade
/// generator by itself.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// Xoshiro256** generator with a full suite of distributions needed by the
/// traffic/channel models.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent generator for stream `stream`; two streams from
  /// the same parent never share state.  Deterministic.
  Rng fork(std::uint64_t stream) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  // The draw primitives the channel hot loops hit millions of times per
  // second are defined inline below the class.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);
  /// Standard normal via polar Box-Muller (cached spare).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Exponential with given mean (not rate).  mean > 0.
  double exponential(double mean);
  /// Pareto with shape `alpha` > 1 and minimum `xm` > 0 (mean finite).
  double pareto(double alpha, double xm);
  /// Truncated Pareto on [xm, cap]; used for WWW object sizes.
  double pareto_truncated(double alpha, double xm, double cap);
  /// Bernoulli(p).
  bool bernoulli(double p);
  /// Poisson with given mean (inversion for small, PTRS-lite via normal
  /// approximation for large means).
  int poisson(double mean);
  /// Rayleigh-distributed envelope with E[x^2] = 2*sigma^2.
  double rayleigh(double sigma);
  /// Log-normal where the dB-value is Normal(0, sigma_db): returns linear
  /// factor 10^(N(0,sigma_db)/10).
  double lognormal_shadow(double sigma_db);

  /// Checkpoint support: the full generator state (four Xoshiro words plus
  /// the cached Box-Muller spare -- dropping the spare would shift every
  /// subsequent normal() draw by one).
  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

inline std::uint64_t Rng::next_u64() {
  const std::uint64_t result = detail::rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = detail::rotl64(s_[3], 45);
  return result;
}

inline double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) {
  WCDMA_DEBUG_ASSERT(hi >= lo);
  return lo + (hi - lo) * uniform();
}

inline double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  // lint-allow(DET-FLOAT-EQ): Box-Muller rejects the exact-zero draw (log(0))
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * f;
  has_spare_ = true;
  return u * f;
}

inline double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

}  // namespace wcdma::common
