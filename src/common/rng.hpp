// Deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible for a given master seed regardless
// of thread count, so every logical entity (replication, cell, user, channel
// process) owns its own Rng derived from the master seed and a stream index
// via SplitMix64.  Xoshiro256** is the workhorse generator: tiny state, fast,
// and passes BigCrush.  RngBank holds many such streams side by side and
// draws their normals in one batch, bit for bit as each stream's own
// normal() would.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::common {

class BinaryWriter;
class BinaryReader;

namespace detail {
inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One Xoshiro256** step on the state words (s0, s1, s2, s3).
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = rotl64(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl64(s3, 45);
  return result;
}

/// The 53 high bits of `bits` as a double in [0, 1).
inline double unit_uniform(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Uniform in [-1, 1): the polar Box-Muller coordinate, exactly
/// Rng::uniform(-1.0, 1.0) of the same draw.
inline double polar_coordinate(std::uint64_t bits) {
  return -1.0 + 2.0 * unit_uniform(bits);
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
  /// Truncated Pareto on [xm, cap]; used for WWW object sizes.
  double pareto_truncated(double alpha, double xm, double cap);
  /// Bernoulli(p).
  bool bernoulli(double p);
  /// Log-normal where the dB-value is Normal(0, sigma_db): returns linear
  /// factor 10^(N(0,sigma_db)/10).
  double lognormal_shadow(double sigma_db);

  /// Checkpoint support: the full generator state (four Xoshiro words plus
  /// the cached Box-Muller spare -- dropping the spare would shift every
  /// subsequent normal() draw by one).  load() refuses, leaving the
  /// generator as it was, a short read or the all-zero state: xoshiro never
  /// leaves it, so normal() and uniform_int() would never return.
  void save(BinaryWriter& w) const;
  bool load(BinaryReader& r);

 private:
  friend class RngBank;
  template <typename Self, typename Archive>
  static void fields(Self& rng, Archive& ar);
  Rng(const std::array<std::uint64_t, 4>& s, double spare, bool has_spare)
      : s_(s), spare_normal_(spare), has_spare_(has_spare) {}

  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// N independent Rng streams kept as structure-of-arrays lanes (the four
/// state words, the Box-Muller spare and its flag), so a batch of streams
/// draws its normals in one pass instead of one rejection loop at a time.
/// Every stream evolves exactly as the Rng it was set from would.
class RngBank {
 public:
  /// Sizes the bank to `n` streams, each in the all-zero (unset) state.
  void resize(std::size_t n);
  std::size_t size() const { return spare_.size(); }

  /// Stream `i` takes `rng`'s whole state, its spare included.
  void set(std::size_t i, const Rng& rng);
  /// Stream `i`'s state as an Rng.
  Rng get(std::size_t i) const;

  /// out[j] = streams[j]'s next normal(), for j < n, leaving each stream in
  /// the state its own Rng::normal() would leave it in.  The streams must
  /// be distinct.  Spares are handed out first; the streams still owing a
  /// draw then draw (u, v) pairs in rounds, the rejected ones again, so
  /// each draws exactly the pairs its own normal() would, in order; one
  /// refmath::log_lane over the accepted pairs finishes the block.
  void normal(const std::size_t* streams, std::size_t n, double* out);

  /// Exactly the bytes of size() Rng::save calls, stream 0 first (and
  /// load() reads them back), so an archive does not see the layout.
  /// load() takes all streams or none: it refuses what Rng::load refuses.
  void save(BinaryWriter& w) const;
  bool load(BinaryReader& r);

 private:
  template <typename Self, typename Archive>
  static void fields(Self& bank, Archive& ar);
  /// Streams per internal batch of normal(): bounds its stack scratch.
  static constexpr std::size_t kBatch = 64;
  void normal_batch(const std::size_t* streams, std::size_t n, double* out);

  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
  std::vector<double> spare_;
  std::vector<std::uint8_t> has_spare_;
};

inline std::uint64_t Rng::next_u64() {
  return detail::xoshiro_next(s_[0], s_[1], s_[2], s_[3]);
}

inline double Rng::uniform() { return detail::unit_uniform(next_u64()); }

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
    u = detail::polar_coordinate(next_u64());
    v = detail::polar_coordinate(next_u64());
    s = u * u + v * v;
  // lint-allow(DET-FLOAT-EQ): Box-Muller rejects the exact-zero draw (log(0))
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * refmath::log(s) / s);
  spare_normal_ = v * f;
  has_spare_ = true;
  return u * f;
}

inline double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

}  // namespace wcdma::common
