#include "src/common/rng.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::common {

void Rng::save(BinaryWriter& w) const {
  for (std::uint64_t word : s_) w.u64(word);
  w.f64(spare_normal_);
  w.boolean(has_spare_);
}

void Rng::load(BinaryReader& r) {
  for (std::uint64_t& word : s_) word = r.u64();
  spare_normal_ = r.f64();
  has_spare_ = r.boolean();
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // All-zero state is the one invalid state for xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the child stream index into the parent state through SplitMix64 so
  // that fork(a) and fork(b) are decorrelated even for adjacent indices.
  SplitMix64 sm(s_[0] ^ detail::rotl64(s_[3], 17) ^
                (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  Rng child(sm.next());
  return child;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  WCDMA_DEBUG_ASSERT(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double mean) {
  WCDMA_DEBUG_ASSERT(mean > 0.0);
  // -mean * log(1-u); 1-u in (0,1] avoids log(0).
  return -mean * refmath::log(1.0 - uniform());
}

double Rng::pareto(double alpha, double xm) {
  WCDMA_DEBUG_ASSERT(alpha > 0.0 && xm > 0.0);
  return xm / refmath::pow(1.0 - uniform(), 1.0 / alpha);
}

double Rng::pareto_truncated(double alpha, double xm, double cap) {
  WCDMA_DEBUG_ASSERT(cap > xm);
  // Inverse-CDF of the Pareto truncated to [xm, cap].
  const double f_cap = 1.0 - refmath::pow(xm / cap, alpha);
  const double u = uniform() * f_cap;
  return xm / refmath::pow(1.0 - u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

int Rng::poisson(double mean) {
  WCDMA_DEBUG_ASSERT(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double limit = refmath::exp(-mean);
    double prod = uniform();
    int n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction: adequate for the
  // large-mean call sites (aggregate voice arrivals).
  const double x = normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<int>(x + 0.5);
}

double Rng::rayleigh(double sigma) {
  return sigma * std::sqrt(-2.0 * refmath::log(1.0 - uniform()));
}

double Rng::lognormal_shadow(double sigma_db) {
  return refmath::pow(10.0, normal(0.0, sigma_db) / 10.0);
}

}  // namespace wcdma::common
