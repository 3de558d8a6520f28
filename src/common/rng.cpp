#include "src/common/rng.hpp"

#include <algorithm>
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

bool Rng::load(BinaryReader& r) {
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t& word : s) word = r.u64();
  const double spare = r.f64();
  const bool has_spare = r.boolean();
  if (!r.ok() || (s[0] | s[1] | s[2] | s[3]) == 0) return false;
  *this = Rng(s, spare, has_spare);
  return true;
}

void RngBank::resize(std::size_t n) {
  s0_.assign(n, 0);
  s1_.assign(n, 0);
  s2_.assign(n, 0);
  s3_.assign(n, 0);
  spare_.assign(n, 0.0);
  has_spare_.assign(n, 0);
}

void RngBank::set(std::size_t i, const Rng& rng) {
  WCDMA_DEBUG_ASSERT(i < size());
  s0_[i] = rng.s_[0];
  s1_[i] = rng.s_[1];
  s2_[i] = rng.s_[2];
  s3_[i] = rng.s_[3];
  spare_[i] = rng.spare_normal_;
  has_spare_[i] = rng.has_spare_ ? 1 : 0;
}

Rng RngBank::get(std::size_t i) const {
  WCDMA_DEBUG_ASSERT(i < size());
  return Rng({s0_[i], s1_[i], s2_[i], s3_[i]}, spare_[i], has_spare_[i] != 0);
}

void RngBank::normal(const std::size_t* streams, std::size_t n, double* out) {
  for (std::size_t base = 0; base < n; base += kBatch) {
    normal_batch(streams + base, std::min(kBatch, n - base), out + base);
  }
}

void RngBank::normal_batch(const std::size_t* streams, std::size_t n, double* out) {
  // The slots j < n of this batch that owe a fresh pair, their streams,
  // and per pair its (u, v, s = u^2 + v^2).
  std::uint32_t owed[kBatch];
  std::size_t owed_stream[kBatch];
  std::size_t n_owed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t s = streams[j];
    WCDMA_DEBUG_ASSERT(s < size());
    if (has_spare_[s] != 0) {
      has_spare_[s] = 0;
      out[j] = spare_[s];
    } else {
      owed[n_owed] = static_cast<std::uint32_t>(j);
      owed_stream[n_owed++] = s;
    }
  }
  double u[kBatch], v[kBatch], sq[kBatch];
  // Rounds: every pair still open draws one (u, v) from its stream, as
  // Rng::normal's loop body does, and the rejected ones go round again.
  std::uint32_t open[kBatch];
  for (std::size_t p = 0; p < n_owed; ++p) open[p] = static_cast<std::uint32_t>(p);
  std::size_t n_open = n_owed;
  while (n_open > 0) {
    std::size_t still_open = 0;
    for (std::size_t t = 0; t < n_open; ++t) {
      const std::uint32_t p = open[t];
      const std::size_t s = owed_stream[p];
      std::uint64_t w0 = s0_[s], w1 = s1_[s], w2 = s2_[s], w3 = s3_[s];
      const double up = detail::polar_coordinate(detail::xoshiro_next(w0, w1, w2, w3));
      const double vp = detail::polar_coordinate(detail::xoshiro_next(w0, w1, w2, w3));
      s0_[s] = w0;
      s1_[s] = w1;
      s2_[s] = w2;
      s3_[s] = w3;
      const double sp = up * up + vp * vp;
      u[p] = up;
      v[p] = vp;
      sq[p] = sp;
      // Rejection without a branch (a mispredict on every fifth pair):
      // the slot is kept in the open list only when the draw failed.
      const unsigned rejected =
          // lint-allow(DET-FLOAT-EQ): Box-Muller rejects the exact-zero draw (log(0))
          static_cast<unsigned>(sp >= 1.0) | static_cast<unsigned>(sp == 0.0);
      open[still_open] = p;
      still_open += rejected;
    }
    n_open = still_open;
  }
  // f = sqrt(-2 log(s) / s), as Rng::normal takes it, in pair order.
  double f[kBatch];
  refmath::log_lane(sq, f, n_owed);
  for (std::size_t p = 0; p < n_owed; ++p) f[p] = std::sqrt(-2.0 * f[p] / sq[p]);
  for (std::size_t p = 0; p < n_owed; ++p) {
    const std::size_t s = owed_stream[p];
    spare_[s] = v[p] * f[p];
    has_spare_[s] = 1;
    out[owed[p]] = u[p] * f[p];
  }
}

void RngBank::save(BinaryWriter& w) const {
  for (std::size_t i = 0; i < size(); ++i) get(i).save(w);
}

bool RngBank::load(BinaryReader& r) {
  RngBank loaded;
  loaded.resize(size());
  Rng rng;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!rng.load(r)) return false;
    loaded.set(i, rng);
  }
  *this = std::move(loaded);
  return true;
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

double Rng::pareto_truncated(double alpha, double xm, double cap) {
  WCDMA_DEBUG_ASSERT(cap > xm);
  // Inverse-CDF of the Pareto truncated to [xm, cap].
  const double f_cap = 1.0 - refmath::pow(xm / cap, alpha);
  const double u = uniform() * f_cap;
  return xm / refmath::pow(1.0 - u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::lognormal_shadow(double sigma_db) {
  return refmath::pow(10.0, normal(0.0, sigma_db) / 10.0);
}

}  // namespace wcdma::common
