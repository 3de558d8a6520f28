#include "src/common/ziggurat.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/simd.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#define WCDMA_ZIGGURAT_X86 1
#include <immintrin.h>
#else
#define WCDMA_ZIGGURAT_X86 0
#endif

namespace wcdma::common {

namespace {

/// Right edge of the base strip and the common strip area for 256 layers
/// (Marsaglia & Tsang constants).
constexpr double kTailCut = 3.6541528853610088;
constexpr double kStripArea = 4.92867323399e-3;
constexpr double kTwo53 = 9007199254740992.0;  // magnitudes are 53-bit

/// Samples per SIMD block in fill(): big enough to amortize the prep loop,
/// small enough that a rejection (p ~ 1.5% per sample) rarely rolls back
/// much accepted work.
constexpr std::size_t kFillBlock = 8;

/// IEEE negation == sign-bit flip; applying the ziggurat sign bit this way
/// keeps the scalar tail of the block path bit-identical to the packed XOR.
inline double apply_sign(double x, std::uint64_t sign_bit) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits ^= sign_bit;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

}  // namespace

ZigguratNormal::ZigguratNormal() : tables_(&shared_tables()) {}

const ZigguratNormal::Tables& ZigguratNormal::shared_tables() {
  static const Tables tables = [] {
    Tables t{};
    double dn = kTailCut;
    double tn = kTailCut;
    // Layer 0 is the base strip plus the tail, stretched so a uniform
    // 53-bit magnitude below k[0] lands in the strip proper.
    const double q = kStripArea / std::exp(-0.5 * dn * dn);
    t.k[0] = static_cast<std::uint64_t>((dn / q) * kTwo53);
    t.k[1] = 0;
    t.w[0] = q / kTwo53;
    t.w[255] = dn / kTwo53;
    t.f[0] = 1.0;
    t.f[255] = std::exp(-0.5 * dn * dn);
    for (int i = 254; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(kStripArea / dn + std::exp(-0.5 * dn * dn)));
      t.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * kTwo53);
      tn = dn;
      t.f[i] = std::exp(-0.5 * dn * dn);
      t.w[i] = dn / kTwo53;
    }
    // Every k is below 2^53, so the double mirror is exact and the packed
    // accept compare (double(magnitude) < kd) equals the integer compare.
    for (int i = 0; i < 256; ++i) t.kd[i] = static_cast<double>(t.k[i]);
    return t;
  }();
  return tables;
}

double ZigguratNormal::draw_slow(Rng& rng, std::size_t layer, double x) const {
  std::size_t words = 0;
  return draw_slow_counted(rng, layer, x, &words);
}

double ZigguratNormal::draw_slow_counted(Rng& rng, std::size_t layer, double x,
                                         std::size_t* words) const {
  if (layer == 0) {
    // Exponential-majorised tail beyond kTailCut (Marsaglia's method).
    // 1 - uniform() is in (0, 1], so the logs stay finite.  Two words per
    // acceptance-loop iteration (the documented tail cost).
    double xx, yy;
    do {
      xx = -std::log(1.0 - rng.uniform()) / kTailCut;
      yy = -std::log(1.0 - rng.uniform());
      *words += 2;
    } while (yy + yy < xx * xx);
    return kTailCut + xx;
  }
  // Wedge between the strip top and the density curve: one word, accept or
  // reject.
  *words += 1;
  const double fx = std::exp(-0.5 * x * x);
  if (tables_->f[layer] + rng.uniform() * (tables_->f[layer - 1] - tables_->f[layer]) <
      fx) {
    return x;
  }
  return std::numeric_limits<double>::quiet_NaN();  // rejected: caller redraws
}

double ZigguratNormal::draw_counted(Rng& rng, std::size_t* words) const {
  for (;;) {
    const std::uint64_t u = rng.next_u64();
    *words += 1;
    const std::size_t layer = u & 0xff;
    const std::uint64_t magnitude = u >> 11;  // 53 bits
    const double x = static_cast<double>(magnitude) * tables_->w[layer];
    if (magnitude < tables_->k[layer]) return (u & 0x100) ? -x : x;
    const double slow = draw_slow_counted(rng, layer, x, words);
    if (slow == slow) return (u & 0x100) ? -slow : slow;  // NaN = rejected
  }
}

std::size_t ZigguratNormal::fill_scalar(Rng& rng, double* out, std::size_t n) const {
  std::size_t words = 0;
  for (std::size_t i = 0; i < n; ++i) out[i] = draw_counted(rng, &words);
  return words;
}

#if WCDMA_ZIGGURAT_X86

// The block fill vectorizes only the ~99% accept path: draw a block of
// words, split the (layer, magnitude, sign) fields and gather the table
// entries scalar, then do the magnitude * w multiply, the accept compare,
// and the sign flip packed.  On the FIRST rejected lane the RNG rewinds to
// the block-entry snapshot, burns exactly the accepted prefix, and replays
// the rejected sample through the full scalar slow path -- so sample values,
// stream mapping, and word counts are identical to fill_scalar by
// construction, for any block size.

__attribute__((target("avx2"))) std::size_t ZigguratNormal::fill_block_avx2(
    Rng& rng, double* out, std::size_t n) const {
  std::size_t words = 0;
  std::size_t i = 0;
  double magd[kFillBlock], wsel[kFillBlock], ksel[kFillBlock], x[kFillBlock];
  std::uint64_t sign[kFillBlock];
  while (i < n) {
    const std::size_t m = n - i < kFillBlock ? n - i : kFillBlock;
    const Rng snapshot = rng;
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t u = rng.next_u64();
      const std::size_t layer = u & 0xff;
      magd[j] = static_cast<double>(u >> 11);
      wsel[j] = tables_->w[layer];
      ksel[j] = tables_->kd[layer];
      sign[j] = (u & 0x100) << 55;
    }
    std::uint32_t reject = 0;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d md = _mm256_loadu_pd(magd + j);
      __m256d xv = _mm256_mul_pd(md, _mm256_loadu_pd(wsel + j));
      xv = _mm256_xor_pd(xv, _mm256_castsi256_pd(_mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(sign + j))));
      _mm256_storeu_pd(x + j, xv);
      const int accept = _mm256_movemask_pd(
          _mm256_cmp_pd(md, _mm256_loadu_pd(ksel + j), _CMP_LT_OQ));
      reject |= static_cast<std::uint32_t>(~accept & 0xf) << j;
    }
    for (; j < m; ++j) {
      x[j] = apply_sign(magd[j] * wsel[j], sign[j]);
      if (!(magd[j] < ksel[j])) reject |= std::uint32_t{1} << j;
    }
    if (reject == 0) {
      std::memcpy(out + i, x, m * sizeof(double));
      words += m;
      i += m;
      continue;
    }
    std::size_t j0 = 0;
    while (((reject >> j0) & 1u) == 0) ++j0;
    for (std::size_t a = 0; a < j0; ++a) out[i + a] = x[a];
    rng = snapshot;
    for (std::size_t a = 0; a < j0; ++a) rng.next_u64();
    words += j0;
    out[i + j0] = draw_counted(rng, &words);
    i += j0 + 1;
  }
  return words;
}

#else  // !WCDMA_ZIGGURAT_X86

std::size_t ZigguratNormal::fill_block_avx2(Rng& rng, double* out,
                                            std::size_t n) const {
  return fill_scalar(rng, out, n);
}

#endif  // WCDMA_ZIGGURAT_X86

std::size_t ZigguratNormal::fill(Rng& rng, double* out, std::size_t n) const {
  if (active_simd_level() == SimdLevel::kAvx2) return fill_block_avx2(rng, out, n);
  return fill_scalar(rng, out, n);
}

}  // namespace wcdma::common
