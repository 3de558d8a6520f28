// SIMD implementations of the fast-provider batch kernels.
//
// Every vector body below is a transliteration of the scalar fastmath
// sequence (src/common/fastmath.hpp) into packed IEEE-754 operations: the
// same adds, multiplies, divides, and min/max in the same per-element order.
// Packed double arithmetic is correctly rounded exactly like scalar, so the
// transliteration is element-wise BIT-IDENTICAL -- the contract kernels.hpp
// documents and tests/test_kernels.cpp enforces.  Three things protect it:
//
//  * no FMA anywhere (the AVX2 paths use only mul/add/sub/div/min/max, and
//    this translation unit builds with -ffp-contract=off so the compiler
//    cannot fuse a mul+add behind our back);
//  * floor() is emulated with exact integer conversions (the inputs are
//    clamped to [-1022, 1022], far inside i32 range);
//  * NaN lanes are blended back to the ORIGINAL input bits, matching the
//    scalar early-return that preserves NaN payloads.
//
// The AVX2 bodies are compiled via function-level target attributes, so the
// file needs no -mavx2 flag and the baseline objects run on any x86-64; the
// CPUID dispatch in common::active_simd_level() guarantees the AVX2 bodies
// only run on hosts that have the instructions.
#include "src/sim/kernels.hpp"

#include "src/common/fastmath.hpp"
#include "src/common/simd.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#define WCDMA_KERNELS_X86 1
#include <immintrin.h>
#else
#define WCDMA_KERNELS_X86 0
#endif

namespace wcdma::sim::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference bodies (also the tail loops of the vector paths).
// ---------------------------------------------------------------------------

void exp2_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = common::fast_exp2(x[i]);
}

void log2_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = common::fast_log2(x[i]);
}

void linear_to_db_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = common::fast_linear_to_db(x[i]);
}

void db_to_linear_scalar(const double* db, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = common::fast_db_to_linear(db[i]);
}

void shadow_gain_scalar(double rho, double innovation_db, double gain_bias,
                        double half_log2_slope, const double* z, const double* d_sq,
                        double* shadow_db, double* gain, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = rho * shadow_db[i] + innovation_db * z[i];
    shadow_db[i] = s;
    gain[i] = common::fast_exp2(common::kExp2PerDb * s + gain_bias -
                                half_log2_slope * common::fast_log2(d_sq[i]));
  }
}

#if WCDMA_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2, width 4 (function-level target attribute; dispatched at runtime).
// ---------------------------------------------------------------------------

bool avx2_active() { return common::active_simd_level() == common::SimdLevel::kAvx2; }

__attribute__((target("avx2"))) inline __m256d exp2_pd_avx2(__m256d x) {
  const __m256d nan_mask = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  __m256d xc = _mm256_min_pd(_mm256_set1_pd(1022.0),
                             _mm256_max_pd(_mm256_set1_pd(-1022.0), x));
  const __m256d y = _mm256_add_pd(xc, _mm256_set1_pd(0.5));
  const __m256d t = _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(y));
  const __m256d n = _mm256_sub_pd(
      t, _mm256_and_pd(_mm256_cmp_pd(y, t, _CMP_LT_OQ), _mm256_set1_pd(1.0)));
  const __m256d z =
      _mm256_mul_pd(_mm256_sub_pd(xc, n), _mm256_set1_pd(0.69314718055994531));
  __m256d p = _mm256_set1_pd(1.0 / 5040.0);
  p = _mm256_add_pd(_mm256_set1_pd(1.0 / 720.0), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0 / 120.0), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0 / 24.0), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0 / 6.0), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(z, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(z, p));
  const __m128i ni = _mm256_cvttpd_epi32(n);
  const __m128i biased = _mm_add_epi32(ni, _mm_set1_epi32(1023));
  const __m256i wide = _mm256_cvtepu32_epi64(biased);
  const __m256d pow2 = _mm256_castsi256_pd(_mm256_slli_epi64(wide, 52));
  const __m256d r = _mm256_mul_pd(p, pow2);
  return _mm256_blendv_pd(r, x, nan_mask);
}

__attribute__((target("avx2"))) inline __m256d log2_pd_avx2(__m256d x) {
  const __m256d sub_mask = _mm256_cmp_pd(x, _mm256_set1_pd(0x1p-1022), _CMP_LT_OQ);
  const __m256d x_scaled = _mm256_mul_pd(x, _mm256_set1_pd(0x1p54));
  x = _mm256_blendv_pd(x, x_scaled, sub_mask);
  const __m256d e_extra = _mm256_and_pd(sub_mask, _mm256_set1_pd(54.0));
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i field =
      _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7ff));
  // Gather each lane's low dword into the bottom 128 bits, then convert.
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i field32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(field, pick));
  __m256d e = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_cvtepi32_pd(field32), _mm256_set1_pd(1023.0)), e_extra);
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3ff0000000000000LL)));
  const __m256d recentre =
      _mm256_cmp_pd(m, _mm256_set1_pd(1.4142135623730951), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), recentre);
  e = _mm256_add_pd(e, _mm256_and_pd(recentre, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d t2 = _mm256_mul_pd(t, t);
  __m256d s = _mm256_add_pd(_mm256_set1_pd(1.0 / 9.0),
                            _mm256_div_pd(t2, _mm256_set1_pd(11.0)));
  s = _mm256_add_pd(_mm256_set1_pd(1.0 / 7.0), _mm256_mul_pd(t2, s));
  s = _mm256_add_pd(_mm256_set1_pd(1.0 / 5.0), _mm256_mul_pd(t2, s));
  s = _mm256_add_pd(_mm256_set1_pd(1.0 / 3.0), _mm256_mul_pd(t2, s));
  s = _mm256_add_pd(one, _mm256_mul_pd(t2, s));
  const __m256d ln_m = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), t), s);
  return _mm256_add_pd(e, _mm256_mul_pd(ln_m, _mm256_set1_pd(1.4426950408889634)));
}

__attribute__((target("avx2"))) void exp2_avx2(const double* x, double* out,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, exp2_pd_avx2(_mm256_loadu_pd(x + i)));
  }
  exp2_scalar(x + i, out + i, n - i);
}

__attribute__((target("avx2"))) void log2_avx2(const double* x, double* out,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, log2_pd_avx2(_mm256_loadu_pd(x + i)));
  }
  log2_scalar(x + i, out + i, n - i);
}

__attribute__((target("avx2"))) void linear_to_db_avx2(const double* x, double* out,
                                                       std::size_t n) {
  const __m256d scale = _mm256_set1_pd(3.0102999566398120);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(log2_pd_avx2(_mm256_loadu_pd(x + i)), scale));
  }
  linear_to_db_scalar(x + i, out + i, n - i);
}

__attribute__((target("avx2"))) void db_to_linear_avx2(const double* db, double* out,
                                                       std::size_t n) {
  const __m256d scale = _mm256_set1_pd(common::kExp2PerDb);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     exp2_pd_avx2(_mm256_mul_pd(_mm256_loadu_pd(db + i), scale)));
  }
  db_to_linear_scalar(db + i, out + i, n - i);
}

__attribute__((target("avx2"))) void shadow_gain_avx2(
    double rho, double innovation_db, double gain_bias, double half_log2_slope,
    const double* z, const double* d_sq, double* shadow_db, double* gain,
    std::size_t n) {
  const __m256d rho_v = _mm256_set1_pd(rho);
  const __m256d inn_v = _mm256_set1_pd(innovation_db);
  const __m256d bias_v = _mm256_set1_pd(gain_bias);
  const __m256d half_v = _mm256_set1_pd(half_log2_slope);
  const __m256d k_v = _mm256_set1_pd(common::kExp2PerDb);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(rho_v, _mm256_loadu_pd(shadow_db + i)),
                      _mm256_mul_pd(inn_v, _mm256_loadu_pd(z + i)));
    _mm256_storeu_pd(shadow_db + i, s);
    const __m256d loss =
        _mm256_mul_pd(half_v, log2_pd_avx2(_mm256_loadu_pd(d_sq + i)));
    const __m256d arg =
        _mm256_sub_pd(_mm256_add_pd(_mm256_mul_pd(k_v, s), bias_v), loss);
    _mm256_storeu_pd(gain + i, exp2_pd_avx2(arg));
  }
  shadow_gain_scalar(rho, innovation_db, gain_bias, half_log2_slope, z + i,
                     d_sq + i, shadow_db + i, gain + i, n - i);
}

#endif  // WCDMA_KERNELS_X86

}  // namespace

void exp2_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_KERNELS_X86
  if (avx2_active()) return exp2_avx2(x, out, n);
#endif
  exp2_scalar(x, out, n);
}

void log2_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_KERNELS_X86
  if (avx2_active()) return log2_avx2(x, out, n);
#endif
  log2_scalar(x, out, n);
}

void linear_to_db_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_KERNELS_X86
  if (avx2_active()) return linear_to_db_avx2(x, out, n);
#endif
  linear_to_db_scalar(x, out, n);
}

void db_to_linear_lane(const double* db, double* out, std::size_t n) {
#if WCDMA_KERNELS_X86
  if (avx2_active()) return db_to_linear_avx2(db, out, n);
#endif
  db_to_linear_scalar(db, out, n);
}

void shadow_gain_lane(double rho, double innovation_db, double gain_bias,
                      double half_log2_slope, const double* z, const double* d_sq,
                      double* shadow_db, double* gain, std::size_t n) {
#if WCDMA_KERNELS_X86
  if (avx2_active()) {
    return shadow_gain_avx2(rho, innovation_db, gain_bias, half_log2_slope, z,
                            d_sq, shadow_db, gain, n);
  }
#endif
  shadow_gain_scalar(rho, innovation_db, gain_bias, half_log2_slope, z, d_sq,
                     shadow_db, gain, n);
}

}  // namespace wcdma::sim::kernels
