// refmath bodies.  See refmath.hpp for the contract and the bounds.
//
// exp and exp2 share one table-driven tail: x = (k/128) ln2 + r, so
// e^x = 2^(k/128) e^r, with 2^(i/128) = H_i (1 + tail_i) read from a table
// and e^r - 1 a degree-5 Taylor polynomial on |r| <= ln2/256.  log, log2
// and log10 share one core that returns log(x) as an unevaluated sum
// hi + lo: x = 2^k z, z in [z0, 2 z0) split into 128 subintervals in bit
// space, c = 1/invc near the subinterval's centre (exactly 1 on the one that
// holds 1.0, so log stays accurate next to 1), r = z invc - 1 with one
// rounding and its error kept, and log1p(r) - r a degree-9 Taylor
// polynomial.  log2 and log10 scale hi + lo by a split constant.  The
// tables come from tools/gen_refmath_tables.py.
//
// The two cores are templates over the lane type V: double, or a 4-lane GCC
// vector of doubles.  The vector instantiations run only inside the
// target("avx2") lane bodies, into which the always_inline cores are
// inlined, so every element goes through the same operations in the same
// order as the scalar instantiation, and the lanes are bit-identical to the
// scalar functions at every dispatch level.
#include "src/common/refmath.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/simd.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#define WCDMA_REFMATH_X86 1
#include <immintrin.h>
#else
#define WCDMA_REFMATH_X86 0
#endif

namespace wcdma::common::refmath {

namespace detail {
#include "src/common/refmath_tables.inc"
}  // namespace detail

namespace {

using namespace detail;

#define WCDMA_REFMATH_INLINE inline __attribute__((always_inline))

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// Adding then subtracting 1.5 * 2^52 rounds a double to an integer and
/// leaves that integer in the low mantissa bits.
constexpr double kShift = 0x1.8p52;
constexpr std::uint64_t kShiftBits = 0x4338000000000000ULL;
constexpr std::uint64_t kExpMask = (1u << kExpBits) - 1;
constexpr std::uint64_t kLogMask = (1u << kLogBits) - 1;

// ----------------------------------------------------------- lane types
// The 4-lane helpers below take and return 32-byte vectors in functions
// compiled for the baseline ISA, which GCC flags as an ABI change (-Wpsabi,
// off for this file in CMakeLists.txt).  They are always_inline and only
// ever inlined into the target("avx2") lane bodies, so no such call crosses
// an ABI boundary.
using v4d = double __attribute__((vector_size(32)));
using v4u = std::uint64_t __attribute__((vector_size(32)));
using v4i = std::int64_t __attribute__((vector_size(32)));

/// The unsigned integer lane of the same width as V.
template <class V>
struct Lane;
template <>
struct Lane<double> {
  using U = std::uint64_t;
};
template <>
struct Lane<v4d> {
  using U = v4u;
};

WCDMA_REFMATH_INLINE std::uint64_t as_bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}
WCDMA_REFMATH_INLINE double as_double(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}
WCDMA_REFMATH_INLINE v4u as_bits(v4d x) { return reinterpret_cast<v4u>(x); }
WCDMA_REFMATH_INLINE v4d as_double(v4u b) { return reinterpret_cast<v4d>(b); }
/// Arithmetic (sign-filling) right shift of two's-complement bits.
WCDMA_REFMATH_INLINE std::uint64_t shift_right_signed(std::uint64_t b, int n) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> n);
}
WCDMA_REFMATH_INLINE v4u shift_right_signed(v4u b, int n) {
  return reinterpret_cast<v4u>(reinterpret_cast<v4i>(b) >> n);
}

template <class T>
WCDMA_REFMATH_INLINE T gather(const T* table, std::uint64_t i) {
  return table[i];
}
WCDMA_REFMATH_INLINE v4d gather(const double* table, v4u i) {
  return v4d{table[i[0]], table[i[1]], table[i[2]], table[i[3]]};
}
WCDMA_REFMATH_INLINE v4u gather(const std::uint64_t* table, v4u i) {
  return v4u{table[i[0]], table[i[1]], table[i[2]], table[i[3]]};
}

// ------------------------------------------------------------------ exp
/// scale (1 + tail + (e^r - 1)) with scale = 2^(k/128) read through the
/// table index k mod 128 and k's upper bits added to the exponent field.
/// `bias` moves the exponent field further, for the scaled special paths.
template <class V>
WCDMA_REFMATH_INLINE V exp_tail(typename Lane<V>::U ki, V r,
                                typename Lane<V>::U bias) {
  using U = typename Lane<V>::U;
  const U idx = ki & kExpMask;
  const U top = ki << (52 - kExpBits);
  const V tail = gather(kExpTail, idx);
  const V scale = as_double(gather(kExpScaleBits, idx) + top + bias);
  const V r2 = r * r;
  const V tmp = tail + r + r2 * (0.5 + r * (1.0 / 6.0)) +
                r2 * r2 * (1.0 / 24.0 + r * (1.0 / 120.0));
  return scale + scale * tmp;
}

/// exp2's reduction: k = x rounded to a multiple of 1/128 (its count left in
/// ki's low bits), r = (x - k/128) ln 2.  The subtraction is exact.
template <class V>
WCDMA_REFMATH_INLINE V exp2_reduce(V x, typename Lane<V>::U& ki) {
  constexpr double shift = kShift / (1 << kExpBits);
  const V kd = x + shift;
  ki = as_bits(kd);
  return (x - (kd - shift)) * kLn2;
}

template <class V>
WCDMA_REFMATH_INLINE V exp2_core(V x) {
  typename Lane<V>::U ki;
  const V r = exp2_reduce(x, ki);
  return exp_tail(ki, r, typename Lane<V>::U{});
}

/// exp's reduction of x + xlo: k = round(x 128 / ln2), r = x - k ln2/128
/// with ln2/128 split so that k times its head is exact (|k| < 2^18).
inline double exp_reduce(double x, double xlo, std::uint64_t& ki) {
  const double kd = kInvLn2N * x + kShift;
  ki = as_bits(kd);
  const double k = kd - kShift;
  return x + k * kNegLn2HiN + (k * kNegLn2LoN + xlo);
}

/// The tail for a k/128 outside the normal exponent range: the scale is
/// built 2^64 off and the result moved back by one multiplication, which
/// rounds once into the subnormals on the way down.
double exp_tail_scaled(std::uint64_t ki, double r, bool overflow_side) {
  constexpr std::uint64_t kBias = 64ULL << 52;
  const double y = exp_tail(ki, r, overflow_side ? -kBias : kBias);
  return overflow_side ? y * 0x1p64 : y * 0x1p-64;
}

double exp_with_tail(double x, double xlo) {
  std::uint64_t ki;
  if (std::fabs(x) <= 690.0) {
    const double r = exp_reduce(x, xlo, ki);
    return exp_tail(ki, r, std::uint64_t{0});
  }
  if (std::isnan(x)) return x;
  if (x > 710.0) return kInf;
  if (x < -746.0) return 0.0;
  const double r = exp_reduce(x, xlo, ki);
  return exp_tail_scaled(ki, r, x > 0.0);
}

// ------------------------------------------------------------------ log
template <class V>
struct Sum {
  V hi, lo;
};

/// log(x) = hi + lo for the bit pattern ix of a positive normal x (or of a
/// renormalized subnormal: its exponent field may wrap below zero).
template <class V>
WCDMA_REFMATH_INLINE Sum<V> log_core(typename Lane<V>::U ix) {
  using U = typename Lane<V>::U;
  const U tmp = ix - kLogOffset;
  const U idx = (tmp >> (52 - kLogBits)) & kLogMask;
  const U k = shift_right_signed(tmp, 52);
  const U iz = ix - (tmp & (0xfffULL << 52));
  const V z = as_double(iz);
  const V invc = gather(kLogInvC, idx);
  // r = z invc - 1 rounded once: invc has 21 significant bits, so both
  // products below are exact, and so is the subtraction (Sterbenz).  The
  // rounding error of the one sum is recovered by 2Sum.
  const V zhi = as_double(iz & 0xffffffff00000000ULL);
  const V a = zhi * invc - 1.0;
  const V b = (z - zhi) * invc;
  const V r = a + b;
  const V bb = r - a;
  const V r_lo = (a - (r - bb)) + (b - bb);
  // k ln2_hi + logc_hi is exact (both on the 2^-42 grid, |sum| < 2^10), and
  // adding r to it loses only what Fast2Sum recovers: the head is 0 or at
  // least |r|.
  const V kd = as_double(k + kShiftBits) - kShift;
  const V w_hi = kd * kLn2Hi + gather(kLogCHi, idx);
  const V w_lo = kd * kLn2Lo + gather(kLogCLo, idx);
  const V hi = w_hi + r;
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V p = r2 * (-0.5 + r * (1.0 / 3.0) + r2 * (-0.25 + r * 0.2) +
                    r4 * (-1.0 / 6.0 + r * (1.0 / 7.0) +
                          r2 * (-0.125 + r * (1.0 / 9.0))));
  return {hi, (w_hi - hi) + r + w_lo + r_lo + p};
}

/// (hi + lo) c for c = c_hi + c_lo, c_hi with 32 significant bits: the
/// head of hi (21 bits) times c_hi is exact, the rest is small.
template <class V>
WCDMA_REFMATH_INLINE V scale_sum(Sum<V> s, double c_hi, double c_lo, double c) {
  const V hh = as_double(as_bits(s.hi) & 0xffffffff00000000ULL);
  return hh * c_hi + ((s.hi - hh) * c_hi + (s.hi * c_lo + s.lo * c));
}

template <class V>
WCDMA_REFMATH_INLINE V log2_core(V x) {
  return scale_sum(log_core<V>(as_bits(x)), kInvLn2Hi, kInvLn2Lo, kInvLn2);
}

/// True for a positive, normal, finite x: the log cores' common path.
inline bool log_common(std::uint64_t ix) {
  return ix - 0x0010000000000000ULL < 0x7fe0000000000000ULL;
}

/// log(x) as hi + lo; false, with the C99 answer in *out, for x <= 0,
/// +inf and NaN.  Subnormals are renormalized: their exponent field wraps
/// below zero, which log_core's signed arithmetic takes in its stride.
WCDMA_REFMATH_INLINE bool log_sum(double x, Sum<double>* s, double* out) {
  std::uint64_t ix = as_bits(x);
  if (!log_common(ix)) {
    if (std::isnan(x) || x > std::numeric_limits<double>::max()) {
      *out = x;
      return false;
    }
    if (!(x > 0.0)) {
      *out = x < 0.0 ? kNaN : -kInf;
      return false;
    }
    ix = as_bits(x * 0x1p52) - (52ULL << 52);
  }
  *s = log_core<double>(ix);
  return true;
}

// -------------------------------------------------------------- sin, cos
struct Reduced {
  double hi, lo;
  std::uint64_t quadrant;
};

/// x = q pi/2 + (hi + lo), |hi + lo| <~ pi/4, for |x| <= kTrigMaxArg.
/// pi/2 is split into three 33-bit heads and a tail, so q times each head
/// is exact (q < 2^20); the partial remainders are carried by 2Sum.
Reduced reduce_pio2(double x) {
  WCDMA_DEBUG_ASSERT(std::fabs(x) <= kTrigMaxArg);
  const double kd = x * kInvPio2 + kShift;
  const std::uint64_t q = as_bits(kd);
  const double k = kd - kShift;
  const double t1 = x - k * kPio2_1;  // exact (Sterbenz)
  const double w2 = k * kPio2_2;
  const double a = t1 - w2;
  const double ba = a - t1;
  const double ea = (t1 - (a - ba)) - (w2 + ba);
  const double w3 = k * kPio2_3;
  const double c = a - w3;
  const double bc = c - a;
  const double ec = (a - (c - bc)) - (w3 + bc);
  const double lo = (ea + ec) - k * kPio2_4;
  const double hi = c + lo;
  return {hi, (c - hi) + lo, q};
}

/// sin(x + y) on |x + y| <= ~pi/4, |y| tiny: degree-17 Taylor.
double sin_kernel(double x, double y) {
  const double z = x * x;
  const double v = z * x;
  const double r =
      1.0 / 120.0 +
      z * (-1.0 / 5040.0 +
           z * (1.0 / 362880.0 +
                z * (-1.0 / 39916800.0 +
                     z * (1.0 / 6227020800.0 +
                          z * (-1.0 / 1307674368000.0 +
                               z * (1.0 / 355687428096000.0))))));
  return x - ((z * (0.5 * y - v * r) - y) - v * (-1.0 / 6.0));
}

/// cos(x + y) on |x + y| <= ~pi/4, |y| tiny: degree-16 Taylor, with
/// 1 - x^2/2 carried exactly.
double cos_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (1.0 / 24.0 + z * (-1.0 / 720.0 + z * (1.0 / 40320.0))) +
      w * w *
          (-1.0 / 3628800.0 +
           z * (1.0 / 479001600.0 +
                z * (-1.0 / 87178291200.0 + z * (1.0 / 20922789888000.0))));
  const double hz = 0.5 * z;
  const double one_minus = 1.0 - hz;
  return one_minus + (((1.0 - one_minus) - hz) + (z * r - x * y));
}

// ------------------------------------------------------------------ lanes
void exp2_lane_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = refmath::exp2(x[i]);
}

void log_lane_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = refmath::log(x[i]);
}

void log2_lane_scalar(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = refmath::log2(x[i]);
}

#if WCDMA_REFMATH_X86

// The AVX2 bodies clear the upper register halves (vzeroupper) before every
// call into the baseline-ISA scalar functions: GCC does not always do it
// there, and legacy-SSE code running on dirty upper halves pays a false
// dependency on every instruction: it halved the exact path's frame rate.
bool avx2_active() { return common::active_simd_level() == common::SimdLevel::kAvx2; }

__attribute__((target("avx2"))) void exp2_lane_avx2(const double* x, double* out,
                                                    std::size_t n) {
  const __m256d limit = _mm256_set1_pd(1000.0);
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    // Ordered compare: a NaN lane also leaves the common path.
    const __m256d ok = _mm256_cmp_pd(_mm256_and_pd(v, abs_mask), limit, _CMP_LE_OQ);
    if (_mm256_movemask_pd(ok) != 0xF) {
      _mm256_zeroupper();
      exp2_lane_scalar(x + i, out + i, 4);
      continue;
    }
    const v4d y = exp2_core(reinterpret_cast<v4d>(v));
    _mm256_storeu_pd(out + i, reinterpret_cast<__m256d>(y));
  }
  _mm256_zeroupper();
  exp2_lane_scalar(x + i, out + i, n - i);
}

/// The log and log2 lane bodies: the vector core on every 4-block whose
/// arguments are all on the common path (positive, normal, finite), the
/// scalar function on the rest.
template <bool kBase2>
__attribute__((target("avx2"))) void log_family_lane_avx2(const double* x, double* out,
                                                         std::size_t n) {
  const __m256d lo = _mm256_set1_pd(std::numeric_limits<double>::min());
  const __m256d hi = _mm256_set1_pd(std::numeric_limits<double>::max());
  const auto scalar = kBase2 ? log2_lane_scalar : log_lane_scalar;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(v, lo, _CMP_GE_OQ),
                                     _mm256_cmp_pd(v, hi, _CMP_LE_OQ));
    if (_mm256_movemask_pd(ok) != 0xF) {
      _mm256_zeroupper();
      scalar(x + i, out + i, 4);
      continue;
    }
    v4d y;
    if constexpr (kBase2) {
      y = log2_core(reinterpret_cast<v4d>(v));
    } else {
      const Sum<v4d> sum = log_core<v4d>(as_bits(reinterpret_cast<v4d>(v)));
      y = sum.hi + sum.lo;
    }
    _mm256_storeu_pd(out + i, reinterpret_cast<__m256d>(y));
  }
  _mm256_zeroupper();
  scalar(x + i, out + i, n - i);
}

#endif  // WCDMA_REFMATH_X86

}  // namespace

// ------------------------------------------------------------- functions

double exp2(double x) {
  if (std::fabs(x) <= 1000.0) return exp2_core(x);
  if (std::isnan(x)) return x;
  if (x > 1025.0) return kInf;
  if (x < -1076.0) return 0.0;
  std::uint64_t ki;
  const double r = exp2_reduce(x, ki);
  return exp_tail_scaled(ki, r, x > 0.0);
}

double exp(double x) { return exp_with_tail(x, 0.0); }

double log(double x) {
  Sum<double> s{};
  double special;
  return log_sum(x, &s, &special) ? s.hi + s.lo : special;
}

double log2(double x) {
  Sum<double> s{};
  double special;
  return log_sum(x, &s, &special) ? scale_sum(s, kInvLn2Hi, kInvLn2Lo, kInvLn2)
                                  : special;
}

double log10(double x) {
  Sum<double> s{};
  double special;
  return log_sum(x, &s, &special) ? scale_sum(s, kInvLn10Hi, kInvLn10Lo, kInvLn10)
                                  : special;
}

double pow(double x, double y) {
  WCDMA_DEBUG_ASSERT(!(x < 0.0) && "refmath::pow covers x >= 0");
  const std::uint64_t ix = as_bits(x);
  if (as_bits(y) << 1 == 0 || ix == as_bits(1.0)) return 1.0;
  if (std::isnan(x) || std::isnan(y) || x < 0.0) return kNaN;
  if (!(x > 0.0) || std::isinf(x) || std::isinf(y)) {
    // Limits of e^(y log x) with log x = -inf, +inf or y = +-inf.
    const bool grows = (x > 1.0) == (y > 0.0);
    return grows ? kInf : 0.0;
  }
  Sum<double> l{};
  double special;
  log_sum(x, &l, &special);  // x is positive and finite here
  // t = y (hi + lo) as a head and a tail: Dekker's exact product of the
  // heads (Veltkamp splits, no FMA) plus y lo.
  const double t = y * l.hi;
  if (!(std::fabs(t) <= 1000.0)) return t > 0.0 ? kInf : 0.0;
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double cy = kSplit * y, ch = kSplit * l.hi;
  const double yh = cy - (cy - y), hh = ch - (ch - l.hi);
  const double yl = y - yh, hl = l.hi - hh;
  const double t_lo = (((yh * hh - t) + yh * hl + yl * hh) + yl * hl) + y * l.lo;
  // lo is not below hi's last place (near x = 1 it is log1p's r^2 terms), so
  // renormalize before exp reduces the head alone.
  const double head = t + t_lo;
  return exp_with_tail(head, (t - head) + t_lo);
}

double sin(double x) {
  if (std::fabs(x) < 0x1p-27) return x;
  const Reduced t = reduce_pio2(x);
  switch (t.quadrant & 3) {
    case 0: return sin_kernel(t.hi, t.lo);
    case 1: return cos_kernel(t.hi, t.lo);
    case 2: return -sin_kernel(t.hi, t.lo);
    default: return -cos_kernel(t.hi, t.lo);
  }
}

double cos(double x) {
  if (std::fabs(x) < 0x1p-27) return 1.0;
  const Reduced t = reduce_pio2(x);
  switch (t.quadrant & 3) {
    case 0: return cos_kernel(t.hi, t.lo);
    case 1: return -sin_kernel(t.hi, t.lo);
    case 2: return -cos_kernel(t.hi, t.lo);
    default: return sin_kernel(t.hi, t.lo);
  }
}

double j0(double x) {
  x = std::fabs(x);
  if (x < kJ0Intervals) {
    // Taylor about the centre j + 1/2 of x's unit interval, |t| <= 1/2.
    const int j = static_cast<int>(x);
    const double t = x - (j + 0.5);
    const double* a = kJ0Taylor[j];
    double s = a[kJ0Degree];
    for (int n = kJ0Degree - 1; n >= 0; --n) s = a[n] + t * s;
    return s;
  }
  if (std::isnan(x)) return x;
  if (x > kTrigMaxArg) return 0.0;
  // Hankel: J0 = (P (cos x + sin x) - Q (sin x - cos x)) / sqrt(pi x).
  const double u = 1.0 / (x * x);
  double p = kJ0P[kJ0AsymTerms - 1], q = kJ0Q[kJ0AsymTerms - 1];
  for (int k = kJ0AsymTerms - 2; k >= 0; --k) {
    p = kJ0P[k] + u * p;
    q = kJ0Q[k] + u * q;
  }
  q /= x;
  const double s = sin(x), c = cos(x);
  return kInvSqrtPi / std::sqrt(x) * (p * (c + s) - q * (s - c));
}

void exp2_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_REFMATH_X86
  if (avx2_active()) return exp2_lane_avx2(x, out, n);
#endif
  exp2_lane_scalar(x, out, n);
}

void log_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_REFMATH_X86
  if (avx2_active()) return log_family_lane_avx2<false>(x, out, n);
#endif
  log_lane_scalar(x, out, n);
}

void log2_lane(const double* x, double* out, std::size_t n) {
#if WCDMA_REFMATH_X86
  if (avx2_active()) return log_family_lane_avx2<true>(x, out, n);
#endif
  log2_lane_scalar(x, out, n);
}

}  // namespace wcdma::common::refmath
