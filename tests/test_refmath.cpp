// src/common/refmath against libquadmath.
//
// Every bound refmath.hpp declares is measured here in ULPs of the exact
// result, with gcc's binary128 functions (113-bit significand) as the
// oracle, on three kinds of input: edge values, random bit patterns inside
// the function's domain, and the ranges the simulator feeds it.  The lanes
// are checked bit for bit against the scalar functions at every dispatch
// level the host supports, at every alignment and block split.  Without
// quadmath.h the oracle tests skip; the special-value and lane tests run
// everywhere.
#include "src/common/refmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/units.hpp"
#include "src/sim/kernels.hpp"

#if WCDMA_HAVE_QUADMATH
#include <quadmath.h>
#endif

namespace {

namespace rm = wcdma::common::refmath;
using wcdma::common::Rng;
using wcdma::common::SimdLevel;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kMin = std::numeric_limits<double>::min();
constexpr double kTrue0 = std::numeric_limits<double>::denorm_min();

// The bounds refmath.hpp declares.
constexpr double kExpLogUlp = 0.52;
constexpr double kSubnormalUlp = 1.0;
constexpr double kPowUlp = 1.0;
constexpr double kTrigUlp = 1.0;
constexpr double kJ0Abs = 0x1p-52;

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

double from_bits(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

std::vector<double> uniform(std::uint64_t seed, double lo, double hi, int n) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Random bit patterns, kept where `in_domain` holds.
std::vector<double> random_bits(std::uint64_t seed, int n,
                                const std::function<bool(double)>& in_domain) {
  Rng rng(seed);
  std::vector<double> v;
  while (static_cast<int>(v.size()) < n) {
    const double x = from_bits(rng.next_u64());
    if (in_domain(x)) v.push_back(x);
  }
  return v;
}

/// x times 2^e for e spread over [lo_exp, hi_exp]: a log-uniform sweep.
std::vector<double> log_uniform(std::uint64_t seed, int lo_exp, int hi_exp, int n) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = std::ldexp(rng.uniform(1.0, 2.0),
                   lo_exp + static_cast<int>(rng.uniform_int(hi_exp - lo_exp + 1)));
  }
  return v;
}

// ---------------------------------------------------------- special values

TEST(RefmathSpecials, ExpFamily) {
  EXPECT_EQ(rm::exp(0.0), 1.0);
  EXPECT_EQ(rm::exp2(0.0), 1.0);
  EXPECT_EQ(rm::exp2(10.0), 1024.0);
  EXPECT_EQ(rm::exp2(-1074.0), kTrue0);
  EXPECT_EQ(rm::exp2(1023.0), 0x1p1023);
  EXPECT_EQ(rm::exp(kInf), kInf);
  EXPECT_EQ(rm::exp(-kInf), 0.0);
  EXPECT_EQ(rm::exp2(kInf), kInf);
  EXPECT_EQ(rm::exp2(-kInf), 0.0);
  EXPECT_EQ(rm::exp(710.0), kInf);
  EXPECT_EQ(rm::exp(-746.0), 0.0);
  EXPECT_EQ(rm::exp2(1024.0), kInf);
  EXPECT_EQ(rm::exp2(-1076.0), 0.0);
  EXPECT_TRUE(std::isnan(rm::exp(std::nan(""))));
  EXPECT_TRUE(std::isnan(rm::exp2(std::nan(""))));
}

TEST(RefmathSpecials, LogFamily) {
  for (auto* f : {&rm::log, &rm::log2, &rm::log10}) {
    EXPECT_EQ(f(1.0), 0.0);
    EXPECT_FALSE(std::signbit(f(1.0)));
    EXPECT_EQ(f(0.0), -kInf);
    EXPECT_EQ(f(-0.0), -kInf);
    EXPECT_EQ(f(kInf), kInf);
    EXPECT_TRUE(std::isnan(f(-1.0)));
    EXPECT_TRUE(std::isnan(f(-kInf)));
    EXPECT_TRUE(std::isnan(f(std::nan(""))));
  }
  for (int k = -1074; k <= 1023; ++k) {
    ASSERT_EQ(rm::log2(std::ldexp(1.0, k)), static_cast<double>(k)) << k;
  }
  double p = 1.0;
  for (int k = 0; k <= 22; ++k, p *= 10.0) {
    ASSERT_EQ(rm::log10(p), static_cast<double>(k)) << k;
  }
}

TEST(RefmathSpecials, Pow) {
  EXPECT_EQ(rm::pow(10.0, 0.0), 1.0);
  EXPECT_EQ(rm::pow(1.0, 1e300), 1.0);
  EXPECT_EQ(rm::pow(0.0, 2.0), 0.0);
  EXPECT_EQ(rm::pow(0.0, -2.0), kInf);
  EXPECT_EQ(rm::pow(kInf, 0.5), kInf);
  EXPECT_EQ(rm::pow(kInf, -0.5), 0.0);
  EXPECT_EQ(rm::pow(0.5, kInf), 0.0);
  EXPECT_EQ(rm::pow(2.0, kInf), kInf);
  EXPECT_EQ(rm::pow(0.5, -kInf), kInf);
  EXPECT_EQ(rm::pow(10.0, 400.0), kInf);
  EXPECT_EQ(rm::pow(10.0, -400.0), 0.0);
  EXPECT_EQ(rm::pow(2.0, 10.0), 1024.0);
  EXPECT_EQ(rm::pow(10.0, 2.0), 100.0);
  EXPECT_TRUE(std::isnan(rm::pow(std::nan(""), 2.0)));
}

TEST(RefmathSpecials, Trig) {
  EXPECT_EQ(rm::sin(0.0), 0.0);
  EXPECT_TRUE(std::signbit(rm::sin(-0.0)));
  EXPECT_EQ(rm::cos(0.0), 1.0);
  EXPECT_EQ(rm::sin(1e-300), 1e-300);
  EXPECT_EQ(rm::j0(0.0), 1.0);
  EXPECT_EQ(rm::j0(-3.0), rm::j0(3.0));
  EXPECT_EQ(rm::j0(rm::kTrigMaxArg * 2.0), 0.0);
}

// ------------------------------------------------------------------ lanes

using LaneFn = void (*)(const double*, double*, std::size_t);
using ScalarFn = double (*)(double);

/// Every supported level writes the scalar function's bits, and nothing
/// past n, for every block split and alignment.
void expect_lane_is_scalar(LaneFn lane, ScalarFn scalar, const std::vector<double>& in,
                           const char* what) {
  const SimdLevel saved = wcdma::common::active_simd_level();
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    if (!wcdma::common::set_simd_level(level)) continue;
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const std::size_t lengths[] = {0, 1, 3, 4, 7, 32, in.size() - offset};
      for (const std::size_t n : lengths) {
        std::vector<double> out(n + 2, -7.0);
        lane(in.data() + offset, out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const double want = scalar(in[offset + i]);
          ASSERT_EQ(bits_of(out[i]), bits_of(want))
              << what << " level " << wcdma::common::simd_level_name(level) << " x = "
              << in[offset + i];
        }
        ASSERT_EQ(out[n], -7.0) << what << ": wrote past n";
        // In place.
        std::vector<double> io(in.begin() + offset, in.begin() + offset + n);
        lane(io.data(), io.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits_of(io[i]), bits_of(scalar(in[offset + i]))) << what;
        }
      }
    }
  }
  wcdma::common::set_simd_level(saved);
}

TEST(RefmathLanes, Exp2LaneIsScalarExp2BitForBit) {
  std::vector<double> x = uniform(1, -80.0, 12.0, 4000);
  // Off-path arguments scattered through the blocks.
  const double odd[] = {1023.5, -1030.0, 2000.0, -2000.0, kInf, -kInf, std::nan("")};
  for (std::size_t i = 0; i < sizeof(odd) / sizeof(odd[0]); ++i) x[37 * i + 5] = odd[i];
  expect_lane_is_scalar(&rm::exp2_lane, &rm::exp2, x, "exp2_lane");
}

TEST(RefmathLanes, LogLaneIsScalarLogBitForBit) {
  std::vector<double> x = log_uniform(3, -30, 40, 4000);
  // The polar draw's arguments: u^2 + v^2 on the 2^-104 grid of (0, 1).
  for (std::size_t i = 0; i < 600; ++i) x[5 * i + 1] = std::ldexp(1.0 + i, -104 + i / 6);
  const double odd[] = {0.0, -1.0, kTrue0, 1e-310, kInf, kMax, kMin, std::nan("")};
  for (std::size_t i = 0; i < sizeof(odd) / sizeof(odd[0]); ++i) x[43 * i + 2] = odd[i];
  expect_lane_is_scalar(&rm::log_lane, &rm::log, x, "log_lane");
}

TEST(RefmathLanes, Log2LaneIsScalarLog2BitForBit) {
  std::vector<double> x = log_uniform(2, -30, 40, 4000);
  const double odd[] = {0.0, -1.0, kTrue0, 1e-310, kInf, kMax, kMin, std::nan("")};
  for (std::size_t i = 0; i < sizeof(odd) / sizeof(odd[0]); ++i) x[41 * i + 3] = odd[i];
  expect_lane_is_scalar(&rm::log2_lane, &rm::log2, x, "log2_lane");
}

// ---------------------------------------------------------- error bounds

#if WCDMA_HAVE_QUADMATH

/// |got - exact| in units of the last place of the double nearest `exact`
/// (2^-1074 at the bottom of the subnormals).
double ulp_error(double got, __float128 exact) {
  const double near = static_cast<double>(exact);
  if (std::isinf(near)) return std::isinf(got) && (got > 0) == (near > 0) ? 0.0 : kInf;
  int e = 0;
  std::frexp(near, &e);
  const double ulp = near == 0.0 ? kTrue0 : std::max(std::ldexp(1.0, e - 53), kTrue0);
  const __float128 err = fabsq(static_cast<__float128>(got) - exact);
  return static_cast<double>(err / static_cast<__float128>(ulp));
}

struct Worst {
  double err = 0.0;
  double at = 0.0;
};

template <class Got, class Exact>
Worst worst_ulp(const std::vector<double>& xs, Got got, Exact exact) {
  Worst w;
  for (double x : xs) {
    const double e = ulp_error(got(x), exact(static_cast<__float128>(x)));
    if (e > w.err) w = {e, x};
  }
  return w;
}

void expect_within(const Worst& w, double bound, const std::string& what) {
  std::cout << "  " << what << ": worst " << w.err << " ulp at " << w.at << "\n";
  EXPECT_LE(w.err, bound) << what << " at x = " << w.at;
}

#define REFMATH_CHECK(fn, qfn, inputs, bound, what)                                  \
  expect_within(worst_ulp(                                                           \
                    inputs, [](double x) { return rm::fn(x); },                      \
                    [](__float128 x) { return qfn(x); }),                           \
                bound, what)

TEST(RefmathBounds, ExpAndExp2) {
  const auto normal_exp = [](double x) { return std::fabs(x) <= 708.0; };
  REFMATH_CHECK(exp, expq, uniform(10, -708.0, 708.0, 100000), kExpLogUlp, "exp full");
  REFMATH_CHECK(exp, expq, uniform(11, -50.0, 5.0, 100000), kExpLogUlp, "exp sim");
  REFMATH_CHECK(exp, expq, random_bits(12, 100000, normal_exp), kExpLogUlp, "exp bits");
  REFMATH_CHECK(exp, expq, uniform(13, -745.0, -708.5, 20000), kSubnormalUlp,
                "exp subnormal");
  REFMATH_CHECK(exp, expq, uniform(14, 708.0, 709.78, 20000), kExpLogUlp, "exp huge");
  REFMATH_CHECK(exp2, exp2q, uniform(15, -1022.0, 1023.99, 100000), kExpLogUlp,
                "exp2 full");
  REFMATH_CHECK(exp2, exp2q, uniform(16, -80.0, 12.0, 100000), kExpLogUlp, "exp2 sim");
  REFMATH_CHECK(exp2, exp2q,
                random_bits(17, 100000, [](double x) { return std::fabs(x) <= 1023.0; }),
                kExpLogUlp, "exp2 bits");
  REFMATH_CHECK(exp2, exp2q, uniform(18, -1074.5, -1022.0, 20000), kSubnormalUlp,
                "exp2 subnormal");
}

TEST(RefmathBounds, LogLog2Log10) {
  const auto positive = [](double x) { return x > 0.0 && x <= kMax; };
  const std::vector<double> bits = random_bits(20, 100000, positive);
  const std::vector<double> unit = uniform(21, 0.0, 1.0, 100000);  // Box-Muller's s
  const std::vector<double> near_one = uniform(22, 0.99, 1.01, 50000);
  const std::vector<double> sim = log_uniform(23, -70, 40, 100000);
  REFMATH_CHECK(log, logq, bits, kExpLogUlp, "log bits");
  REFMATH_CHECK(log, logq, unit, kExpLogUlp, "log (0,1)");
  REFMATH_CHECK(log, logq, near_one, kExpLogUlp, "log near 1");
  REFMATH_CHECK(log, logq, sim, kExpLogUlp, "log sim");
  REFMATH_CHECK(log2, log2q, bits, kExpLogUlp, "log2 bits");
  REFMATH_CHECK(log2, log2q, near_one, kExpLogUlp, "log2 near 1");
  REFMATH_CHECK(log2, log2q, uniform(24, 100.0, 1e10, 100000), kExpLogUlp,
                "log2 d^2 range");
  REFMATH_CHECK(log10, log10q, bits, kExpLogUlp, "log10 bits");
  REFMATH_CHECK(log10, log10q, near_one, kExpLogUlp, "log10 near 1");
  REFMATH_CHECK(log10, log10q, sim, kExpLogUlp, "log10 sim");
}

TEST(RefmathBounds, Pow) {
  const auto check = [](const char* what, std::uint64_t seed, double xlo, double xhi,
                        double ylo, double yhi, int n) {
    Rng rng(seed);
    Worst w;
    for (int i = 0; i < n; ++i) {
      const double x = rng.uniform(xlo, xhi), y = rng.uniform(ylo, yhi);
      const __float128 exact =
          powq(static_cast<__float128>(x), static_cast<__float128>(y));
      if (fabsq(y * logq(static_cast<__float128>(x))) > 708) continue;
      const double e = ulp_error(rm::pow(x, y), exact);
      if (e > w.err) w = {e, x};
    }
    expect_within(w, kPowUlp, what);
  };
  check("pow(10, dB/10)", 30, 10.0, 10.0, -25.0, 10.0, 100000);
  check("pow(u, 1/alpha)", 31, 1e-300, 1.0, 0.3, 1.0, 100000);
  check("pow(xm/cap, a)", 32, 1e-6, 1.0, 0.5, 3.0, 100000);
  check("pow wide", 33, 1e-3, 1e3, -100.0, 100.0, 100000);
  check("pow near 1", 34, 0.999, 1.001, -1e5, 1e5, 100000);
  Rng rng(35);
  Worst w;
  for (int i = 0; i < 100000; ++i) {
    const double x = from_bits(rng.next_u64() >> 1), y = rng.uniform(-2.0, 2.0);
    if (!(x <= kMax) || fabsq(y * logq(static_cast<__float128>(x))) > 708) continue;
    const double e = ulp_error(rm::pow(x, y), powq(static_cast<__float128>(x),
                                                     static_cast<__float128>(y)));
    if (e > w.err) w = {e, x};
  }
  expect_within(w, kPowUlp, "pow bits");
}

TEST(RefmathBounds, SinCos) {
  const auto in_domain = [](double x) { return std::fabs(x) <= rm::kTrigMaxArg; };
  const std::vector<double> turn = uniform(40, 0.0, 2.0 * M_PI, 100000);
  const std::vector<double> wide = uniform(41, -rm::kTrigMaxArg, rm::kTrigMaxArg, 100000);
  const std::vector<double> bits = random_bits(42, 100000, in_domain);
  std::vector<double> edges;
  for (int k = -64; k <= 64; ++k) {
    const double q = k * (M_PI / 2);
    for (double d : {0.0, 1e-12, -1e-12}) edges.push_back(std::nextafter(q + d, kInf));
    edges.push_back(std::nextafter(q, -kInf));
  }
  const std::pair<const char*, const std::vector<double>*> sets[] = {
      {"[0, 2pi]", &turn}, {"wide", &wide}, {"bits", &bits}, {"near k pi/2", &edges}};
  for (const auto& [name, set] : sets) {
    REFMATH_CHECK(sin, sinq, *set, kTrigUlp, std::string("sin ") + name);
    REFMATH_CHECK(cos, cosq, *set, kTrigUlp, std::string("cos ") + name);
  }
}

TEST(RefmathBounds, J0Absolute) {
  std::vector<double> xs = uniform(50, 0.0, 40.0, 200000);
  const std::vector<double> far = uniform(51, 40.0, rm::kTrigMaxArg, 50000);
  xs.insert(xs.end(), far.begin(), far.end());
  for (int j = 0; j <= 40; ++j) {
    xs.push_back(j);
    xs.push_back(std::nextafter(static_cast<double>(j), kInf));
    xs.push_back(std::nextafter(static_cast<double>(j), -kInf) + 0.0);
  }
  // The Doppler arguments 2 pi f_d T of the presets: 3-120 km/h at 2 GHz,
  // 20 ms frames.
  for (double kmh = 3.0; kmh <= 120.0; kmh += 0.5) {
    xs.push_back(2.0 * M_PI * (kmh / 3.6) * 2.0e9 / 2.99792458e8 * 0.020);
  }
  double worst = 0.0, at = 0.0;
  for (double x : xs) {
    if (x < 0.0) continue;
    const double e = static_cast<double>(
        fabsq(static_cast<__float128>(rm::j0(x)) - j0q(static_cast<__float128>(x))));
    if (e > worst) {
      worst = e;
      at = x;
    }
  }
  std::cout << "  j0: worst absolute error " << worst << " at " << at << "\n";
  EXPECT_LE(worst, kJ0Abs) << "at x = " << at;
}

// The exact providers' link gain, 10^((s - A)/10) d^(-B/10), folded into one
// exp2(bias + K s - (B/20) log2(d^2)) on refmath's lanes: its error is the
// rounding of the folded constants and of the argument (|arg| <= ~60 log2
// units on these ranges), not of exp2 or log2.
TEST(RefmathBounds, CompositeLinkGain) {
  constexpr double kBound = 0x1p-44;  // relative; docs/ACCURACY.md
  Rng rng(60);
  double worst = 0.0;
  for (const auto& [a_db, b_db] : {std::pair{15.3, 37.6}, std::pair{-18.2, 35.2},
                                   std::pair{40.0, 20.0}}) {
    const double bias = -wcdma::common::kExp2PerDb * a_db;
    const double half = b_db / 10.0 * 0.5;
    const std::size_t n = 4096;
    std::vector<double> z(n), d_sq(n), shadow(n, 0.0), gain(n);
    const std::vector<double> rho(n, 0.0), innovation(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = rng.uniform(-40.0, 40.0);
      d_sq[i] = rng.uniform(100.0, 1.0e8);
    }
    wcdma::sim::kernels::shadow_gain_lane(rho.data(), innovation.data(), bias, half,
                                          z.data(), d_sq.data(), shadow.data(),
                                          gain.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const __float128 exact =
          powq(10, (static_cast<__float128>(z[i]) - a_db) / 10) *
          powq(static_cast<__float128>(d_sq[i]), -static_cast<__float128>(b_db) / 20);
      worst = std::max(worst, static_cast<double>(fabsq(gain[i] - exact) / exact));
    }
  }
  std::cout << "  composite gain: worst relative error " << worst << "\n";
  EXPECT_LE(worst, kBound);
}

#else

TEST(RefmathBounds, NeedsLibquadmath) {
  GTEST_SKIP() << "quadmath.h not found: the ULP oracle tests are not built";
}

#endif  // WCDMA_HAVE_QUADMATH

}  // namespace
