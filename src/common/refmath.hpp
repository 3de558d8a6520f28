// The simulator's own reference transcendentals.
//
// Every function a trajectory reaches that is not an IEEE-754 basic
// operation (exp, log, pow, sin, cos, and the Bessel J0 of the fading
// correlation) comes from here instead of the C library.  Each is ONE
// sequence of correctly rounded operations -- add, sub, mul, div, sqrt,
// integer bit manipulation and table reads, no FMA, and its translation unit
// builds with -ffp-contract=off -- so its bits are the same on every x86-64
// host and C library.  glibc, by contrast, picks FMA or non-FMA variants of
// exp, log, pow, sin and cos at run time, and the goldens used to move with
// them (docs/ACCURACY.md "The reference math").
//
// The exp2 and log cores are written once as templates and instantiated at
// the scalar width and as 4-lane AVX2 vectors: the lanes below return, for
// every element and at every dispatch level, exactly the bits of the scalar
// function.  A 4-lane block holding an argument off the common path (see
// each lane) goes to the scalar function whole.
//
// Error bounds, each checked against libquadmath by tests/test_refmath.cpp
// (ULP = unit in the last place of the exact result):
//   exp, exp2, log, log2, log10   < 0.52 ULP (exp and exp2 results in the
//                                 subnormal range: < 1 ULP)
//   pow(x, y), x > 0              < 1 ULP while |y log x| <= 708
//   sin, cos on |x| <= kTrigMaxArg < 1 ULP (debug assert outside)
//   j0                            absolute error < 2^-52 on [0, kTrigMaxArg];
//                                 0 beyond, where |J0| < 7.8e-4
// Special values follow C99 Annex F for exp, exp2, log, log2 and log10.
// pow covers x >= 0 (a negative base is a debug assert, NaN otherwise).
#pragma once

#include <cstddef>

namespace wcdma::common::refmath {

/// |x| above which sin and cos leave their declared domain: the Cody-Waite
/// reduction by pi/2 keeps its quotient below 2^20.
inline constexpr double kTrigMaxArg = 0x1p20;

double exp(double x);
double exp2(double x);
double log(double x);
double log2(double x);
double log10(double x);
double pow(double x, double y);
double sin(double x);
double cos(double x);
/// Bessel function of the first kind, order 0.
double j0(double x);

/// out[i] = exp2(x[i]).  Common path: |x| <= 1000.  In-place allowed.
void exp2_lane(const double* x, double* out, std::size_t n);
/// out[i] = log(x[i]).  Common path: x positive, normal and finite.
/// In-place allowed.
void log_lane(const double* x, double* out, std::size_t n);
/// out[i] = log2(x[i]).  Common path: x positive, normal and finite.
/// In-place allowed.
void log2_lane(const double* x, double* out, std::size_t n);

}  // namespace wcdma::common::refmath
