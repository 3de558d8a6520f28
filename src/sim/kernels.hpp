// Runtime-dispatched SIMD batch kernels for the fast CSI hot path.
//
// Three loops dominate the fast provider's frame budget: the fused exp2
// gain lane in sim::FrameState::step_user_links_fast, the ziggurat batch
// fill (vectorized in src/common/ziggurat.cpp against the same dispatch),
// and the dB conversion lanes of Simulator::step_power_control -- the one
// power-control loop every provider runs, which calls these kernels only
// when the fast provider armed FrameState's relaxed precision.  This module
// gives each a lane API that dispatches once per call on
// common::active_simd_level() to a scalar or AVX2 implementation.
//
// THE CONTRACT -- element-wise identity.  Every vector implementation
// performs the exact IEEE-754 operation sequence of the scalar fastmath
// kernels (src/common/fastmath.hpp), in the same order, per element:
// add/sub/mul/div/min/max are correctly rounded and identical scalar or
// packed, the kernels use no FMA (and their translation units compile with
// -ffp-contract=off so the compiler cannot contract one in), and no
// reduction or reassociation crosses elements.  Consequence: a fast-provider
// trajectory is BYTE-IDENTICAL at every dispatch level -- the statcheck
// certification of `fast` transfers to avx2 by identity, and
// tests/test_kernels.cpp pins both the per-kernel agreement and whole-run
// metric equality.  The default/exhaustive path never calls these kernels.
//
// Input domains are the fastmath ones: exp2 lanes accept anything (clamped
// to [-1022, 1022], NaN propagates); log2 lanes require finite x > 0
// (subnormals included, per the PR 10 fast_log2 fix).
#pragma once

#include <cstddef>

namespace wcdma::sim::kernels {

/// out[i] = common::fast_exp2(x[i]).  In-place (out == x) allowed.
void exp2_lane(const double* x, double* out, std::size_t n);

/// out[i] = common::fast_log2(x[i]); x[i] finite > 0.  In-place allowed.
void log2_lane(const double* x, double* out, std::size_t n);

/// out[i] = common::fast_linear_to_db(x[i]); x[i] finite > 0.  In-place
/// allowed.
void linear_to_db_lane(const double* x, double* out, std::size_t n);

/// out[i] = common::fast_db_to_linear(db[i]).  In-place allowed.
void db_to_linear_lane(const double* db, double* out, std::size_t n);

/// The fused shadowing + path-loss gain update of
/// FrameState::step_user_links_fast, per element:
///
///   shadow_db[i] = rho * shadow_db[i] + innovation_db * z[i]
///   gain[i]      = fast_exp2(kExp2PerDb * shadow_db[i] + gain_bias
///                            - half_log2_slope * fast_log2(d_sq[i]))
///
/// z is the ziggurat innovation lane, d_sq the (near-field clamped) squared
/// distances, half_log2_slope == (B/10) * 0.5 folded by the caller (exact:
/// a power-of-two scale).  shadow_db is read-modify-write; gain is
/// write-only and must not alias the inputs.
void shadow_gain_lane(double rho, double innovation_db, double gain_bias,
                      double half_log2_slope, const double* z, const double* d_sq,
                      double* shadow_db, double* gain, std::size_t n);

}  // namespace wcdma::sim::kernels
