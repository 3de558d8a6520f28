// Runtime-dispatched SIMD batch kernels.
//
// Three loops dominate a frame's arithmetic: the fused shadowing + gain
// lane of sim::FrameState::step_user_links (every provider), the ziggurat
// batch fill of the `fast` provider (vectorized in src/common/ziggurat.cpp
// against the same dispatch), and the dB conversion lanes of
// Simulator::step_power_control -- the one power-control loop every
// provider runs, which calls these kernels only when the fast provider
// armed FrameState's relaxed precision.  This module gives each a lane API
// that dispatches once per call on common::active_simd_level() to a scalar
// or AVX2 implementation.
//
// Two kernel families serve the gain lane.  The reference providers
// (`exhaustive`, `culled`) run it on refmath's exp2/log2 lanes
// (src/common/refmath.hpp), `fast` on the relaxed fastmath ones below; the
// lane itself is one source for both.
//
// THE CONTRACT -- element-wise identity.  Every vector implementation
// performs the exact IEEE-754 operation sequence of its scalar reference,
// in the same order, per element: add/sub/mul/div/sqrt/min/max are
// correctly rounded and identical scalar or packed, the kernels use no FMA
// (and their translation units compile with -ffp-contract=off so the
// compiler cannot contract one in), and no reduction or reassociation
// crosses elements.  The references are the scalar fastmath kernels
// (src/common/fastmath.hpp) for the relaxed family and the scalar refmath
// functions for the reference family.  Consequence: a trajectory is
// BYTE-IDENTICAL at every dispatch level -- the statcheck certification of
// `fast` transfers to avx2 by identity, the reference path's goldens hold
// at every level, and tests/test_kernels.cpp pins both the per-kernel
// agreement and whole-run metric equality.
//
// Input domains are the fastmath ones for the relaxed family: exp2 lanes
// accept anything (clamped to [-1022, 1022], NaN propagates); log2 lanes
// require finite x > 0 (subnormals included).  The reference family takes
// whatever refmath::exp2 and refmath::log2 take.
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

/// Which transcendental family a gain lane runs on.
enum class Family {
  kReference,  // refmath exp2/log2: the exact providers
  kRelaxed,    // fastmath exp2/log2: the `fast` provider
};

/// The fused shadowing + path-loss gain update of
/// FrameState::step_user_links, per element:
///
///   shadow_db[i] = rho * shadow_db[i] + innovation_db * z[i]
///   gain[i]      = exp2(kExp2PerDb * shadow_db[i] + gain_bias
///                       - half_log2_slope * log2(d_sq[i]))
///
/// with exp2/log2 from `family`.  z is the innovation lane, d_sq the
/// (near-field clamped) squared distances, half_log2_slope == (B/10) * 0.5
/// folded by the caller (exact: a power-of-two scale).  shadow_db is
/// read-modify-write; gain is write-only and must not alias the inputs.
void shadow_gain_lane(Family family, double rho, double innovation_db,
                      double gain_bias, double half_log2_slope, const double* z,
                      const double* d_sq, double* shadow_db, double* gain,
                      std::size_t n);

}  // namespace wcdma::sim::kernels
