// The batch kernel of the link hot path.
//
// The fused shadowing + gain lane is the arithmetic of
// sim::FrameState::step_users' link-major blocks: each block holds up to 64
// candidate links, across user boundaries, so every link of a frame goes
// through the lane and none falls to a per-user scalar remainder.  Its two
// transcendental passes run on refmath's exp2 and log2 lanes
// (src/common/refmath.hpp), which dispatch once per call on
// common::active_simd_level() to a scalar or AVX2 body.
//
// THE CONTRACT -- element-wise identity.  Every level performs the exact
// IEEE-754 operation sequence of the scalar refmath functions, in the same
// order, per element: add/sub/mul/div/sqrt/min/max are correctly rounded
// and identical scalar or packed, no FMA is used (this lane's translation
// unit compiles with -ffp-contract=off so the compiler cannot contract its
// mul+add into one), and no reduction or reassociation crosses elements.
// Consequence: a trajectory is BYTE-IDENTICAL at every dispatch level, the
// goldens hold at every level, and tests/test_kernels.cpp pins both the
// lane's agreement and whole-run metric equality.
#pragma once

#include <cstddef>

namespace wcdma::sim::kernels {

/// The fused shadowing + path-loss gain update of FrameState::step_users,
/// per element:
///
///   shadow_db[i] = rho[i] * shadow_db[i] + innovation_db[i] * z[i]
///   gain[i]      = exp2(kExp2PerDb * shadow_db[i] + gain_bias
///                       - half_log2_slope * log2(d_sq[i]))
///
/// with exp2/log2 from refmath.  rho and innovation_db are each link's
/// user's AR(1) pair, z the innovation lane, d_sq the (near-field clamped)
/// squared distances, half_log2_slope == (B/10) * 0.5 folded by the caller
/// (exact: a power-of-two scale).  shadow_db is read-modify-write; gain is
/// write-only and must not alias the inputs.
void shadow_gain_lane(const double* rho, const double* innovation_db, double gain_bias,
                      double half_log2_slope, const double* z, const double* d_sq,
                      double* shadow_db, double* gain, std::size_t n);

}  // namespace wcdma::sim::kernels
