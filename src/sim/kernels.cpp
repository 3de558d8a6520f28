// The fused shadowing + gain lane.  It builds with -ffp-contract=off, so
// the mul+add chain below rounds exactly as the scalar refmath reference
// does; the exp2 and log2 passes are refmath's own dispatched lanes
// (src/common/refmath.cpp).
#include "src/sim/kernels.hpp"

#include "src/common/refmath.hpp"
#include "src/common/units.hpp"

namespace wcdma::sim::kernels {

void shadow_gain_lane(const double* rho, const double* innovation_db, double gain_bias,
                      double half_log2_slope, const double* z, const double* d_sq,
                      double* shadow_db, double* gain, std::size_t n) {
  // Three passes over the block, gain doubling as the log2 scratch; each
  // pass is element-wise, so the split changes no bit.
  common::refmath::log2_lane(d_sq, gain, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = rho[i] * shadow_db[i] + innovation_db[i] * z[i];
    shadow_db[i] = s;
    gain[i] = common::kExp2PerDb * s + gain_bias - half_log2_slope * gain[i];
  }
  common::refmath::exp2_lane(gain, gain, n);
}

}  // namespace wcdma::sim::kernels
