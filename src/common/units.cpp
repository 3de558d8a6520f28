#include "src/common/units.hpp"

namespace wcdma::common {

double thermal_noise_watt(double bandwidth_hz, double nf_db) {
  // -174 dBm/Hz == kT at 290 K.
  const double dbm = -174.0 + 10.0 * refmath::log10(bandwidth_hz) + nf_db;
  return dbm_to_watt(dbm);
}

}  // namespace wcdma::common
