// Unit conversions used throughout the link-budget arithmetic.
//
// Conventions: linear power quantities are in watts unless a name says
// otherwise; gains/ratios are dimensionless linear factors; `_db` suffixed
// values are decibels.  All functions are pure and constexpr-friendly.
#pragma once

#include "src/common/refmath.hpp"

namespace wcdma::common {

/// Decibels -> linear power ratio. db_to_linear(3.0103) ~= 2.
inline double db_to_linear(double db) { return refmath::pow(10.0, db / 10.0); }

/// Linear power ratio -> decibels. Requires x > 0.
inline double linear_to_db(double x) { return 10.0 * refmath::log10(x); }

/// dBm -> watts. 30 dBm == 1 W.
inline double dbm_to_watt(double dbm) { return refmath::pow(10.0, (dbm - 30.0) / 10.0); }

/// Watts -> dBm.
inline double watt_to_dbm(double w) { return 10.0 * refmath::log10(w) + 30.0; }

/// Thermal noise power (watts) over `bandwidth_hz` at noise figure `nf_db`.
/// kT = -174 dBm/Hz at 290 K.
double thermal_noise_watt(double bandwidth_hz, double nf_db = 0.0);

/// Speed of light, m/s.
inline constexpr double kSpeedOfLight = 2.99792458e8;

/// Maximum Doppler shift (Hz) for speed `v_mps` at carrier `fc_hz`.
inline double doppler_hz(double v_mps, double fc_hz) {
  return v_mps * fc_hz / kSpeedOfLight;
}

/// km/h -> m/s.
inline double kmh_to_mps(double kmh) { return kmh / 3.6; }

}  // namespace wcdma::common
