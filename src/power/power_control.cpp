#include "src/power/power_control.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::power {

namespace {

/// Shared inner-loop step: returns the clamped new power for one frame of
/// aggregated +/-step commands.
inline double stepped_power_dbm(const PowerControlConfig& config, double power_dbm,
                                double measured_sir_db) {
  const double error = config.target_sir_db - measured_sir_db;
  const double max_swing = config.step_db * static_cast<double>(config.commands_per_frame);
  const double correction = std::clamp(error, -max_swing, max_swing);
  return std::clamp(power_dbm + correction, config.min_power_dbm,
                    config.max_power_dbm);
}

}  // namespace

ClosedLoopPowerControl::ClosedLoopPowerControl(const PowerControlConfig& config,
                                               double initial_power_dbm)
    : config_(config),
      power_dbm_(initial_power_dbm),
      power_watt_(to_watt(initial_power_dbm)) {
  WCDMA_ASSERT(config_.step_db > 0.0);
  WCDMA_ASSERT(config_.commands_per_frame >= 1);
  WCDMA_ASSERT(config_.max_power_dbm > config_.min_power_dbm);
}

double ClosedLoopPowerControl::update(double measured_sir_db) {
  power_dbm_ = stepped_power_dbm(config_, power_dbm_, measured_sir_db);
  power_watt_ = to_watt(power_dbm_);
  saturated_ = power_dbm_ >= config_.max_power_dbm - 1e-12;
  return power_dbm_;
}

double ClosedLoopPowerControl::update_db(double measured_sir_db) {
  power_dbm_ = stepped_power_dbm(config_, power_dbm_, measured_sir_db);
  saturated_ = power_dbm_ >= config_.max_power_dbm - 1e-12;
  return power_dbm_;  // wattage stale until set_power_watt() commits it
}

double ClosedLoopPowerControl::to_watt(double dbm) {
  return common::refmath::pow(10.0, (dbm - 30.0) / 10.0);
}

template <typename Self, typename Archive>
void ClosedLoopPowerControl::fields(Self& loop, Archive& ar) {
  ar.field(loop.power_dbm_);
  ar.field(loop.power_watt_);
  ar.field(loop.saturated_);
}

void ClosedLoopPowerControl::save(common::BinaryWriter& w) const { fields(*this, w); }
bool ClosedLoopPowerControl::load(common::BinaryReader& r) {
  return r.load_whole(*this, fields);
}

}  // namespace wcdma::power
