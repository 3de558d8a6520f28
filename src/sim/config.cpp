#include "src/sim/config.hpp"

#include <algorithm>
#include <cmath>

#include "src/admission/policy.hpp"
#include "src/common/assert.hpp"
#include "src/sim/channel_state.hpp"

namespace wcdma::sim {

double LoadRampConfig::scale(double now_s, std::size_t cell) const {
  if (!enabled()) return 1.0;
  const double t = now_s - start_s;
  double shape = 0.0;
  if (t >= 0.0) {
    if (t < rise_s) {
      shape = t / rise_s;
    } else if (t < rise_s + hold_s) {
      shape = 1.0;
    } else if (t < rise_s + hold_s + fall_s) {
      shape = 1.0 - (t - rise_s - hold_s) / fall_s;
    }
  }
  if (shape <= 0.0) return 1.0;
  const double blend =
      cell_weights.empty() ? 1.0 : cell_weights[std::min(cell, cell_weights.size() - 1)];
  return 1.0 + (peak_scale - 1.0) * shape * blend;
}

std::int64_t SystemConfig::total_frames() const {
  return static_cast<std::int64_t>(std::llround(sim_duration_s / frame_s));
}

const SystemConfig& SystemConfig::validate() const {
  WCDMA_ASSERT(admission::has_policy(admission.policy) &&
               "unknown admission policy name");
  WCDMA_ASSERT(has_channel_provider(csi.provider) &&
               "unknown channel-state provider name");
  WCDMA_ASSERT(csi.refresh_interval_s > 0.0);
  WCDMA_ASSERT(csi.cull_radius_scale > 0.0);
  WCDMA_ASSERT(csi.far_field.ring_width_scale > 0.0);
  WCDMA_ASSERT(csi.far_field.shadowing_fraction >= 0.0 &&
               csi.far_field.shadowing_fraction <= 1.0);
  WCDMA_ASSERT(frame_s > 0.0);
  WCDMA_ASSERT(sim_duration_s > warmup_s);
  WCDMA_ASSERT(voice.users >= 0 && data.users >= 0);
  WCDMA_ASSERT(data.forward_fraction >= 0.0 && data.forward_fraction <= 1.0);
  WCDMA_ASSERT(radio.bs_max_power_w > radio.pilot_power_w + radio.common_power_w);
  WCDMA_ASSERT(radio.orthogonality_loss >= 0.0 && radio.orthogonality_loss <= 1.0);
  WCDMA_ASSERT(phy.fixed_mode >= 0 && phy.fixed_mode <= phy.vtaoc.num_modes);
  WCDMA_ASSERT(admission.min_burst_s >= frame_s);
  WCDMA_ASSERT(placement.carriers >= 1);
  WCDMA_ASSERT(placement.home_radius_scale > 0.0);
  WCDMA_ASSERT(sim_threads >= 0);
  WCDMA_ASSERT(service.injection_queue_cap >= 0);
  WCDMA_ASSERT(load_ramp.peak_scale > 0.0);
  WCDMA_ASSERT(load_ramp.rise_s >= 0.0 && load_ramp.hold_s >= 0.0 &&
               load_ramp.fall_s >= 0.0);
  if (load_ramp.enabled() && !load_ramp.cell_weights.empty()) {
    WCDMA_ASSERT(load_ramp.cell_weights.size() == cell::hex_cell_count(layout.rings) &&
                 "one load-ramp weight per layout cell");
    for (double w : load_ramp.cell_weights) WCDMA_ASSERT(w >= 0.0);
  }
  if (!placement.cell_weights.empty()) {
    WCDMA_ASSERT(placement.cell_weights.size() == cell::hex_cell_count(layout.rings) &&
                 "one placement weight per layout cell");
    double sum = 0.0;
    for (double w : placement.cell_weights) {
      WCDMA_ASSERT(w >= 0.0);
      sum += w;
    }
    WCDMA_ASSERT(sum > 0.0 && "placement weights must have positive mass");
  }
  return *this;
}

SystemConfig default_config() {
  SystemConfig cfg;
  // gamma_s and the VTAOC slope are calibrated together (DESIGN.md section
  // 6): the SCH operating point eps_s = gamma_s * beta_f * (Eb/I0)_f =
  // 3.2 * 0.25 * 5.0 = 4.0 (6 dB) sits mid-ladder (mode-1..6 thresholds
  // 1.9..17 dB with b1 = 4), while one SGR unit costs gamma_s ~ 3.2
  // FCH-equivalents of cell power/rise -- several concurrent bursts fit a
  // cell, so admission is a real packing problem rather than degenerate.
  cfg.spreading.gamma_s = 3.2;
  cfg.spreading.fch_throughput = 0.25;
  cfg.phy.vtaoc.b1 = 4.0;
  cfg.mobility.region_radius_m = 0.0;  // filled from the layout at build time
  return cfg;
}

}  // namespace wcdma::sim
