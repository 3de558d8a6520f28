#include "src/scenario/scenario.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::scenario {

sim::SystemConfig ScenarioLayout::to_config() const {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout = layout;
  cfg.placement = placement;
  cfg.mobility.min_speed_mps = min_speed_mps;
  cfg.mobility.max_speed_mps = max_speed_mps;
  cfg.mobility.kind = mobility_kind;
  if (mobility_kind == cell::MobilityKind::kCorridor) {
    cfg.mobility.corridor_half_width_m = corridor_half_width_m;
    // half_length stays 0: the simulator derives it from the service radius
    // so the road spans the whole wrap-around layout.
  }
  cfg.voice.users = voice_users;
  cfg.data.users = data_users;
  cfg.data.mean_reading_s = data_mean_reading_s;
  cfg.data.forward_fraction = data_forward_fraction;
  cfg.load_ramp = load_ramp;
  cfg.sim_duration_s = sim_duration_s;
  cfg.warmup_s = warmup_s;
  cfg.seed = seed;
  cfg.validate();
  return cfg;
}

std::vector<double> uniform_weights(int rings) {
  return std::vector<double>(cell::hex_cell_count(rings), 1.0);
}

std::vector<double> hotspot_weights(int rings, double center_boost) {
  WCDMA_ASSERT(rings >= 1 && center_boost >= 1.0);
  std::vector<double> weights;
  weights.reserve(cell::hex_cell_count(rings));
  // Ring r holds 6r cells after the centre; decay the boost geometrically
  // so ring `rings` sits at weight 1.
  const double decay = common::refmath::pow(center_boost, 1.0 / rings);
  weights.push_back(center_boost);
  for (int ring = 1; ring <= rings; ++ring) {
    const double w = center_boost / common::refmath::pow(decay, ring);
    for (int i = 0; i < 6 * ring; ++i) weights.push_back(w);
  }
  return weights;
}

std::vector<double> corridor_weights(const cell::HexLayoutConfig& layout,
                                     double half_width_m) {
  const cell::HexLayout hex(layout);
  std::vector<double> weights(hex.num_cells(), 0.0);
  for (std::size_t k = 0; k < hex.num_cells(); ++k) {
    if (std::fabs(hex.center(k).y) <= half_width_m) weights[k] = 1.0;
  }
  return weights;
}

ScenarioLayout uniform_hex7() {
  ScenarioLayout s;
  s.layout.rings = 1;
  s.placement.cell_weights = uniform_weights(1);
  s.placement.home_radius_scale = 1.4;  // users roam across cell borders
  s.voice_users = 42;  // ~6 voice + 3 data per cell
  s.data_users = 21;
  s.data_mean_reading_s = 1.2;
  s.sim_duration_s = 120.0;
  s.warmup_s = 10.0;
  s.seed = 20101;
  return s;
}

ScenarioLayout hotspot_center() {
  ScenarioLayout s;
  s.layout.rings = 2;
  s.placement.cell_weights = hotspot_weights(2, 8.0);
  s.placement.home_radius_scale = 1.2;
  s.voice_users = 76;
  s.data_users = 24;
  s.data_mean_reading_s = 1.0;
  s.sim_duration_s = 150.0;
  s.warmup_s = 12.0;
  s.seed = 20202;
  return s;
}

ScenarioLayout highway_corridor() {
  ScenarioLayout s;
  s.layout.rings = 2;
  // Half a cell radius of lateral spread keeps the load on the 5-cell row.
  s.placement.cell_weights = corridor_weights(s.layout, 0.5 * s.layout.cell_radius_m);
  s.placement.home_radius_scale = 1.5;  // long drives across cell borders
  // Directional along-road motion with wrap-around, lanes matching the
  // corridor weight band.
  s.mobility_kind = cell::MobilityKind::kCorridor;
  s.corridor_half_width_m = 0.5 * s.layout.cell_radius_m;
  s.min_speed_mps = 60.0 / 3.6;
  s.max_speed_mps = 120.0 / 3.6;
  s.voice_users = 40;
  s.data_users = 20;
  s.data_mean_reading_s = 1.5;
  s.sim_duration_s = 120.0;
  s.warmup_s = 10.0;
  s.seed = 20303;
  return s;
}

ScenarioLayout enterprise_data() {
  ScenarioLayout s;
  s.layout.rings = 1;
  s.placement.cell_weights = hotspot_weights(1, 3.0);
  s.placement.home_radius_scale = 1.0;  // indoor users stay near their cell
  s.placement.carriers = 2;
  s.min_speed_mps = 0.3;
  s.max_speed_mps = 1.5;  // walking pace
  s.voice_users = 16;
  s.data_users = 36;
  s.data_mean_reading_s = 0.8;
  s.data_forward_fraction = 0.9;
  s.sim_duration_s = 120.0;
  s.warmup_s = 10.0;
  s.seed = 20404;
  return s;
}

ScenarioLayout large_hex() {
  ScenarioLayout s;
  s.layout.rings = 6;  // 127 cells
  s.placement.cell_weights = uniform_weights(6);
  s.placement.home_radius_scale = 1.2;
  // ~15 voice + 3 data per cell: city-scale population, per-cell load
  // comparable to the smaller grids so metrics stay interpretable.
  s.voice_users = 1905;
  s.data_users = 381;
  s.data_mean_reading_s = 1.2;
  s.sim_duration_s = 60.0;
  s.warmup_s = 8.0;
  s.seed = 20505;
  return s;
}

}  // namespace wcdma::scenario
