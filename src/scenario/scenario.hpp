// Multi-cell scenario layouts (DESIGN step toward the million-user north
// star).
//
// A ScenarioLayout composes cell::geometry, cell::mobility, and the traffic
// mixes into a multi-cell, multi-carrier topology: how many cells, how
// load is distributed over them (per-cell placement weights), how fast users
// move, the voice/data mix, and the run horizon.  Layouts expand to plain
// sim::SystemConfigs, so everything downstream (simulator, sweep engine,
// benches, CLI) consumes them without knowing they exist.  The named
// topologies mirror the evaluation settings of the paper and of the
// multi-class CAC literature: a uniformly loaded hexagonal grid, a congested
// hotspot centre, a vehicular highway corridor, and a data-heavy enterprise
// deployment on two carriers.
#pragma once

#include <cstdint>
#include <vector>

#include "src/cell/geometry.hpp"
#include "src/sim/config.hpp"

namespace wcdma::scenario {

/// A multi-cell topology plus the load that lives on it.  Expand with
/// to_config(); sweep presets then put axes on top of the expanded config.
struct ScenarioLayout {
  cell::HexLayoutConfig layout{};     // ring count, cell radius, wrap-around
  sim::PlacementConfig placement{};   // per-cell weights, home radius, carriers
  double min_speed_mps = 0.3;
  double max_speed_mps = 16.7;
  /// Corridor layouts drive users along the road (directional line-segment
  /// motion with wrap-around); everything else roams random-waypoint discs.
  cell::MobilityKind mobility_kind = cell::MobilityKind::kRandomWaypoint;
  /// Lateral lane spread of corridor motion (metres; corridor only).
  double corridor_half_width_m = 0.0;

  int voice_users = 60;
  int data_users = 12;
  double data_mean_reading_s = 1.5;
  double data_forward_fraction = 0.5;

  /// Time-varying per-cell arrival scaling (flash crowds): passed through
  /// to SystemConfig.load_ramp.  Disabled by default (peak_scale == 1).
  sim::LoadRampConfig load_ramp{};

  /// Long-horizon run lengths are the default for multi-cell layouts; CI
  /// smoke runs shorten them via sweep_main --duration/--warmup.
  double sim_duration_s = 120.0;
  double warmup_s = 10.0;
  std::uint64_t seed = 42;

  /// Expands onto sim::default_config(); the result passes validate().
  sim::SystemConfig to_config() const;
};

// --- Per-cell weight builders --------------------------------------------
/// Equal weight on every cell of a ring layout.
std::vector<double> uniform_weights(int rings);
/// Centre cell gets `center_boost` times the weight of an outermost cell;
/// intermediate rings interpolate geometrically.
std::vector<double> hotspot_weights(int rings, double center_boost);
/// Weight 1 on cells whose centre lies within `half_width_m` of the x-axis
/// (the row of cells through the origin), 0 elsewhere.
std::vector<double> corridor_weights(const cell::HexLayoutConfig& layout,
                                     double half_width_m);

// --- Named topologies ----------------------------------------------------
/// Uniformly loaded 7-cell hexagonal grid, pedestrian-to-urban mobility.
ScenarioLayout uniform_hex7();
/// 19-cell grid with the load piled onto the centre cell (hotspot).
ScenarioLayout hotspot_center();
/// Vehicular corridor: load confined to the row of cells through the
/// origin, 60-120 km/h speeds.
ScenarioLayout highway_corridor();
/// Data-heavy enterprise mix on two carriers, download-dominated.
ScenarioLayout enterprise_data();
/// Uniformly loaded 127-cell metro grid (6 rings, ~2300 users): the
/// culling + far-field scale point (docs/ACCURACY.md).
ScenarioLayout large_hex();

}  // namespace wcdma::scenario
