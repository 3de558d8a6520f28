// Scenario-subsystem tests: layout and weight builders, grid
// expansion of the multi-cell presets, per-cell load scaling and carrier
// assignment observed through the simulator, the E-numbered experiments
// and their preset rows, and the determinism contract for one experiment
// (bit-identical merged metrics across 1/N threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/scenario/experiments.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/presets.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma::scenario {
namespace {

TEST(ScenarioLayouts, AllLayoutsBuildValidConfigs) {
  for (ScenarioLayout (*build)() :
       {uniform_hex7, hotspot_center, highway_corridor, enterprise_data, large_hex}) {
    const sim::SystemConfig cfg = build().to_config();  // validates internally
    EXPECT_EQ(cfg.placement.cell_weights.size(), cell::hex_cell_count(cfg.layout.rings));
    EXPECT_GT(cfg.sim_duration_s, cfg.warmup_s);
  }
}

TEST(ScenarioWeights, UniformHotspotAndCorridorShapes) {
  EXPECT_EQ(uniform_weights(1).size(), 7u);
  EXPECT_EQ(uniform_weights(2).size(), 19u);

  const std::vector<double> hot = hotspot_weights(2, 8.0);
  ASSERT_EQ(hot.size(), 19u);
  EXPECT_DOUBLE_EQ(hot[0], 8.0);
  // Ring 1 (cells 1..6) sits between the centre and ring 2 (cells 7..18).
  EXPECT_GT(hot[0], hot[1]);
  EXPECT_GT(hot[1], hot[7]);
  EXPECT_DOUBLE_EQ(hot[7], 1.0);

  // The 19-cell layout has exactly 5 cells on the row through the origin.
  cell::HexLayoutConfig layout;
  layout.rings = 2;
  const std::vector<double> corridor =
      corridor_weights(layout, 0.5 * layout.cell_radius_m);
  double mass = 0.0;
  for (double w : corridor) mass += w;
  EXPECT_DOUBLE_EQ(mass, 5.0);
  EXPECT_DOUBLE_EQ(corridor[0], 1.0);  // centre cell is on the corridor
}

TEST(PerCellPlacement, AllMassOnOneCellConfinesEveryUser) {
  ScenarioLayout layout = uniform_hex7();
  layout.voice_users = 10;
  layout.data_users = 5;
  layout.sim_duration_s = 2.0;
  layout.warmup_s = 0.5;
  sim::SystemConfig cfg = layout.to_config();
  std::fill(cfg.placement.cell_weights.begin(), cfg.placement.cell_weights.end(), 0.0);
  cfg.placement.cell_weights[3] = 1.0;

  sim::Simulator simulator(cfg);
  const cell::HexLayout hex(cfg.layout);
  const double home_r = cfg.placement.home_radius_scale * hex.cell_radius_m();
  for (std::size_t i = 0; i < simulator.num_users(); ++i) {
    EXPECT_EQ(simulator.user_home_cell(i), 3u);
    EXPECT_LE(cell::distance(simulator.user_position(i), hex.center(3)),
              home_r + 1e-9);
  }
  // Users stay confined while the simulation runs.
  for (int f = 0; f < 50; ++f) simulator.step_frame();
  for (std::size_t i = 0; i < simulator.num_users(); ++i) {
    EXPECT_LE(cell::distance(simulator.user_position(i), hex.center(3)),
              home_r + 1e-9);
  }
}

TEST(PerCellPlacement, WeightsSteerTheLoadDistribution) {
  ScenarioLayout layout = hotspot_center();
  layout.voice_users = 120;
  layout.data_users = 0;
  layout.sim_duration_s = 2.0;
  layout.warmup_s = 0.5;
  const sim::SystemConfig cfg = layout.to_config();
  sim::Simulator simulator(cfg);

  std::size_t in_center = 0;
  for (std::size_t i = 0; i < simulator.num_users(); ++i) {
    in_center += simulator.user_home_cell(i) == 0 ? 1 : 0;
  }
  // The centre holds weight 8 of ~32 total: far above uniform 1/19, and
  // far below all of it.
  EXPECT_GT(in_center, simulator.num_users() / 10);
  EXPECT_LT(in_center, simulator.num_users() / 2);
}

TEST(Carriers, RoundRobinAssignmentAndIndependentDomains) {
  ScenarioLayout layout = enterprise_data();
  layout.voice_users = 6;
  layout.data_users = 6;
  layout.sim_duration_s = 3.0;
  layout.warmup_s = 0.5;
  const sim::SystemConfig cfg = layout.to_config();
  ASSERT_EQ(cfg.placement.carriers, 2);

  sim::Simulator simulator(cfg);
  EXPECT_EQ(simulator.num_carriers(), 2);
  for (std::size_t i = 0; i < simulator.num_users(); ++i) {
    EXPECT_EQ(simulator.user_carrier(i), static_cast<int>(i % 2));
  }
  const sim::SimMetrics m = simulator.run();
  EXPECT_GT(m.data_bits_delivered, 0.0);
  // Both carriers carry load: at least the idle floor, at most the PA cap,
  // on every (cell, carrier) domain.
  const double idle_w = cfg.radio.pilot_power_w + cfg.radio.common_power_w;
  for (std::size_t k = 0; k < simulator.num_cells(); ++k) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_GE(simulator.forward_power_w(k, c), idle_w - 1e-9);
      EXPECT_LE(simulator.forward_power_w(k, c), cfg.radio.bs_max_power_w + 1e-9);
      EXPECT_GE(simulator.reverse_interference_w(k, c), simulator.thermal_noise_w());
    }
  }
}

TEST(HighwayCorridor, UsesDirectionalCorridorMobility) {
  const ScenarioLayout layout = highway_corridor();
  EXPECT_EQ(layout.mobility_kind, cell::MobilityKind::kCorridor);
  const sim::SystemConfig cfg = layout.to_config();
  EXPECT_EQ(cfg.mobility.kind, cell::MobilityKind::kCorridor);
  EXPECT_DOUBLE_EQ(cfg.mobility.corridor_half_width_m, 0.5 * cfg.layout.cell_radius_m);
}

TEST(HighwayCorridor, UsersStayInTheCorridorBandWhileDriving) {
  ScenarioLayout layout = highway_corridor();
  layout.voice_users = 8;
  layout.data_users = 4;
  layout.sim_duration_s = 3.0;
  layout.warmup_s = 0.5;
  const sim::SystemConfig cfg = layout.to_config();
  sim::Simulator simulator(cfg);
  for (int f = 0; f < 100; ++f) {
    simulator.step_frame();
    for (std::size_t i = 0; i < simulator.num_users(); ++i) {
      // Lanes span the corridor weight band; motion is along x only.
      EXPECT_LE(std::fabs(simulator.user_position(i).y),
                cfg.mobility.corridor_half_width_m + 1e-9);
    }
  }
  // Vehicles actually drive: positions spread along the road.
  double min_x = 1e12, max_x = -1e12;
  for (std::size_t i = 0; i < simulator.num_users(); ++i) {
    min_x = std::min(min_x, simulator.user_position(i).x);
    max_x = std::max(max_x, simulator.user_position(i).x);
  }
  EXPECT_GT(max_x - min_x, cfg.layout.cell_radius_m);
}

TEST(MultiCellPresets, RegisteredAndGridsExpand) {
  for (const char* name :
       {"uniform-hex7", "hotspot-center", "highway-corridor", "enterprise-data"}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(sweep::has_preset(name));
    const sweep::SweepSpec spec = sweep::make_preset(name);
    std::size_t product = 1;
    for (const sweep::Axis& axis : spec.axes) product *= axis.values.size();
    EXPECT_EQ(spec.scenario_count(), product);
    EXPECT_GE(spec.scenario_count(), 4u);
    // Every grid point expands to a config the simulator accepts, and
    // keeps the multi-cell placement.
    for (std::size_t i = 0; i < spec.scenario_count(); ++i) {
      const sim::SystemConfig cfg = spec.scenario(i).config;
      cfg.validate();
      EXPECT_FALSE(cfg.placement.cell_weights.empty());
    }
  }
  // enterprise-data sweeps the carrier count itself.
  const sweep::SweepSpec enterprise = sweep::make_preset("enterprise-data");
  EXPECT_EQ(enterprise.scenario(0).config.placement.carriers, 1);
  EXPECT_EQ(enterprise.scenario(enterprise.scenario_count() - 1).config.placement.carriers,
            2);
}

TEST(MigratedBenches, SpecsAreWellFormed) {
  for (const sweep::SweepSpec& spec : {e4_delay_fl(), e5_delay_rl(), e8_synergy(),
                                       e10_objectives(), e11_mac_states()}) {
    SCOPED_TRACE(spec.name);
    spec.validate();
    EXPECT_TRUE(spec.common_random_numbers);  // paired comparisons
    EXPECT_GE(spec.scenario_count(), 4u);
  }
  for (const sweep::SweepSpec& spec : {e12a_feedback_delay(), e12b_kappa_margin(),
                                       e12c_scrm_retry(), e12d_reduced_set()}) {
    SCOPED_TRACE(spec.name);
    spec.validate();
    EXPECT_EQ(spec.axes.size(), 1u);
    EXPECT_TRUE(spec.common_random_numbers);
  }
}

// Each experiment is a preset row whose builder is the scenario function
// itself: the registry adds a name, never a second copy of the spec.
TEST(MigratedBenches, ExperimentPresetsAreTheirScenarioBuilders) {
  const struct {
    const char* preset;
    sweep::SweepSpec (*build)();
  } kExperiments[] = {
      {"e4-delay-fl", e4_delay_fl},
      {"e5-delay-rl", e5_delay_rl},
      {"e8-synergy", e8_synergy},
      {"e10-objectives", e10_objectives},
      {"e11-mac-states", e11_mac_states},
      {"e12a-feedback-delay", e12a_feedback_delay},
      {"e12b-kappa-margin", e12b_kappa_margin},
      {"e12c-scrm-retry", e12c_scrm_retry},
      {"e12d-reduced-set", e12d_reduced_set},
  };
  for (const auto& e : kExperiments) {
    SCOPED_TRACE(e.preset);
    ASSERT_TRUE(sweep::has_preset(e.preset));
    const sweep::SweepSpec preset = sweep::make_preset(e.preset);
    const sweep::SweepSpec built = e.build();
    EXPECT_EQ(preset.name, e.preset);
    EXPECT_EQ(built.name, e.preset);
    EXPECT_EQ(preset.base.seed, built.base.seed);
    EXPECT_EQ(preset.replications, built.replications);
    EXPECT_EQ(preset.common_random_numbers, built.common_random_numbers);
    ASSERT_EQ(preset.axes.size(), built.axes.size());
    for (std::size_t a = 0; a < built.axes.size(); ++a) {
      EXPECT_EQ(preset.axes[a].name, built.axes[a].name);
      ASSERT_EQ(preset.axes[a].values.size(), built.axes[a].values.size());
      for (std::size_t v = 0; v < built.axes[a].values.size(); ++v) {
        EXPECT_EQ(preset.axes[a].values[v].label, built.axes[a].values[v].label);
      }
    }
  }
}

// E12a sweeps the CSI feedback delay; the PHY it runs must read feedback,
// or every row comes out the same.  Stale feedback commits a frame to a mode
// the channel no longer supports, so the 8-frame row delivers less and
// violates the BER target more often than the 0-frame row.
TEST(MigratedBenches, E12FeedbackDelayAxisMovesTheMetrics) {
  sweep::SweepSpec spec = e12a_feedback_delay();
  ASSERT_EQ(spec.name, "e12a-feedback-delay");
  spec.base.sim_duration_s = 8.0;
  spec.base.warmup_s = 2.0;
  spec.axes = {sweep::axis_feedback_delay_frames({0, 8})};
  const sweep::SweepResult result = sweep::run_sweep(spec, 0);
  ASSERT_EQ(result.scenarios.size(), 2u);
  const sim::SimMetrics& fresh = result.scenarios[0].merged;
  const sim::SimMetrics& stale = result.scenarios[1].merged;
  ASSERT_GT(fresh.sch_frames, 0);
  EXPECT_LT(stale.data_bits_delivered, fresh.data_bits_delivered);
  EXPECT_GT(stale.ber_violation_frames, fresh.ber_violation_frames);
}

TEST(MigratedBenches, E5MergedMetricsAreThreadCountInvariant) {
  // The migrated reverse-link bench, shrunk to test size: same base config
  // and axis kinds, fewer values and a short horizon.
  sweep::SweepSpec spec = e5_delay_rl();
  spec.base.voice.users = 6;
  spec.base.sim_duration_s = 4.0;
  spec.base.warmup_s = 1.0;
  spec.axes = {sweep::axis_data_users({2, 4}),
               sweep::axis_scheduler({"jaba-sd", "fcfs"})};
  spec.replications = 2;

  const sweep::SweepResult inline_run = sweep::run_sweep(spec, 0);
  const sweep::SweepResult serial = sweep::run_sweep(spec, 1);
  const sweep::SweepResult parallel = sweep::run_sweep(spec, 4);
  ASSERT_EQ(inline_run.scenarios.size(), spec.scenario_count());
  for (std::size_t s = 0; s < inline_run.scenarios.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_TRUE(metrics_identical(inline_run.scenarios[s].merged,
                                  parallel.scenarios[s].merged));
    EXPECT_TRUE(metrics_identical(serial.scenarios[s].merged,
                                  parallel.scenarios[s].merged));
  }
  EXPECT_EQ(sweep::to_csv(inline_run), sweep::to_csv(parallel));
  EXPECT_EQ(sweep::to_csv(serial), sweep::to_csv(parallel));
}

TEST(MultiCellSweep, ThreadCountInvarianceWithPlacementAndCarriers) {
  // The determinism contract must survive the new placement and carrier
  // machinery: shrink uniform-hex7 and sweep the carrier count.
  ScenarioLayout layout = uniform_hex7();
  layout.voice_users = 8;
  layout.data_users = 4;
  layout.sim_duration_s = 3.0;
  layout.warmup_s = 0.5;

  sweep::SweepSpec spec;
  spec.name = "tiny-multicell";
  spec.base = layout.to_config();
  spec.axes = {sweep::axis_carriers({1, 2}), sweep::axis_load_scale({1.0, 1.5})};
  spec.replications = 2;
  spec.validate();

  const sweep::SweepResult a = sweep::run_sweep(spec, 0);
  const sweep::SweepResult b = sweep::run_sweep(spec, 3);
  EXPECT_EQ(sweep::to_csv(a), sweep::to_csv(b));
  EXPECT_EQ(sweep::to_json(a), sweep::to_json(b));
}

// --- Flash-crowd load ramp -------------------------------------------------

TEST(LoadRamp, TrapezoidShapeAndCellBlend) {
  sim::LoadRampConfig ramp;
  ramp.peak_scale = 5.0;
  ramp.start_s = 10.0;
  ramp.rise_s = 4.0;
  ramp.hold_s = 6.0;
  ramp.fall_s = 4.0;
  ramp.cell_weights = {1.0, 0.5, 0.0};

  EXPECT_EQ(ramp.scale(0.0, 0), 1.0);    // before the pulse
  EXPECT_EQ(ramp.scale(9.99, 0), 1.0);
  EXPECT_EQ(ramp.scale(12.0, 0), 3.0);   // mid-rise: halfway to 5x
  EXPECT_EQ(ramp.scale(16.0, 0), 5.0);   // holding at peak
  EXPECT_EQ(ramp.scale(22.0, 0), 3.0);   // mid-fall
  EXPECT_EQ(ramp.scale(25.0, 0), 1.0);   // pulse over
  // Per-cell blend: half-strength ring, untouched far cell.
  EXPECT_EQ(ramp.scale(16.0, 1), 3.0);   // 1 + (5-1) * 1.0 * 0.5
  EXPECT_EQ(ramp.scale(16.0, 2), 1.0);
}

TEST(LoadRamp, DisabledRampIsExactlyNeutral) {
  sim::LoadRampConfig ramp;
  ramp.start_s = 1.0;
  ramp.rise_s = 1.0;
  EXPECT_FALSE(ramp.enabled());
  EXPECT_EQ(ramp.scale(2.0, 0), 1.0);
}

TEST(LoadRamp, UnitPeakLeavesSimulationBitIdentical) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = 1;
  cfg.voice.users = 8;
  cfg.data.users = 6;
  cfg.sim_duration_s = 6.0;
  cfg.warmup_s = 1.0;
  cfg.data.mean_reading_s = 0.8;
  cfg.seed = 31337;
  const sim::SimMetrics plain = sim::Simulator(cfg).run();

  cfg.load_ramp.peak_scale = 1.0;  // configured but disabled
  cfg.load_ramp.start_s = 2.0;
  cfg.load_ramp.rise_s = 1.0;
  cfg.load_ramp.hold_s = 2.0;
  EXPECT_TRUE(metrics_identical(plain, sim::Simulator(cfg).run()));
}

TEST(LoadRamp, FlashCrowdRaisesArrivals) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = 1;
  cfg.voice.users = 8;
  cfg.data.users = 12;
  cfg.sim_duration_s = 14.0;
  cfg.warmup_s = 1.0;
  cfg.data.mean_reading_s = 1.2;
  cfg.seed = 90125;
  const sim::SimMetrics quiet = sim::Simulator(cfg).run();

  cfg.load_ramp.peak_scale = 5.0;  // all cells: empty weight list
  cfg.load_ramp.start_s = 2.0;
  cfg.load_ramp.rise_s = 1.0;
  cfg.load_ramp.hold_s = 10.0;
  cfg.load_ramp.fall_s = 1.0;
  const sim::SimMetrics crowd = sim::Simulator(cfg).run();
  EXPECT_GT(crowd.requests_seen, quiet.requests_seen);
}

TEST(LoadRamp, FlashCrowdPresetExpandsAndApplies) {
  ASSERT_TRUE(sweep::has_preset("flash-crowd"));
  sweep::SweepSpec spec = sweep::make_preset("flash-crowd");
  EXPECT_EQ(spec.scenario_count(), 6u);
  EXPECT_FALSE(spec.base.load_ramp.enabled());  // axis value 1.0 is the control
  EXPECT_EQ(spec.base.load_ramp.cell_weights.size(),
            cell::hex_cell_count(spec.base.layout.rings));
  EXPECT_EQ(spec.base.load_ramp.cell_weights[0], 1.0);

  // The ramp_peak axis switches the pulse on.
  const sweep::Scenario peak = spec.scenario(spec.scenario_count() - 1);
  EXPECT_TRUE(peak.config.load_ramp.enabled());
  EXPECT_EQ(peak.config.load_ramp.peak_scale, 4.0);
  peak.config.validate();
}

}  // namespace
}  // namespace wcdma::scenario
