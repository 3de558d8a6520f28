#include "src/sweep/presets.hpp"

#include "src/common/assert.hpp"
#include "src/scenario/experiments.hpp"
#include "src/scenario/scenario.hpp"

namespace wcdma::sweep {

namespace {

using admission::ObjectiveKind;

const std::vector<std::string> kCoreSchedulers = {"jaba-sd", "fcfs", "equal-share"};

/// The paper's 19-cell wide-area setting, shortened to a CI-friendly horizon.
SweepSpec paper_default() {
  SweepSpec spec;
  spec.name = "paper-default";
  spec.base = sim::default_config();
  spec.base.sim_duration_s = 30.0;
  spec.base.warmup_s = 5.0;
  spec.base.data.mean_reading_s = 1.5;
  spec.base.seed = 2001042;
  spec.axes = {axis_scheduler(kCoreSchedulers), axis_data_users({8, 16})};
  spec.replications = 2;
  return spec;
}

/// Every user confined to the central cell so burst requests contend for
/// one power/interference budget — where multiple-burst scheduling matters.
SweepSpec hotspot_cell() {
  SweepSpec spec;
  spec.name = "hotspot-cell";
  spec.base = scenario::hotspot_cell_config(7701);
  spec.axes = {axis_scheduler(kCoreSchedulers), axis_data_users({8, 16, 24})};
  spec.replications = 2;
  return spec;
}

/// Vehicular users: fast shadowing decorrelation and stale closed-loop CSI
/// stress the channel-adaptive stack.
SweepSpec highway_mobility() {
  SweepSpec spec;
  spec.name = "highway-mobility";
  spec.base = sim::default_config();
  spec.base.layout.rings = 1;
  spec.base.voice.users = 20;
  spec.base.data.users = 12;
  spec.base.mobility.min_speed_mps = 15.0;
  spec.base.sim_duration_s = 40.0;
  spec.base.warmup_s = 6.0;
  spec.base.seed = 8803;
  spec.axes = {axis_max_speed_kmh({60.0, 90.0, 120.0}),
               axis_scheduler({"jaba-sd", "fcfs"})};
  spec.replications = 2;
  return spec;
}

/// Download-dominated traffic mix at short reading times: the forward-link
/// power budget is the binding constraint.
SweepSpec data_heavy() {
  SweepSpec spec;
  spec.name = "data-heavy";
  spec.base = sim::default_config();
  spec.base.layout.rings = 1;
  spec.base.voice.users = 10;
  spec.base.data.mean_reading_s = 0.8;
  spec.base.data.forward_fraction = 1.0;
  spec.base.mobility.region_radius_m = spec.base.layout.cell_radius_m;
  spec.base.sim_duration_s = 40.0;
  spec.base.warmup_s = 6.0;
  spec.base.seed = 9907;
  spec.axes = {axis_data_users({12, 18, 24}),
               axis_objective({ObjectiveKind::kJ1MaxRate, ObjectiveKind::kJ2DelayAware})};
  spec.replications = 2;
  return spec;
}

/// Harsh propagation: steep path loss and heavy shadowing, adaptive VTAOC
/// against a fixed-rate ablation (the paper's coverage story).
SweepSpec degraded_channel() {
  SweepSpec spec;
  spec.name = "degraded-channel";
  spec.base = sim::default_config();
  spec.base.voice.users = 30;
  spec.base.data.users = 12;
  spec.base.sim_duration_s = 40.0;
  spec.base.warmup_s = 6.0;
  spec.base.path_loss.kind = channel::PathLossModelKind::kLogDistance;
  spec.base.path_loss.exponent = 4.2;
  spec.base.seed = 6607;
  spec.axes = {axis_shadowing_sigma_db({8.0, 10.0, 12.0}), axis_fixed_mode({0, 4})};
  spec.replications = 2;
  return spec;
}

// --- Multi-cell scenario presets (src/scenario layouts) ------------------

/// Uniformly loaded 7-cell grid: schedulers x overall load scale.
SweepSpec uniform_hex7() {
  SweepSpec spec;
  spec.name = "uniform-hex7";
  spec.base = scenario::uniform_hex7().to_config();
  spec.axes = {axis_scheduler(kCoreSchedulers), axis_load_scale({0.75, 1.0, 1.25})};
  spec.replications = 2;
  return spec;
}

/// 19-cell hotspot-centre layout: schedulers x data load in the hotspot.
SweepSpec hotspot_center() {
  SweepSpec spec;
  spec.name = "hotspot-center";
  spec.base = scenario::hotspot_center().to_config();
  spec.axes = {axis_scheduler(kCoreSchedulers), axis_data_users({16, 24, 32})};
  spec.replications = 2;
  return spec;
}

/// Vehicular corridor through a 19-cell grid: speed x schedulers.
SweepSpec highway_corridor() {
  SweepSpec spec;
  spec.name = "highway-corridor";
  spec.base = scenario::highway_corridor().to_config();
  spec.axes = {axis_max_speed_kmh({60.0, 90.0, 120.0}),
               axis_scheduler({"jaba-sd", "fcfs"})};
  spec.replications = 2;
  return spec;
}

/// Data-heavy enterprise mix: carrier count x admission objective.
SweepSpec enterprise_data() {
  SweepSpec spec;
  spec.name = "enterprise-data";
  spec.base = scenario::enterprise_data().to_config();
  spec.axes = {axis_carriers({1, 2}),
               axis_objective({ObjectiveKind::kJ1MaxRate, ObjectiveKind::kJ2DelayAware})};
  spec.replications = 2;
  return spec;
}

/// Exhaustive vs. neighbour-culled channel-state providers on the 19-cell
/// hotspot grid: the metric-equivalence and frames/sec story in one sweep.
/// `culled` rows are statistically equivalent, not bit-identical
/// (tests/test_statcheck.cpp pins the tolerances).
SweepSpec csi_providers() {
  SweepSpec spec;
  spec.name = "csi-providers";
  spec.base = scenario::hotspot_center().to_config();
  spec.base.sim_duration_s = 60.0;
  spec.base.warmup_s = 8.0;
  spec.axes = {axis_csi_provider({"exhaustive", "culled"}),
               axis_load_scale({1.0, 2.0})};
  spec.replications = 2;
  return spec;
}

/// 127-cell metro grid: the world size only the culled provider can
/// afford.  Load scale on `culled`, shortened horizon -- the per-link cost
/// stays flat with cell count because candidate sets are radius-bounded
/// and the far-field aggregate covers the rest (docs/ACCURACY.md;
/// tools/check_perf.py gates the scaling).
SweepSpec large_hex() {
  SweepSpec spec;
  spec.name = "large-hex";
  spec.base = scenario::large_hex().to_config();
  spec.base.sim_duration_s = 30.0;
  spec.base.warmup_s = 5.0;
  spec.base.csi.provider = "culled";
  spec.axes = {axis_load_scale({1.0, 1.5})};
  spec.replications = 1;
  return spec;
}

/// Inter-carrier hand-down against plain JABA-SD on the two-carrier
/// enterprise layout: the load-balancing win of the policy API.
SweepSpec carrier_balance() {
  SweepSpec spec;
  spec.name = "carrier-balance";
  spec.base = scenario::enterprise_data().to_config();
  spec.axes = {axis_policy({"jaba-sd", "hand-down"}),
               axis_load_scale({1.0, 1.5})};
  spec.replications = 2;
  return spec;
}

/// Flash crowd on the hotspot-centre layout: a trapezoidal arrival pulse
/// (2x..4x) hits the centre cell and its first ring mid-run -- the "dynamic
/// per-cell load over time" scenario the static hotspot weights cannot
/// express.  Peak scale x scheduler, so the delay blow-up and recovery are
/// directly comparable across admission schemes.
SweepSpec flash_crowd() {
  SweepSpec spec;
  spec.name = "flash-crowd";
  scenario::ScenarioLayout layout = scenario::hotspot_center();
  // Pulse shortly after the 12 s warmup so both the full 150 s run and the
  // shortened CI smoke cross it; the long tail shows the recovery.
  layout.load_ramp.start_s = 16.0;
  layout.load_ramp.rise_s = 8.0;
  layout.load_ramp.hold_s = 50.0;
  layout.load_ramp.fall_s = 10.0;
  // Full pulse on the centre cell, half strength on the first ring.
  layout.load_ramp.cell_weights.assign(cell::hex_cell_count(layout.layout.rings), 0.0);
  layout.load_ramp.cell_weights[0] = 1.0;
  for (std::size_t k = 1; k <= 6; ++k) layout.load_ramp.cell_weights[k] = 0.5;
  // peak_scale stays 1 in the base; the ramp_peak axis switches it on, and
  // value 1 doubles as the no-ramp control cell of the sweep.
  spec.base = layout.to_config();
  spec.axes = {axis_load_ramp_peak({1.0, 2.0, 4.0}),
               axis_scheduler({"jaba-sd", "fcfs"})};
  spec.replications = 2;
  return spec;
}

/// Intra-frame parallelism proof: the sim_threads axis must leave every
/// metric bit-identical while the sweep records the frames/sec story.
SweepSpec sim_threads() {
  SweepSpec spec;
  spec.name = "sim-threads";
  spec.base = scenario::hotspot_center().to_config();
  spec.base.sim_duration_s = 30.0;
  spec.base.warmup_s = 5.0;
  spec.axes = {axis_sim_threads({1, 4}),
               axis_csi_provider({"exhaustive", "culled"})};
  spec.replications = 1;
  return spec;
}

/// Tiny 2-scenario grid for CI smoke runs and engine tests.
SweepSpec smoke() {
  SweepSpec spec;
  spec.name = "smoke";
  spec.base = sim::default_config();
  spec.base.layout.rings = 1;
  spec.base.voice.users = 8;
  spec.base.data.users = 4;
  spec.base.data.mean_reading_s = 1.0;
  spec.base.sim_duration_s = 6.0;
  spec.base.warmup_s = 1.0;
  spec.base.seed = 1105;
  spec.axes = {axis_scheduler({"jaba-sd", "fcfs"})};
  spec.replications = 1;
  return spec;
}

struct PresetEntry {
  const char* name;
  const char* description;
  SweepSpec (*build)();
};

const PresetEntry kPresets[] = {
    {"paper-default", "19-cell wide area, headline schedulers x data load",
     paper_default},
    {"hotspot-cell", "single congested cell, schedulers x data load", hotspot_cell},
    {"highway-mobility", "vehicular speeds 60-120 km/h x schedulers",
     highway_mobility},
    {"data-heavy", "download-dominated mix, data load x objective", data_heavy},
    {"degraded-channel", "steep path loss, shadowing x adaptive-vs-fixed PHY",
     degraded_channel},
    {"uniform-hex7", "uniform 7-cell grid, schedulers x load scale", uniform_hex7},
    {"hotspot-center", "19-cell hotspot centre, schedulers x data load",
     hotspot_center},
    {"highway-corridor", "vehicular corridor cells, speed x schedulers",
     highway_corridor},
    {"enterprise-data", "data-heavy enterprise mix, carriers x objective",
     enterprise_data},
    {"csi-providers", "exhaustive vs culled channel state, load x provider",
     csi_providers},
    {"large-hex", "127-cell metro grid, culled provider x load scale", large_hex},
    {"carrier-balance", "inter-carrier hand-down vs JABA-SD, two carriers",
     carrier_balance},
    {"flash-crowd", "hotspot-centre arrival pulse, ramp peak x schedulers",
     flash_crowd},
    {"sim-threads", "intra-frame thread count x provider, bit-identity proof",
     sim_threads},
    {"smoke", "tiny 2-scenario grid for CI smoke runs", smoke},
    // The paper's experiments (src/scenario/experiments.hpp).
    {"e4-delay-fl", "E4: forward-link burst delay, data users x schedulers",
     scenario::e4_delay_fl},
    {"e5-delay-rl", "E5: reverse-link burst delay, data users x schedulers",
     scenario::e5_delay_rl},
    {"e8-synergy", "E8: synergy 2x2, adaptive/fixed PHY x JABA-SD/FCFS-single",
     scenario::e8_synergy},
    {"e10-objectives", "E10: J1 vs J2 and the delay-penalty (lambda, mu) cases",
     scenario::e10_objectives},
    {"e11-mac-states", "E11: MAC set-up penalty and timer cases x objective",
     scenario::e11_mac_states},
    {"e12a-feedback-delay", "E12a: CSI feedback delay on the fixed mode-3 PHY",
     scenario::e12a_feedback_delay},
    {"e12b-kappa-margin", "E12b: reverse-link neighbour-projection margin kappa",
     scenario::e12b_kappa_margin},
    {"e12c-scrm-retry", "E12c: SCRM retry interval", scenario::e12c_scrm_retry},
    {"e12d-reduced-set", "E12d: reduced active-set size", scenario::e12d_reduced_set},
};

const PresetEntry* find_preset(const std::string& name) {
  for (const PresetEntry& entry : kPresets) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const PresetEntry& entry : kPresets) names.push_back(entry.name);
  return names;
}

bool has_preset(const std::string& name) { return find_preset(name) != nullptr; }

SweepSpec make_preset(const std::string& name) {
  const PresetEntry* entry = find_preset(name);
  WCDMA_ASSERT(entry != nullptr && "unknown sweep preset");
  SweepSpec spec = entry->build();
  spec.validate();
  return spec;
}

std::string preset_description(const std::string& name) {
  const PresetEntry* entry = find_preset(name);
  WCDMA_ASSERT(entry != nullptr && "unknown sweep preset");
  return entry->description;
}

}  // namespace wcdma::sweep
