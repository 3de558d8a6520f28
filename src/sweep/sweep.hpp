// Parallel scenario-sweep engine.
//
// The paper's whole evaluation (E1-E7) is a family of parameter sweeps over
// one SystemConfig; this subsystem makes that a first-class object instead
// of a hand-rolled loop per bench.  A SweepSpec names axes over config
// knobs, expands to a deterministic mixed-radix grid of scenarios, and the
// runner shards (scenario x replication) work items across a thread pool.
// Per-item seeds derive from (master seed, scenario index, replication
// index), and replications merge in index order, so the merged results are
// bit-identical for any worker count, including 0 (inline execution).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/admission/objectives.hpp"
#include "src/common/table.hpp"
#include "src/sim/config.hpp"
#include "src/sim/metrics.hpp"

namespace wcdma::sweep {

/// One point on an axis: a display label plus the config mutation it means.
struct AxisValue {
  std::string label;
  std::function<void(sim::SystemConfig&)> apply;
};

/// One swept dimension; the grid is the cross product of all axes.
struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

// --- Axis factories for the SystemConfig knobs the benches sweep ---
Axis axis_data_users(const std::vector<int>& counts);
Axis axis_voice_users(const std::vector<int>& counts);
/// Sets mobility.max_speed_mps (min stays at the config default).
Axis axis_max_speed_kmh(const std::vector<double>& kmh);
Axis axis_shadowing_sigma_db(const std::vector<double>& sigmas);
/// Admission policy by registry name (admission::policy_names()), in a
/// `scheduler` column that prints each policy's label ("JABA-SD").
Axis axis_scheduler(const std::vector<std::string>& names);
/// The same knob in a `policy` column that prints the registry name.
Axis axis_policy(const std::vector<std::string>& names);
/// Channel-state provider by registry name ("exhaustive", "culled").
Axis axis_csi_provider(const std::vector<std::string>& names);
Axis axis_objective(const std::vector<admission::ObjectiveKind>& kinds);
/// 0 = adaptive VTAOC, 1..6 = fixed-rate ablation at that mode.
Axis axis_fixed_mode(const std::vector<int>& modes);
/// Multiplies the base voice AND data populations (rounded).
Axis axis_load_scale(const std::vector<double>& scales);
/// Independent WCDMA carriers per cell (placement.carriers).
Axis axis_carriers(const std::vector<int>& counts);
/// CSI feedback delay in frames.  Only the fixed-rate PHY (phy.fixed_mode
/// > 0) reads feedback; the adaptive PHY adapts on the true CSI.
Axis axis_feedback_delay_frames(const std::vector<std::size_t>& frames);
/// Reverse-link neighbour-projection shadowing margin kappa (Eq. 15).
Axis axis_kappa_margin_db(const std::vector<double>& margins);
/// SCRM persistence: seconds a rejected request stays out of scheduling.
Axis axis_scrm_retry_s(const std::vector<double>& retries);
/// Reduced active-set size (SCH legs per burst, footnote 4).
Axis axis_reduced_set(const std::vector<std::size_t>& sizes);
/// Intra-frame worker threads of the simulator hot path (sim.threads;
/// 0 = hardware concurrency).  Metrics are bit-identical across values --
/// this axis exists to *prove* that, and to bench the scaling.
Axis axis_sim_threads(const std::vector<int>& counts);
/// Flash-crowd peak arrival scale (load_ramp.peak_scale); the preset's base
/// config supplies the ramp timing and per-cell blend.
Axis axis_load_ramp_peak(const std::vector<double>& peaks);

/// One fully-expanded grid point.
struct Scenario {
  std::size_t index = 0;
  /// Per-axis value index (mixed-radix digits of `index`).
  std::vector<std::size_t> value_indices;
  /// Per-axis display label.
  std::vector<std::string> labels;
  sim::SystemConfig config;
};

struct SweepSpec {
  std::string name;
  sim::SystemConfig base;
  std::vector<Axis> axes;
  /// Replication r draws the same seed in every scenario (common random
  /// numbers), so compared grid cells see identical user drops and channel
  /// realisations: a paired comparison with reduced variance.
  std::size_t replications = 1;

  /// Product of axis sizes (1 when there are no axes).
  std::size_t scenario_count() const;
  /// Decodes `index` (row-major, first axis slowest) and applies the axis
  /// values to a copy of `base`.
  Scenario scenario(std::size_t index) const;
  /// Aborts on empty axes or zero replications; returns *this for chaining.
  const SweepSpec& validate() const;
};

/// Deterministic seed of replication `replication_index` in every scenario
/// (common random numbers).  Derived from the master seed by two SplitMix64
/// mixing rounds so distinct replications never share a stream.
std::uint64_t item_seed(std::uint64_t master_seed, std::size_t replication_index);

/// Total (scenario x replication) work items; item `i` is
/// (scenario i / replications, replication i % replications).
std::size_t item_count(const SweepSpec& spec);

/// The exact SystemConfig work item `item` runs under -- scenario axes
/// applied to the base plus its replication's item_seed().  Shared by the
/// in-process runner and the multi-process workers (src/runner/), so both
/// execute identical simulations by construction.
sim::SystemConfig item_config(const SweepSpec& spec, std::size_t item);

struct ScenarioResult {
  std::size_t index = 0;
  std::vector<std::size_t> value_indices;
  std::vector<std::string> labels;
  /// Metrics merged over replications, in replication order.
  sim::SimMetrics merged;
  /// Per-replication mean burst delays, for confidence intervals.
  std::vector<double> replication_mean_delay_s;
};

struct SweepResult {
  std::string name;
  std::vector<std::string> axis_names;
  std::size_t replications = 0;
  /// Ordered by scenario index.
  std::vector<ScenarioResult> scenarios;

  /// Result for the scenario with the given per-axis value indices.
  const ScenarioResult& at(const std::vector<std::size_t>& value_indices) const;
};

/// Called after each finished work item with (done, total); serialised, may
/// be invoked from worker threads.
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Runs the full (scenario x replication) grid on `threads` workers
/// (0 = inline on the caller); the master seed is `spec.base.seed`.
SweepResult run_sweep(const SweepSpec& spec, std::size_t threads,
                      const ProgressFn& progress = nullptr);

/// Deterministic merge of per-item metrics (indexed as item_count() lays
/// them out) into the result table, in (scenario, replication) index order
/// regardless of who computed the items or in what order they finished.
/// run_sweep() and the multi-process supervisor both end here, which is
/// what makes their outputs byte-identical for any worker count.
SweepResult merge_item_metrics(const SweepSpec& spec,
                               const std::vector<sim::SimMetrics>& per_item);

/// Standard result table: one row per scenario with the axis labels plus
/// the headline metrics (burst and queueing delay, throughput, grant rate,
/// SGR, outage, BER violations, hand-downs); every experiment table the
/// paper's evidence needs is a view of these columns.
common::Table to_table(const SweepResult& result);
std::string to_csv(const SweepResult& result);
std::string to_json(const SweepResult& result);

}  // namespace wcdma::sweep
