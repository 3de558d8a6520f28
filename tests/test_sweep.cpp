// Sweep-engine tests: grid expansion, axis application, preset validity,
// seed derivation, and the determinism contract — merged metrics are
// bit-identical for any worker count (0 = inline, 1, N).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/sweep/presets.hpp"
#include "src/sweep/sweep.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma::sweep {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.base = sim::default_config();
  spec.base.layout.rings = 1;
  spec.base.voice.users = 6;
  spec.base.data.users = 3;
  spec.base.sim_duration_s = 4.0;
  spec.base.warmup_s = 1.0;
  spec.base.data.mean_reading_s = 1.0;
  spec.base.seed = 991;
  spec.axes = {axis_scheduler({"jaba-sd", "fcfs"}), axis_data_users({2, 4})};
  spec.replications = 3;
  return spec;
}

TEST(SweepSpec, GridExpansionCounts) {
  SweepSpec spec;
  spec.base = sim::default_config();
  EXPECT_EQ(spec.scenario_count(), 1u);  // no axes -> base config only

  spec.axes = {axis_data_users({4, 8, 12}), axis_voice_users({0, 30}),
               axis_shadowing_sigma_db({6.0, 8.0, 10.0, 12.0})};
  EXPECT_EQ(spec.scenario_count(), 3u * 2u * 4u);
}

TEST(SweepSpec, MixedRadixDecodeIsRowMajor) {
  SweepSpec spec;
  spec.base = sim::default_config();
  spec.axes = {axis_data_users({4, 8, 12}), axis_voice_users({0, 30})};
  // First axis slowest: index = data_index * 2 + voice_index.
  const Scenario s = spec.scenario(5);
  EXPECT_EQ(s.value_indices, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(s.config.data.users, 12);
  EXPECT_EQ(s.config.voice.users, 30);
  EXPECT_EQ(s.labels[0], "12");
  EXPECT_EQ(s.labels[1], "30");
}

TEST(SweepSpec, AxesApplyTheirKnobs) {
  SweepSpec spec;
  spec.base = sim::default_config();
  spec.axes = {axis_scheduler({"equal-share"}),
               axis_objective({admission::ObjectiveKind::kJ1MaxRate}),
               axis_max_speed_kmh({90.0}), axis_fixed_mode({3})};
  const Scenario s = spec.scenario(0);
  EXPECT_EQ(s.config.admission.policy, "equal-share");
  EXPECT_EQ(s.labels[0], "EqualShare");
  EXPECT_EQ(s.config.admission.objective, admission::ObjectiveKind::kJ1MaxRate);
  EXPECT_NEAR(s.config.mobility.max_speed_mps, 25.0, 1e-9);
  EXPECT_EQ(s.config.phy.fixed_mode, 3);
  EXPECT_EQ(s.labels[3], "m3");
}

TEST(SweepSpec, ScenarioAndAblationAxesApply) {
  SweepSpec spec;
  spec.base = sim::default_config();
  spec.base.voice.users = 10;
  spec.base.data.users = 4;
  spec.axes = {axis_load_scale({1.5}), axis_carriers({2}),
               axis_feedback_delay_frames({4}), axis_kappa_margin_db({6.0}),
               axis_scrm_retry_s({1.0}), axis_reduced_set({1})};
  const Scenario s = spec.scenario(0);
  EXPECT_EQ(s.config.voice.users, 15);
  EXPECT_EQ(s.config.data.users, 6);
  EXPECT_EQ(s.config.placement.carriers, 2);
  EXPECT_EQ(s.config.phy.feedback_delay_frames, 4u);
  EXPECT_DOUBLE_EQ(s.config.admission.kappa_margin_db, 6.0);
  EXPECT_DOUBLE_EQ(s.config.admission.scrm_retry_s, 1.0);
  EXPECT_EQ(s.config.active_set.reduced_size, 1u);
  EXPECT_EQ(s.labels[0], "1.5");
  EXPECT_EQ(s.labels[1], "2");
  EXPECT_EQ(s.labels[2], "4f");
  EXPECT_EQ(s.labels[5], "1legs");
}

TEST(SweepSpec, ItemSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (std::size_t rep = 0; rep < 256; ++rep) seeds.insert(item_seed(42, rep));
  EXPECT_EQ(seeds.size(), 256u);  // no collisions over 256 replications
  // Stable across runs and master-seed sensitive.
  EXPECT_EQ(item_seed(42, 1), item_seed(42, 1));
  EXPECT_NE(item_seed(42, 1), item_seed(43, 1));
}

TEST(Presets, AllRegisteredPresetsAreValid) {
  const std::vector<std::string> names = preset_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(has_preset(name));
    const SweepSpec spec = make_preset(name);  // validates internally
    EXPECT_EQ(spec.name, name);
    EXPECT_GE(spec.scenario_count(), 1u);
    EXPECT_GE(spec.replications, 1u);
    EXPECT_FALSE(preset_description(name).empty());
    // Every grid point must expand to a config the simulator accepts.
    for (std::size_t i = 0; i < spec.scenario_count(); ++i) {
      spec.scenario(i).config.validate();
    }
  }
  EXPECT_FALSE(has_preset("no-such-preset"));
}

TEST(RunSweep, MergedMetricsAreThreadCountInvariant) {
  const SweepSpec spec = tiny_spec();
  const SweepResult inline_run = run_sweep(spec, 0);
  const SweepResult serial = run_sweep(spec, 1);
  const SweepResult parallel = run_sweep(spec, 4);

  ASSERT_EQ(inline_run.scenarios.size(), spec.scenario_count());
  for (std::size_t s = 0; s < inline_run.scenarios.size(); ++s) {
    SCOPED_TRACE(s);
    const sim::SimMetrics& a = inline_run.scenarios[s].merged;
    EXPECT_TRUE(metrics_identical(a, serial.scenarios[s].merged));
    EXPECT_TRUE(metrics_identical(a, parallel.scenarios[s].merged));
    EXPECT_EQ(inline_run.scenarios[s].replication_mean_delay_s,
              parallel.scenarios[s].replication_mean_delay_s);
  }
  // The emitted artefacts are byte-identical too.
  EXPECT_EQ(to_csv(inline_run), to_csv(parallel));
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

TEST(RunSweep, CommonRandomNumbersPairScenarios) {
  // Two scenarios whose axis values are behaviourally identical: every
  // sweep pairs replications across scenarios, so they see the same draws
  // and produce identical metrics.
  SweepSpec spec = tiny_spec();
  spec.axes = {Axis{"copy",
                    {{"a", [](sim::SystemConfig&) {}}, {"b", [](sim::SystemConfig&) {}}}}};
  spec.replications = 2;
  const SweepResult paired = run_sweep(spec, 2);
  EXPECT_EQ(paired.scenarios[0].merged.mean_delay_s(),
            paired.scenarios[1].merged.mean_delay_s());
  EXPECT_EQ(paired.scenarios[0].merged.requests_seen,
            paired.scenarios[1].merged.requests_seen);
}

TEST(RunSweep, ProgressCoversEveryItemExactlyOnce) {
  SweepSpec spec = tiny_spec();
  spec.replications = 2;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  const SweepResult result = run_sweep(spec, 2, [&](std::size_t done, std::size_t total) {
    ++calls;
    EXPECT_EQ(total, spec.scenario_count() * spec.replications);
    EXPECT_GT(done, last_done);  // serialised, strictly increasing
    last_done = done;
  });
  EXPECT_EQ(calls, spec.scenario_count() * spec.replications);
  EXPECT_EQ(result.replications, 2u);
}

TEST(RunSweep, ResultLookupByValueIndices) {
  SweepSpec spec = tiny_spec();
  spec.replications = 1;
  const SweepResult result = run_sweep(spec, 0);
  const ScenarioResult& s = result.at({1, 0});
  EXPECT_EQ(s.index, 2u);  // FCFS (index 1) x data_users=2 (index 0)
  EXPECT_EQ(s.labels[0], "FCFS");
  EXPECT_EQ(s.labels[1], "2");
}

TEST(Emission, CsvAndJsonShape) {
  SweepSpec spec = tiny_spec();
  spec.replications = 1;
  const SweepResult result = run_sweep(spec, 0);
  const std::string csv = to_csv(result);
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, spec.scenario_count() + 1);  // header + one line per scenario
  EXPECT_EQ(csv.rfind("scenario,scheduler,data_users,", 0), 0u);

  const std::string json = to_json(result);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"scheduler\": \"JABA-SD\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_delay_s\": "), std::string::npos);
}

/// Splits one CSV line whose cells hold no quotes or commas.
std::vector<std::string> csv_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (std::size_t comma; (comma = line.find(',', start)) != std::string::npos;
       start = comma + 1) {
    cells.push_back(line.substr(start, comma - start));
  }
  cells.push_back(line.substr(start));
  return cells;
}

// The experiment tables read the queueing delay (E10-E12) and the BER
// violation rate (E12a) off the standard table, so those columns must
// print exactly the merged metrics they name.
TEST(Emission, TableCarriesQueueDelayAndBerViolationColumns) {
  SweepSpec spec = tiny_spec();
  spec.replications = 1;
  // Stale feedback on the fixed-rate PHY, so violations are not all zero.
  spec.base.phy.fixed_mode = 3;
  spec.base.phy.feedback_delay_frames = 8;
  const SweepResult result = run_sweep(spec, 0);
  std::istringstream csv(to_csv(result));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  const std::vector<std::string> header = csv_cells(line);
  const auto column = [&header](const std::string& name) {
    return static_cast<std::size_t>(std::find(header.begin(), header.end(), name) -
                                    header.begin());
  };
  const std::size_t queue = column("queue_delay_s");
  const std::size_t max_queue = column("max_queue_delay_s");
  const std::size_t violations = column("ber_violation_rate");
  ASSERT_LT(queue, header.size());
  ASSERT_LT(max_queue, header.size());
  ASSERT_LT(violations, header.size());

  std::int64_t violation_frames = 0;
  for (const ScenarioResult& s : result.scenarios) {
    SCOPED_TRACE(s.index);
    ASSERT_TRUE(std::getline(csv, line));
    const std::vector<std::string> row = csv_cells(line);
    ASSERT_EQ(row.size(), header.size());
    const sim::SimMetrics& m = s.merged;
    ASSERT_GT(m.sch_frames, 0);
    EXPECT_EQ(row[queue], common::format_double(m.queue_delay_s.mean(), 6));
    EXPECT_EQ(row[max_queue], common::format_double(m.queue_delay_s.max(), 6));
    EXPECT_EQ(row[violations],
              common::format_double(static_cast<double>(m.ber_violation_frames) /
                                        static_cast<double>(m.sch_frames),
                                    6));
    violation_frames += m.ber_violation_frames;
  }
  EXPECT_GT(violation_frames, 0);
}

}  // namespace
}  // namespace wcdma::sweep
