#include "src/sweep/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "src/admission/policy.hpp"
#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/simulator.hpp"

namespace wcdma::sweep {

namespace {

std::string format_int(int v) { return std::to_string(v); }

}  // namespace

Axis axis_data_users(const std::vector<int>& counts) {
  Axis axis{"data_users", {}};
  for (int n : counts) {
    axis.values.push_back(
        {format_int(n), [n](sim::SystemConfig& cfg) { cfg.data.users = n; }});
  }
  return axis;
}

Axis axis_voice_users(const std::vector<int>& counts) {
  Axis axis{"voice_users", {}};
  for (int n : counts) {
    axis.values.push_back(
        {format_int(n), [n](sim::SystemConfig& cfg) { cfg.voice.users = n; }});
  }
  return axis;
}

Axis axis_max_speed_kmh(const std::vector<double>& kmh) {
  Axis axis{"max_speed_kmh", {}};
  for (double v : kmh) {
    axis.values.push_back({common::format_double(v, 4), [v](sim::SystemConfig& cfg) {
                             cfg.mobility.max_speed_mps = v / 3.6;
                           }});
  }
  return axis;
}

Axis axis_shadowing_sigma_db(const std::vector<double>& sigmas) {
  Axis axis{"shadow_sigma_db", {}};
  for (double v : sigmas) {
    axis.values.push_back({common::format_double(v, 4), [v](sim::SystemConfig& cfg) {
                             cfg.shadowing.sigma_db = v;
                           }});
  }
  return axis;
}

Axis axis_scheduler(const std::vector<std::string>& names) {
  Axis axis{"scheduler", {}};
  for (const std::string& name : names) {
    axis.values.push_back({admission::policy_label(name), [name](sim::SystemConfig& cfg) {
                             cfg.admission.policy = name;
                           }});
  }
  return axis;
}

Axis axis_policy(const std::vector<std::string>& names) {
  Axis axis{"policy", {}};
  for (const std::string& name : names) {
    WCDMA_ASSERT(admission::has_policy(name) && "unknown admission policy in axis");
    axis.values.push_back(
        {name, [name](sim::SystemConfig& cfg) { cfg.admission.policy = name; }});
  }
  return axis;
}

Axis axis_csi_provider(const std::vector<std::string>& names) {
  Axis axis{"csi_provider", {}};
  for (const std::string& name : names) {
    WCDMA_ASSERT(sim::has_channel_provider(name) &&
                 "unknown channel-state provider in axis");
    axis.values.push_back(
        {name, [name](sim::SystemConfig& cfg) { cfg.csi.provider = name; }});
  }
  return axis;
}

Axis axis_objective(const std::vector<admission::ObjectiveKind>& kinds) {
  Axis axis{"objective", {}};
  for (auto kind : kinds) {
    axis.values.push_back({admission::to_string(kind), [kind](sim::SystemConfig& cfg) {
                             cfg.admission.objective = kind;
                           }});
  }
  return axis;
}

Axis axis_fixed_mode(const std::vector<int>& modes) {
  Axis axis{"fixed_mode", {}};
  for (int m : modes) {
    axis.values.push_back({m == 0 ? std::string("adaptive") : "m" + format_int(m),
                           [m](sim::SystemConfig& cfg) { cfg.phy.fixed_mode = m; }});
  }
  return axis;
}

Axis axis_load_scale(const std::vector<double>& scales) {
  Axis axis{"load_scale", {}};
  for (double s : scales) {
    axis.values.push_back({common::format_double(s, 4), [s](sim::SystemConfig& cfg) {
                             cfg.voice.users = static_cast<int>(std::lround(cfg.voice.users * s));
                             cfg.data.users = static_cast<int>(std::lround(cfg.data.users * s));
                           }});
  }
  return axis;
}

Axis axis_carriers(const std::vector<int>& counts) {
  Axis axis{"carriers", {}};
  for (int c : counts) {
    axis.values.push_back(
        {format_int(c), [c](sim::SystemConfig& cfg) { cfg.placement.carriers = c; }});
  }
  return axis;
}

Axis axis_feedback_delay_frames(const std::vector<std::size_t>& frames) {
  Axis axis{"feedback_delay", {}};
  for (std::size_t f : frames) {
    axis.values.push_back({std::to_string(f) + "f", [f](sim::SystemConfig& cfg) {
                             cfg.phy.feedback_delay_frames = f;
                           }});
  }
  return axis;
}

Axis axis_kappa_margin_db(const std::vector<double>& margins) {
  Axis axis{"kappa_db", {}};
  for (double k : margins) {
    axis.values.push_back({common::format_double(k, 4), [k](sim::SystemConfig& cfg) {
                             cfg.admission.kappa_margin_db = k;
                           }});
  }
  return axis;
}

Axis axis_scrm_retry_s(const std::vector<double>& retries) {
  Axis axis{"scrm_retry_s", {}};
  for (double r : retries) {
    axis.values.push_back({common::format_double(r, 4), [r](sim::SystemConfig& cfg) {
                             cfg.admission.scrm_retry_s = r;
                           }});
  }
  return axis;
}

Axis axis_reduced_set(const std::vector<std::size_t>& sizes) {
  Axis axis{"reduced_set", {}};
  for (std::size_t n : sizes) {
    axis.values.push_back({std::to_string(n) + "legs", [n](sim::SystemConfig& cfg) {
                             cfg.active_set.reduced_size = n;
                           }});
  }
  return axis;
}

Axis axis_sim_threads(const std::vector<int>& counts) {
  Axis axis{"sim_threads", {}};
  for (int n : counts) {
    axis.values.push_back(
        {format_int(n), [n](sim::SystemConfig& cfg) { cfg.sim_threads = n; }});
  }
  return axis;
}

Axis axis_load_ramp_peak(const std::vector<double>& peaks) {
  Axis axis{"ramp_peak", {}};
  for (double p : peaks) {
    axis.values.push_back({common::format_double(p, 4), [p](sim::SystemConfig& cfg) {
                             cfg.load_ramp.peak_scale = p;
                           }});
  }
  return axis;
}

std::size_t SweepSpec::scenario_count() const {
  std::size_t count = 1;
  for (const Axis& axis : axes) {
    WCDMA_ASSERT(!axis.values.empty());
    WCDMA_ASSERT(count <= SIZE_MAX / axis.values.size() && "scenario grid overflows");
    count *= axis.values.size();
  }
  return count;
}

Scenario SweepSpec::scenario(std::size_t index) const {
  WCDMA_ASSERT(index < scenario_count());
  Scenario scenario;
  scenario.index = index;
  scenario.config = base;
  scenario.value_indices.resize(axes.size());
  // Row-major decode: the first axis varies slowest.
  std::size_t rest = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    scenario.value_indices[a] = rest % axes[a].values.size();
    rest /= axes[a].values.size();
  }
  scenario.labels.reserve(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const AxisValue& value = axes[a].values[scenario.value_indices[a]];
    value.apply(scenario.config);
    scenario.labels.push_back(value.label);
  }
  return scenario;
}

const SweepSpec& SweepSpec::validate() const {
  WCDMA_ASSERT(replications >= 1);
  for (const Axis& axis : axes) {
    WCDMA_ASSERT(!axis.name.empty());
    WCDMA_ASSERT(!axis.values.empty());
  }
  scenario_count();  // asserts the grid product does not overflow size_t
  return *this;
}

std::uint64_t item_seed(std::uint64_t master_seed, std::size_t replication_index) {
  // Two mixing rounds, the first over a fixed offset, then the replication.
  // Collisions between distinct replications are birthday-improbable, not
  // impossible.
  common::SplitMix64 first_round(master_seed + 0x9e3779b97f4a7c15ULL);
  common::SplitMix64 item_stream(first_round.next() +
                                 0xbf58476d1ce4e5b9ULL * (replication_index + 1));
  return item_stream.next();
}

const ScenarioResult& SweepResult::at(const std::vector<std::size_t>& value_indices) const {
  for (const ScenarioResult& s : scenarios) {
    if (s.value_indices == value_indices) return s;
  }
  WCDMA_ASSERT(false && "no scenario with the requested value indices");
  return scenarios.front();  // unreachable
}

std::size_t item_count(const SweepSpec& spec) {
  const std::size_t scenarios = spec.scenario_count();
  WCDMA_ASSERT(spec.replications <= SIZE_MAX / scenarios &&
               "scenario x replication grid overflows");
  return scenarios * spec.replications;
}

sim::SystemConfig item_config(const SweepSpec& spec, std::size_t item) {
  WCDMA_ASSERT(item < item_count(spec));
  const std::size_t scenario_index = item / spec.replications;
  const std::size_t replication = item % spec.replications;
  Scenario scenario = spec.scenario(scenario_index);
  scenario.config.seed = item_seed(spec.base.seed, replication);
  return scenario.config;
}

SweepResult run_sweep(const SweepSpec& spec, std::size_t threads,
                      const ProgressFn& progress) {
  spec.validate();
  const std::size_t total = item_count(spec);

  // One slot per (scenario, replication) work item; workers never share a
  // slot, and the deterministic merge below runs after the barrier.
  std::vector<sim::SimMetrics> per_item(total);
  std::mutex progress_mutex;
  std::size_t done = 0;
  // The calling thread claims items too, so the pool holds one worker
  // fewer than `threads` (0 and 1 both run inline).
  common::ThreadPool pool(threads > 1 ? std::min(threads, total) - 1 : 0);
  pool.parallel_for(total, [&](std::size_t item) {
    sim::Simulator simulator(item_config(spec, item));
    per_item[item] = simulator.run();
    if (progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++done, total);
    }
  });

  return merge_item_metrics(spec, per_item);
}

SweepResult merge_item_metrics(const SweepSpec& spec,
                               const std::vector<sim::SimMetrics>& per_item) {
  spec.validate();
  const std::size_t scenarios = spec.scenario_count();
  const std::size_t reps = spec.replications;
  WCDMA_ASSERT(per_item.size() == item_count(spec) &&
               "one metrics slot per (scenario, replication) item");

  SweepResult result;
  result.name = spec.name;
  result.replications = reps;
  for (const Axis& axis : spec.axes) result.axis_names.push_back(axis.name);
  result.scenarios.resize(scenarios);
  for (std::size_t s = 0; s < scenarios; ++s) {
    const Scenario scenario = spec.scenario(s);
    ScenarioResult& out = result.scenarios[s];
    out.index = s;
    out.value_indices = scenario.value_indices;
    out.labels = scenario.labels;
    out.replication_mean_delay_s.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const sim::SimMetrics& m = per_item[s * reps + r];
      out.merged.merge(m);
      out.replication_mean_delay_s.push_back(m.mean_delay_s());
    }
  }
  return result;
}

common::Table to_table(const SweepResult& result) {
  std::vector<std::string> headers = {"scenario"};
  headers.insert(headers.end(), result.axis_names.begin(), result.axis_names.end());
  for (const char* metric :
       {"mean_delay_s", "p95_delay_s", "queue_delay_s", "max_queue_delay_s",
        "throughput_kbps", "grant_rate", "mean_sgr", "sch_outage_rate",
        "ber_violation_rate", "hand_downs"}) {
    headers.push_back(metric);
  }
  common::Table table(std::move(headers));
  for (const ScenarioResult& s : result.scenarios) {
    std::vector<std::string> row = {std::to_string(s.index)};
    row.insert(row.end(), s.labels.begin(), s.labels.end());
    const sim::SimMetrics& m = s.merged;
    for (double v : {m.mean_delay_s(), m.p95_delay_s(), m.queue_delay_s.mean(),
                     m.queue_delay_s.max(), m.data_throughput_bps() / 1000.0,
                     m.grant_rate(), m.granted_sgr.mean(), m.sch_outage_rate(),
                     m.ber_violation_rate()}) {
      row.push_back(common::format_double(v, 6));
    }
    row.push_back(std::to_string(m.carrier_hand_downs));
    table.add_row(std::move(row));
  }
  return table;
}

std::string to_csv(const SweepResult& result) { return to_table(result).render_csv(); }

std::string to_json(const SweepResult& result) { return to_table(result).render_json(); }

}  // namespace wcdma::sweep
