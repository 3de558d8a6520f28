// Scenario-sweep CLI: expands a named preset into its scenario grid, runs
// (scenario x replication) work items in parallel, and emits the merged
// metrics as CSV (default), JSON, or an aligned table.  Output is
// bit-identical for any --threads value, so sweeps are safely parallel.
//
// --workers N switches from the in-process thread pool to the
// fault-tolerant multi-process supervisor (src/runner/): N forked worker
// processes each run one shard of the grid, checkpoint their progress, and
// are retried (resuming from the checkpoint) on crashes and timeouts.  The
// merged output stays byte-identical to the in-process run for any worker
// count.  --fault injects one deliberate worker failure for testing the
// recovery paths end to end.
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/admission/policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/runner/supervisor.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sweep/presets.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

namespace {

void print_usage() {
  std::printf(
      "usage: sweep_main [options]\n"
      "  --preset NAME         sweep preset to run (default: smoke)\n"
      "  --list-presets        list registered presets and exit\n"
      "  --policy NAME         force an admission policy on the preset base\n"
      "  --list-policies       list registered admission policies and exit\n"
      "  --csi-provider NAME   force a channel-state provider (exhaustive|culled)\n"
      "  --list-csi-providers  list registered channel-state providers and exit\n"
      "  --replications N      override the preset's replication count\n"
      "  --threads N           sweep worker threads (0 = inline; default: hardware)\n"
      "  --sim-threads N       intra-frame threads per simulator (0 = hardware;\n"
      "                        default: preset base, usually 1).  Metrics are\n"
      "                        bit-identical for every value\n"
      "  --seed N              override the master seed\n"
      "  --duration S          override per-scenario sim duration (seconds)\n"
      "  --warmup S            override per-scenario warmup (seconds)\n"
      "  --format csv|json|table   output format (default: csv)\n"
      "  --output FILE         write results to FILE instead of stdout\n"
      "  --progress            report per-item progress on stderr\n"
      "  --workers N           run N supervised worker processes instead of\n"
      "                        in-process threads; output is byte-identical\n"
      "                        either way.  Crashed/stalled workers are\n"
      "                        retried, resuming from their checkpoints\n"
      "  --runner-dir DIR      shard work files for --workers (default: a\n"
      "                        fresh temp dir, removed on success)\n"
      "  --timeout S           per-worker-attempt wall-clock budget (0 = none)\n"
      "  --max-retries N       retries per shard beyond the first attempt\n"
      "                        (default: 2)\n"
      "  --backoff S           base retry delay; doubles per retry, no jitter\n"
      "                        (default: 0.05)\n"
      "  --checkpoint-every N  frames between worker checkpoints (default:\n"
      "                        256; 0 disables checkpointing)\n"
      "  --fault SPEC          inject one worker fault (testing), e.g.\n"
      "                        kill:shard=1,frame=50  stall:shard=0,frame=10\n"
      "                        corrupt-checkpoint:shard=0,mode=bitflip\n"
      "                        drop-result:shard=2\n"
      "  --strict-checkpoint   corrupt checkpoint = hard error instead of\n"
      "                        discard-and-restart\n");
}

bool parse_size(const char* text, std::size_t* out) {
  // strtoull silently wraps negative input ("-1" -> 2^64-1); reject it.
  if (text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_positive_double(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  if (!std::isfinite(v) || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "smoke";
  std::string format = "csv";
  std::string output_path;
  std::string policy;
  std::string csi_provider;
  std::size_t threads = common::default_thread_count();
  bool want_progress = false;
  bool have_replications = false, have_seed = false, have_duration = false;
  bool have_warmup = false, have_sim_threads = false;
  std::size_t sim_threads = 0;
  std::size_t replications = 0, seed = 0;
  double duration_s = 0.0, warmup_s = 0.0;

  // Multi-process supervision (--workers) and its knobs.
  std::size_t workers = 0;  // 0 = in-process thread pool
  std::string runner_dir;
  double timeout_s = 0.0;
  std::size_t max_retries = 2;
  double backoff_s = 0.05;
  std::size_t checkpoint_every = 256;
  std::string fault_spec;
  bool strict_checkpoint = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sweep_main: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--list-presets") {
      for (const std::string& name : sweep::preset_names()) {
        const sweep::SweepSpec spec = sweep::make_preset(name);
        std::printf("%-18s %zu scenarios x %zu reps  %s\n", name.c_str(),
                    spec.scenario_count(), spec.replications,
                    sweep::preset_description(name).c_str());
      }
      return 0;
    } else if (arg == "--list-policies") {
      for (const std::string& name : admission::policy_names()) {
        std::printf("%-16s %s\n", name.c_str(),
                    admission::policy_description(name).c_str());
      }
      return 0;
    } else if (arg == "--list-csi-providers") {
      for (const std::string& name : sim::channel_provider_names()) {
        std::printf("%-12s %s\n", name.c_str(),
                    sim::channel_provider_description(name).c_str());
      }
      return 0;
    } else if (arg == "--preset") {
      preset = next_value();
    } else if (arg == "--policy") {
      policy = next_value();
    } else if (arg == "--csi-provider") {
      csi_provider = next_value();
    } else if (arg == "--format") {
      format = next_value();
    } else if (arg == "--output") {
      output_path = next_value();
    } else if (arg == "--replications") {
      have_replications = parse_size(next_value(), &replications);
      if (!have_replications || replications == 0) {
        std::fprintf(stderr, "sweep_main: bad --replications value\n");
        return 2;
      }
    } else if (arg == "--threads") {
      if (!parse_size(next_value(), &threads)) {
        std::fprintf(stderr, "sweep_main: bad --threads value\n");
        return 2;
      }
    } else if (arg == "--sim-threads") {
      have_sim_threads = parse_size(next_value(), &sim_threads);
      if (!have_sim_threads) {
        std::fprintf(stderr, "sweep_main: bad --sim-threads value\n");
        return 2;
      }
    } else if (arg == "--seed") {
      have_seed = parse_size(next_value(), &seed);
      if (!have_seed) {
        std::fprintf(stderr, "sweep_main: bad --seed value\n");
        return 2;
      }
    } else if (arg == "--duration") {
      have_duration = parse_positive_double(next_value(), &duration_s);
      if (!have_duration) {
        std::fprintf(stderr, "sweep_main: bad --duration value\n");
        return 2;
      }
    } else if (arg == "--warmup") {
      const char* text = next_value();
      char* end = nullptr;
      warmup_s = std::strtod(text, &end);
      have_warmup = end != text && *end == '\0' && std::isfinite(warmup_s) && warmup_s >= 0.0;
      if (!have_warmup) {
        std::fprintf(stderr, "sweep_main: bad --warmup value\n");
        return 2;
      }
    } else if (arg == "--progress") {
      want_progress = true;
    } else if (arg == "--workers") {
      if (!parse_size(next_value(), &workers) || workers == 0) {
        std::fprintf(stderr, "sweep_main: bad --workers value (need >= 1)\n");
        return 2;
      }
    } else if (arg == "--runner-dir") {
      runner_dir = next_value();
    } else if (arg == "--timeout") {
      if (!parse_positive_double(next_value(), &timeout_s)) {
        std::fprintf(stderr, "sweep_main: bad --timeout value\n");
        return 2;
      }
    } else if (arg == "--max-retries") {
      if (!parse_size(next_value(), &max_retries)) {
        std::fprintf(stderr, "sweep_main: bad --max-retries value\n");
        return 2;
      }
    } else if (arg == "--backoff") {
      if (!parse_positive_double(next_value(), &backoff_s)) {
        std::fprintf(stderr, "sweep_main: bad --backoff value\n");
        return 2;
      }
    } else if (arg == "--checkpoint-every") {
      if (!parse_size(next_value(), &checkpoint_every)) {
        std::fprintf(stderr, "sweep_main: bad --checkpoint-every value\n");
        return 2;
      }
    } else if (arg == "--fault") {
      fault_spec = next_value();
    } else if (arg == "--strict-checkpoint") {
      strict_checkpoint = true;
    } else {
      std::fprintf(stderr, "sweep_main: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (format != "csv" && format != "json" && format != "table") {
    std::fprintf(stderr, "sweep_main: unknown format %s\n", format.c_str());
    return 2;
  }
  if (!sweep::has_preset(preset)) {
    std::fprintf(stderr, "sweep_main: unknown preset %s (try --list-presets)\n",
                 preset.c_str());
    return 2;
  }
  if (!policy.empty() && !admission::has_policy(policy)) {
    std::fprintf(stderr, "sweep_main: unknown policy %s (available:", policy.c_str());
    for (const std::string& name : admission::policy_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (!csi_provider.empty() && !sim::has_channel_provider(csi_provider)) {
    std::fprintf(stderr, "sweep_main: unknown csi provider %s (available:",
                 csi_provider.c_str());
    for (const std::string& name : sim::channel_provider_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  sweep::SweepSpec spec = sweep::make_preset(preset);
  // A forced policy must win over the preset's own axes, which apply on top
  // of the base config: collapse any scheduler/policy axis to the single
  // forced value (the axis column survives with one value, so the output
  // stays truthful).  Likewise for a forced channel-state provider.
  if (!policy.empty()) {
    spec.base.admission.policy = policy;
    for (sweep::Axis& axis : spec.axes) {
      if (axis.name == "policy" || axis.name == "scheduler") {
        axis = sweep::axis_policy({policy});
      }
    }
  }
  if (!csi_provider.empty()) {
    spec.base.csi.provider = csi_provider;
    for (sweep::Axis& axis : spec.axes) {
      if (axis.name == "csi_provider") {
        axis = sweep::axis_csi_provider({csi_provider});
      }
    }
  }
  if (have_replications) spec.replications = replications;
  if (have_sim_threads) {
    spec.base.sim_threads = static_cast<int>(sim_threads);
    for (sweep::Axis& axis : spec.axes) {
      if (axis.name == "sim_threads") {
        axis = sweep::axis_sim_threads({static_cast<int>(sim_threads)});
      }
    }
  }
  if (have_seed) spec.base.seed = seed;
  if (have_duration) spec.base.sim_duration_s = duration_s;
  if (have_warmup) spec.base.warmup_s = warmup_s;
  if (spec.base.warmup_s >= spec.base.sim_duration_s) {
    std::fprintf(stderr, "sweep_main: warmup must be shorter than the duration\n");
    return 2;
  }

  runner::FaultPlan fault;
  if (!fault_spec.empty()) {
    std::string why;
    if (!runner::FaultPlan::parse(fault_spec, &fault, &why)) {
      std::fprintf(stderr, "sweep_main: bad --fault spec: %s\n", why.c_str());
      return 2;
    }
  }

  sweep::ProgressFn progress;
  if (want_progress) {
    progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\rsweep: %zu/%zu items", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }

  sweep::SweepResult supervised_result;
  if (workers > 0) {
    runner::SupervisorOptions options;
    options.workers = workers;
    options.timeout_s = timeout_s;
    options.max_retries = static_cast<int>(max_retries);
    options.backoff_base_s = backoff_s;
    options.checkpoint_every_frames = static_cast<std::int64_t>(checkpoint_every);
    options.fault = fault;
    options.strict_checkpoint = strict_checkpoint;
    options.progress = progress;

    bool made_temp_dir = false;
    if (runner_dir.empty()) {
      char tmpl[] = "/tmp/wcdma-runner-XXXXXX";
      if (!mkdtemp(tmpl)) {
        std::fprintf(stderr, "sweep_main: cannot create a runner temp dir\n");
        return 1;
      }
      runner_dir = tmpl;
      made_temp_dir = true;
    } else if (mkdir(runner_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "sweep_main: cannot create runner dir %s\n",
                   runner_dir.c_str());
      return 1;
    }
    options.work_dir = runner_dir;

    const runner::SupervisorResult sup = runner::run_supervised_sweep(spec, options);
    if (!sup.ok) {
      std::fprintf(stderr, "sweep_main: %s\n", sup.error.c_str());
      // The work dir is kept for post-mortem when the run fails.
      return 1;
    }
    if (made_temp_dir) rmdir(runner_dir.c_str());
    supervised_result = sup.result;
  }

  const sweep::SweepResult result =
      workers > 0 ? supervised_result
                  : sweep::run_sweep(spec, threads, progress);

  std::string text;
  if (format == "csv") {
    text = sweep::to_csv(result);
  } else if (format == "json") {
    text = sweep::to_json(result);
  } else {
    text = sweep::to_table(result).render(
        "sweep " + result.name + ": " + std::to_string(result.scenarios.size()) +
        " scenarios x " + std::to_string(result.replications) + " reps");
  }

  if (output_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    std::FILE* f = std::fopen(output_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "sweep_main: cannot open %s\n", output_path.c_str());
      return 1;
    }
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    // fclose flushes; a full disk can surface only here, and a truncated
    // results file must not exit 0.
    if (std::fclose(f) != 0 || written != text.size()) {
      std::fprintf(stderr, "sweep_main: write to %s failed\n", output_path.c_str());
      return 1;
    }
  }
  return 0;
}
