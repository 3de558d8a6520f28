// Service-core CLI: drives the message-driven AdmissionService over one
// canonical scenario.  Four jobs, composable in one invocation:
//
//   --record FILE       run internal traffic, re-emit the run as a v1 JSONL
//                       event trace (src/service/trace.hpp)
//   --replay FILE       pump a recorded trace through a fresh service; the
//                       replayed metrics are bit-identical to the recording
//                       run's (pinned by tests/test_service.cpp)
//   --checkpoint FILE   snapshot the full simulator state at --checkpoint-at
//                       and keep running; --resume FILE restores and runs
//                       the remaining frames to the same end state
//   --bench             time the per-frame admission-decision phase and
//                       write decisions/sec + p50/p99 latency JSON for the
//                       tools/check_perf.py regression gate
//
// Metrics print as %.17g (--metrics-out, sim::to_json), so a replayed or
// resumed run can be compared to the original with a plain byte-wise `cmp`
// in CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/admission/policy.hpp"
#include "src/runner/shard_io.hpp"
#include "src/scenario/experiments.hpp"
#include "src/service/service.hpp"
#include "src/sim/channel_state.hpp"
#include "src/sim/simulator.hpp"
#include "tools/cli_parse.hpp"

using namespace wcdma;
using cli::parse_count;
using cli::parse_nonneg_double;
using cli::parse_positive_double;

namespace {

void print_usage() {
  std::printf(
      "usage: service_main [options]\n"
      "  --scenario NAME       hotspot|wide (default: hotspot)\n"
      "  --policy NAME         admission policy (default: scenario's)\n"
      "  --csi-provider NAME   channel-state provider (default: scenario's)\n"
      "  --seed N              master seed (default: 42)\n"
      "  --duration S          sim duration in seconds (default: 8)\n"
      "  --warmup S            warmup in seconds (default: 2)\n"
      "  --voice-users N       override voice population\n"
      "  --data-users N        override data population\n"
      "  --record FILE         write the run as a JSONL event trace\n"
      "  --replay FILE         replay a recorded trace instead of running\n"
      "  --checkpoint FILE     write a snapshot archive at --checkpoint-at\n"
      "  --checkpoint-at K     frame index to snapshot at (default: 0)\n"
      "  --resume FILE         restore a snapshot and run the remaining frames\n"
      "  --metrics-out FILE    write final metrics as %%.17g JSON\n"
      "  --bench               time the admission-decision phase\n"
      "  --bench-out FILE      bench JSON path (default:\n"
      "                        BENCH_decision_latency.json)\n");
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Nearest-rank percentile of an unsorted sample (copies; bench-sized data).
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "hotspot";
  std::string policy, csi_provider;
  std::string record_path, replay_path, checkpoint_path, resume_path;
  std::string metrics_path;
  std::string bench_path = "BENCH_decision_latency.json";
  std::uint64_t seed = 42;
  std::int64_t checkpoint_at = 0;
  int voice_users = 0, data_users = 0;
  bool have_voice = false, have_data = false, want_bench = false;
  double duration_s = 8.0, warmup_s = 2.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "service_main: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto need_count = [&](auto* out) {
      if (!parse_count(next_value(), out)) {
        std::fprintf(stderr, "service_main: bad %s value\n", arg.c_str());
        std::exit(2);
      }
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--scenario") {
      scenario = next_value();
    } else if (arg == "--policy") {
      policy = next_value();
    } else if (arg == "--csi-provider") {
      csi_provider = next_value();
    } else if (arg == "--seed") {
      need_count(&seed);
    } else if (arg == "--duration") {
      if (!parse_positive_double(next_value(), &duration_s)) {
        std::fprintf(stderr, "service_main: bad --duration value\n");
        return 2;
      }
    } else if (arg == "--warmup") {
      if (!parse_nonneg_double(next_value(), &warmup_s)) {
        std::fprintf(stderr, "service_main: bad --warmup value\n");
        return 2;
      }
    } else if (arg == "--voice-users") {
      need_count(&voice_users);
      have_voice = true;
    } else if (arg == "--data-users") {
      need_count(&data_users);
      have_data = true;
    } else if (arg == "--record") {
      record_path = next_value();
    } else if (arg == "--replay") {
      replay_path = next_value();
    } else if (arg == "--checkpoint") {
      checkpoint_path = next_value();
    } else if (arg == "--checkpoint-at") {
      need_count(&checkpoint_at);
    } else if (arg == "--resume") {
      resume_path = next_value();
    } else if (arg == "--metrics-out") {
      metrics_path = next_value();
    } else if (arg == "--bench") {
      want_bench = true;
    } else if (arg == "--bench-out") {
      bench_path = next_value();
    } else {
      std::fprintf(stderr, "service_main: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  sim::SystemConfig cfg;
  if (scenario == "hotspot") {
    cfg = scenario::hotspot_cell_config(seed);
  } else if (scenario == "wide") {
    cfg = scenario::wide_area_config(seed);
  } else {
    std::fprintf(stderr, "service_main: unknown scenario %s (hotspot|wide)\n",
                 scenario.c_str());
    return 2;
  }
  cfg.sim_duration_s = duration_s;
  cfg.warmup_s = warmup_s;
  if (cfg.warmup_s >= cfg.sim_duration_s) {
    std::fprintf(stderr, "service_main: warmup must be shorter than duration\n");
    return 2;
  }
  if (have_voice) cfg.voice.users = voice_users;
  if (have_data) cfg.data.users = data_users;
  if (!policy.empty()) {
    if (!admission::has_policy(policy)) {
      std::fprintf(stderr, "service_main: unknown policy %s\n", policy.c_str());
      return 2;
    }
    cfg.admission.policy = policy;
  }
  if (!csi_provider.empty()) {
    if (!sim::has_channel_provider(csi_provider)) {
      std::fprintf(stderr, "service_main: unknown csi provider %s\n",
                   csi_provider.c_str());
      return 2;
    }
    cfg.csi.provider = csi_provider;
  }
  if (!replay_path.empty() &&
      !(record_path.empty() && resume_path.empty() && checkpoint_path.empty())) {
    std::fprintf(stderr,
                 "service_main: --replay excludes --record/--checkpoint/--resume\n");
    return 2;
  }

  const std::int64_t total_frames = cfg.total_frames();

  sim::SimMetrics final_metrics;

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "service_main: cannot open %s\n", replay_path.c_str());
      return 1;
    }
    const service::ReplayResult result = service::replay_trace(cfg, in);
    if (!result.ok) {
      std::fprintf(stderr, "service_main: replay failed: %s\n",
                   result.error.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "replayed %lld ticks, %lld requests (%lld acks, %lld nacks)\n",
                 static_cast<long long>(result.counters.ticks),
                 static_cast<long long>(result.counters.requests),
                 static_cast<long long>(result.counters.acks),
                 static_cast<long long>(result.counters.nacks));
    final_metrics = result.metrics;
  } else {
    sim::Simulator sim(cfg);
    if (want_bench) sim.enable_decision_timing(true);

    std::int64_t start_frame = 0;
    if (!resume_path.empty()) {
      std::vector<std::uint8_t> bytes;
      if (!runner::read_file(resume_path, &bytes)) {
        std::fprintf(stderr, "service_main: cannot read %s\n", resume_path.c_str());
        return 1;
      }
      if (!sim.restore(bytes)) {
        std::fprintf(stderr,
                     "service_main: snapshot does not match this config\n");
        return 1;
      }
      start_frame = sim.frame_index();
      std::fprintf(stderr, "resumed at frame %lld\n",
                   static_cast<long long>(start_frame));
    }

    std::ofstream trace_out;
    if (!record_path.empty()) {
      trace_out.open(record_path);
      if (!trace_out) {
        std::fprintf(stderr, "service_main: cannot open %s\n", record_path.c_str());
        return 1;
      }
    }
    // The recorder must exist while frames step (its observer hook re-emits
    // arrivals), so both paths run through the same loop with an optional
    // recorder wrapping the simulator.
    {
      std::unique_ptr<service::TraceRecorder> recorder;
      if (!record_path.empty()) {
        recorder = std::make_unique<service::TraceRecorder>(sim, trace_out);
      }
      auto run_span = [&](std::int64_t frames) {
        if (frames <= 0) return;
        if (recorder) {
          recorder->run_frames(frames);
        } else {
          for (std::int64_t f = 0; f < frames; ++f) sim.step_frame();
        }
      };
      if (!checkpoint_path.empty()) {
        if (checkpoint_at < start_frame || checkpoint_at > total_frames) {
          std::fprintf(stderr, "service_main: --checkpoint-at out of range\n");
          return 1;
        }
        run_span(checkpoint_at - start_frame);
        const std::vector<std::uint8_t> snap = sim.snapshot();
        if (!runner::write_file_atomic(checkpoint_path, snap)) {
          std::fprintf(stderr, "service_main: write to %s failed\n",
                       checkpoint_path.c_str());
          return 1;
        }
        std::fprintf(stderr, "checkpoint at frame %lld: %zu bytes\n",
                     static_cast<long long>(checkpoint_at), snap.size());
        start_frame = checkpoint_at;
      }
      run_span(total_frames - start_frame);
    }
    if (!record_path.empty()) {
      trace_out.close();
      if (!trace_out) {
        std::fprintf(stderr, "service_main: write to %s failed\n",
                     record_path.c_str());
        return 1;
      }
    }
    final_metrics = sim.metrics();

    if (want_bench) {
      const std::vector<double>& times = sim.decision_frame_times_s();
      double total_s = 0.0;
      for (double t : times) total_s += t;
      const double decisions = static_cast<double>(sim.decisions_made());
      const double mean_us =
          times.empty() ? 0.0 : 1e6 * total_s / static_cast<double>(times.size());
      std::string out = "{\"bench\":\"decision_latency\",\"v\":1";
      out += ",\"scenario\":\"" + scenario + "\"";
      out += ",\"policy\":\"" + sim.policy_name() + "\"";
      out += ",\"provider\":\"" + sim.channel_provider_name() + "\"";
      out += ",\"seed\":" + std::to_string(cfg.seed);
      out += ",\"frames\":" + std::to_string(times.size());
      out += ",\"decisions\":" + std::to_string(sim.decisions_made());
      out += ",\"decision_time_s\":" + fmt_double(total_s);
      out += ",\"decisions_per_s\":" +
             fmt_double(total_s > 0.0 ? decisions / total_s : 0.0);
      out += ",\"frame_mean_us\":" + fmt_double(mean_us);
      out += ",\"frame_p50_us\":" + fmt_double(1e6 * percentile(times, 0.50));
      out += ",\"frame_p99_us\":" + fmt_double(1e6 * percentile(times, 0.99));
      out += "}\n";
      if (!runner::write_file_atomic(bench_path, {out.begin(), out.end()})) {
        std::fprintf(stderr, "service_main: write to %s failed\n",
                     bench_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "bench: %s decisions/s, p99 %s us -> %s\n",
                   fmt_double(total_s > 0.0 ? decisions / total_s : 0.0).c_str(),
                   fmt_double(1e6 * percentile(times, 0.99)).c_str(),
                   bench_path.c_str());
    }
  }

  const std::string text = sim::to_json(final_metrics);
  if (metrics_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else if (!runner::write_file_atomic(metrics_path, {text.begin(), text.end()})) {
    std::fprintf(stderr, "service_main: write to %s failed\n",
                 metrics_path.c_str());
    return 1;
  }
  return 0;
}
