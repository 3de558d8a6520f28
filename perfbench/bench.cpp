// Benchmark program for the burst-admission simulator.
//
// Runs one workload against the `wcdma` library and writes what it
// measured: a JSON file of raw measurements and, for a traced run, a TSV
// file of spans.  perfbench/run.py builds this binary, runs it, and turns
// the raw measurements into the benchmark's metrics (perfbench/README.md).
//
// Every layer is measured from outside, by timing calls into public
// functions: Simulator construction, step_frame(), queued_requests(),
// csi_candidate_epoch(), snapshot(), restore(), check_invariants(),
// run_supervised_sweep(), encode_shard_checkpoint() and
// write_file_atomic().  The one number taken from inside is the admission
// phase's duration, from the simulator's own decision timer, which only
// the traced run switches on.
//
// --seed is the world's seed (the sweep's master seed in e4-sweep);
// run.py picks it from the benchmark's workload seed.
//
//   perfbench --workload hotspot-contend --seed 20202 --seconds 40
//             --trace 0 --out raw.json [--spans spans.tsv] [--work-dir DIR]
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/serialize.hpp"
#include "src/runner/shard_io.hpp"
#include "src/runner/supervisor.hpp"
#include "src/scenario/experiments.hpp"
#include "src/scenario/scenario.hpp"
#include "src/sim/simulator.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ------------------------------------------------------------------ spans

/// One timed call.  `parent` indexes the span list (-1 for a root); the
/// frame index is the id shared by every span of one frame (-1 outside the
/// frame loop).  `value` is a count recorded at the same boundary: the
/// queue depth, the candidate epoch, the requests an admission phase
/// decided, or the bytes a call produced.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::int64_t frame;
  std::int64_t value;
};

/// Keeps spans in memory while the benchmark runs; write() saves them at
/// exit.  Disabled, it records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void reserve(std::size_t n) {
    if (on_) spans_.reserve(spans_.size() + n);
  }
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::int64_t frame, std::int64_t value = 0) {
    if (!on_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, frame, value});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Sets the end of a span opened before its children were recorded.
  void close(std::int64_t id, std::int64_t end_ns) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }
  void clear() { spans_.clear(); }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tframe\tvalue\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\t%" PRId64 "\n",
                   i, s.name, s.start_ns, s.end_ns, s.parent, s.frame, s.value);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- raw output

/// A flat JSON object of numbers, strings and arrays of either.
class JsonOut {
 public:
  void num(const char* key, double v) { field(key) += fmt(v); }
  void integer(const char* key, std::int64_t v) { field(key) += std::to_string(v); }
  void str(const char* key, const std::string& v) { field(key) += quote(v); }
  void nums(const char* key, const std::vector<double>& v) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + fmt(v[i]);
    out += ']';
  }
  void strs(const char* key, const std::vector<std::string>& v) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + quote(v[i]);
    out += ']';
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string text = "{" + body_ + "}\n";
    const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && wrote;
  }

 private:
  std::string& field(const char* key) {
    if (!body_.empty()) body_ += ",\n";
    body_ += quote(key) + ": ";
    return body_;
  }
  static std::string fmt(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
  }
  std::string body_;
};

// ------------------------------------------------------------ host probes

struct Usage {
  double cpu_s;        // user + system
  double max_rss_kb;   // peak resident set (largest child for RUSAGE_CHILDREN)
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), static_cast<double>(ru.ru_maxrss)};
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Pins the calling thread to one CPU at a time, taking the CPUs it was
/// allowed at construction in turn, and restores that set on unpin().  On a
/// shared host one core can stay slow for a minute while another is fast;
/// passes that take the cores in turn sample them all.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void unpin() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Cores the host actually delivers: `threads` busy threads spin for
/// `seconds`, and the CPU time they were given is divided by the wall time.
/// On an idle host this reads close to `threads`; contention lowers it.
double spin_cores(unsigned threads, double seconds) {
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> pool;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t, deadline] {
      const double cpu0 = thread_cpu_s();
      volatile double x = 1.0;
      while (Clock::now() < deadline) {
        for (int k = 0; k < 2000; ++k) x = x * 1.0000001 + 1e-9;
      }
      cpu[t] = thread_cpu_s() - cpu0;
    });
  }
  for (std::thread& th : pool) th.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  double total = 0.0;
  for (double c : cpu) total += c;
  return wall > 0.0 ? total / wall : 0.0;
}

// ---------------------------------------------------------------- digests

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Digest of a world's SimMetrics: the headline counters in the clear, so
/// two commits can be compared by eye, plus a hash of the full checkpoint
/// encoding, which covers every accumulator bit for bit.
std::string metrics_digest(const sim::SimMetrics& m) {
  common::BinaryWriter w;
  m.save(w);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests=%" PRId64 " grants=%" PRId64 " reject_rounds=%" PRId64
                " delay_n=%zu delay_mean=%.17g delay_var=%.17g save=%s",
                m.requests_seen, m.grants, m.reject_rounds, m.burst_delay_s.count(),
                m.burst_delay_s.mean(), m.burst_delay_s.variance(),
                hex64(fnv1a(w.bytes().data(), w.bytes().size())).c_str());
  return buf;
}

// -------------------------------------------------------------- workloads

/// A world stepped back to back by one loop: frames before `first_frame`
/// are warm-up, and the next `frames` are timed.
struct World {
  sim::SystemConfig config;
  std::int64_t first_frame = 0;
  std::int64_t frames = 0;
};

/// The paper's contended regime on the bit-exact reference path: the
/// hotspot-center layout with its data population raised 4x, so the queue
/// holds dozens of pending requests.  Timing starts after its warm-up.
World hotspot_contend(std::uint64_t seed) {
  scenario::ScenarioLayout layout = scenario::hotspot_center();
  layout.data_users *= 4;
  World w;
  w.config = layout.to_config();
  w.config.csi.provider = "exhaustive";
  w.config.admission.policy = "jaba-sd";
  w.config.sim_threads = 1;
  w.config.sim_duration_s = 3600.0;  // stepped frame by frame, never run()
  w.config.seed = seed;
  w.first_frame = std::llround(w.config.warmup_s / w.config.frame_s);
  w.frames = 3000;
  return w;
}

constexpr std::size_t kSweepWorkers = 2;

/// The paper's E4 experiment with the run's seed as its master seed.
sweep::SweepSpec e4_spec(std::uint64_t seed) {
  sweep::SweepSpec spec = scenario::e4_delay_fl();
  spec.base.seed = seed;
  spec.base.sim_threads = 1;
  return spec;
}

/// The sweep's heaviest JABA-SD item (the first scheduler and replication
/// at the largest data-user count), stepped in this process so that its
/// frames can be timed one by one.  A pass over it is short, so a run makes
/// many.
World e4_world(const sweep::SweepSpec& spec) {
  const std::size_t schedulers = spec.axes[1].values.size();
  World w;
  w.config = sweep::item_config(
      spec, (spec.axes[0].values.size() - 1) * schedulers * spec.replications);
  w.first_frame = std::llround(w.config.warmup_s / w.config.frame_s);
  w.frames = sim::Simulator(w.config).total_frames() - w.first_frame;
  return w;
}

// ------------------------------------------------------------ measurement

/// What one invocation hands back besides the spans: raw measurements, the
/// number of output checks it made, and the ones that failed.
struct Report {
  JsonOut json;
  std::int64_t attempted = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// True when the next of `n` events spread evenly over `seconds` is due:
/// event i (from 0) once i/n of them have gone by.
bool due(std::size_t done, std::size_t n, double elapsed_s, int seconds) {
  return done < n && elapsed_s >= static_cast<double>(done * static_cast<std::size_t>(seconds)) /
                                      static_cast<double>(n);
}

/// Constructs `config` at least kSetupMinReps times and until
/// kSetupMinSeconds have passed, at most kSetupMaxReps times, and returns
/// the seconds of the fastest construction.  An untraced run takes
/// kSetupWindows such windows between passes, spread over its --seconds,
/// and one after the last pass; the median of the windows is setup_s.
constexpr std::size_t kSetupWindows = 8;
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 2000;
constexpr double kSetupMinSeconds = 0.2;

double time_setup(const sim::SystemConfig& config) {
  double spent_s = 0.0;
  double fastest_s = 0.0;
  for (int r = 0; r < kSetupMaxReps && (r < kSetupMinReps || spent_s < kSetupMinSeconds); ++r) {
    const std::int64_t t0 = now_ns();
    { const sim::Simulator sim(config); }
    const double s = ns_to_s(now_ns() - t0);
    fastest_s = r == 0 ? s : std::min(fastest_s, s);
    spent_s += s;
  }
  return fastest_s;
}

/// A run makes at least kMinPasses passes.  After that it starts another
/// only if, at the pace of the one before, it ends within the run's
/// --seconds.
constexpr int kMinPasses = 3;

/// The frame times of a run's passes, laid end to end, and the grants of
/// one pass (every pass steps the same frames).
struct Pass {
  std::vector<double> frame_ms;
  std::int64_t grants = 0;
};

/// Times snapshot() of `sim` and restore() onto a fresh world of the same
/// config, and checks that the restored world snapshots to the same bytes.
void snapshot_round_trip(const sim::Simulator& sim, std::int64_t frame, Tracer& tracer,
                         Report& report) {
  std::int64_t t0 = now_ns();
  const std::vector<std::uint8_t> bytes = sim.snapshot();
  std::int64_t t1 = now_ns();
  tracer.add("snapshot", t0, t1, -1, frame, static_cast<std::int64_t>(bytes.size()));

  sim::Simulator restored(sim.config());
  const std::int64_t t2 = now_ns();
  const bool ok = restored.restore(bytes);
  const std::int64_t t3 = now_ns();
  tracer.add("restore", t2, t3, -1, frame, ok ? 1 : 0);
  report.check(ok, "restore() refused its own snapshot");
  report.check(ok && restored.snapshot() == bytes, "restored world snapshots differently");
  std::string why;
  report.check(restored.check_invariants(&why), "check_invariants after restore: " + why);
}

/// Constructs the world, steps the warm-up, then times `world.frames`
/// frames back to back and checks the invariants.  Returns the digest of
/// the world's SimMetrics.  A frame's host time runs from the start of its
/// step_frame() call to the start of the next one, so in a traced pass it
/// includes the tracing.  With the tracer on, the construction is a span,
/// the decision timer is switched on, every frame records its step_frame
/// span, the admission span nested in it and the two probe calls with the
/// values they returned, and the pass ends in the snapshot round trip.
std::string run_pass(const World& world, Tracer& tracer, Report& report, Pass& pass) {
  const std::int64_t built = now_ns();
  sim::Simulator sim(world.config);
  tracer.add("construct", built, now_ns(), -1, -1);
  while (sim.frame_index() < world.first_frame) sim.step_frame();
  tracer.reserve(static_cast<std::size_t>(world.frames) * 4 + 1);
  sim.enable_decision_timing(tracer.on());

  const std::size_t offset = pass.frame_ms.size();
  pass.frame_ms.resize(offset + static_cast<std::size_t>(world.frames));
  const std::int64_t grants0 = sim.metrics().grants;
  std::int64_t decided0 = sim.decisions_made();
  if (tracer.on()) {
    // The epoch before the window, so its first frame can count as moved.
    const std::int64_t t0 = now_ns();
    const std::uint64_t epoch = sim.csi_candidate_epoch();
    tracer.add("csi_candidate_epoch", t0, now_ns(), -1, sim.frame_index() - 1,
               static_cast<std::int64_t>(epoch));
  }
  std::int64_t t0 = now_ns();
  for (std::int64_t f = 0; f < world.frames; ++f) {
    sim.step_frame();
    const std::int64_t t1 = now_ns();
    std::int64_t next = t1;
    if (tracer.on()) {
      const std::int64_t frame = sim.frame_index() - 1;
      const std::int64_t span = tracer.add("step_frame", t0, t1, -1, frame);
      // The decision timer gives a duration, not timestamps: the admission
      // span is placed at the end of its frame's interval.
      const std::int64_t admission_ns = std::min<std::int64_t>(
          t1 - t0, std::llround(sim.decision_frame_times_s().back() * 1e9));
      const std::int64_t decided = sim.decisions_made();
      tracer.add("admission", t1 - admission_ns, t1, span, frame, decided - decided0);
      decided0 = decided;
      const std::int64_t t2 = now_ns();
      const int depth = sim.queued_requests();
      const std::int64_t t3 = now_ns();
      const std::uint64_t epoch = sim.csi_candidate_epoch();
      const std::int64_t t4 = now_ns();
      tracer.add("queued_requests", t2, t3, -1, frame, depth);
      tracer.add("csi_candidate_epoch", t3, t4, -1, frame, static_cast<std::int64_t>(epoch));
      next = now_ns();
    }
    pass.frame_ms[offset + static_cast<std::size_t>(f)] = static_cast<double>(next - t0) * 1e-6;
    t0 = next;
  }
  sim.enable_decision_timing(false);
  pass.grants = sim.metrics().grants - grants0;

  std::string why;
  const std::int64_t check_start = now_ns();
  const bool ok = sim.check_invariants(&why);
  tracer.add("check_invariants", check_start, now_ns(), -1, sim.frame_index(), ok ? 1 : 0);
  report.check(ok, "check_invariants: " + why);
  if (tracer.on()) snapshot_round_trip(sim, sim.frame_index(), tracer, report);
  return metrics_digest(sim.metrics());
}

void write_pass(Report& report, const std::string& prefix, int passes, const Pass& pass) {
  report.json.integer((prefix + ".passes").c_str(), passes);
  report.json.nums((prefix + ".frame_ms").c_str(), pass.frame_ms);
  report.json.integer((prefix + ".grants").c_str(), pass.grants);
}

/// hotspot-contend, and the in-process world of e4-sweep.
/// Every pass steps identical frames of a fresh world, so every pass must
/// reach the first one's digest.  The frame times of the passes are
/// written end to end; run.py times each frame by its fastest pass.
///
/// Untraced: passes for `seconds` (see kMinPasses), each after a call to
/// `before_pass` with the seconds gone by, and set-up windows of the world
/// between them (see kSetupWindows).  Each pass, with the set-up window
/// before it, runs pinned to the next CPU (see CpuRotation); the hook runs
/// unpinned, so that a sweep's workers get every CPU.
///
/// Traced: pairs of an untraced and a traced pass instead, and no set-up
/// windows; run.py compares the two kinds of pass for the tracing
/// overhead.  Every traced pass ends in the snapshot round trip, and only
/// the last traced pass's spans are kept.
void steady(const World& world, int seconds, const std::function<void(double)>& before_pass,
            Tracer& tracer, Report& report) {
  const sim::SystemConfig& cfg = world.config;
  report.json.integer("user_frames",
                      static_cast<std::int64_t>(cfg.voice.users + cfg.data.users) * world.frames);
  report.json.num("frame_s", cfg.frame_s);

  Tracer off(false);
  std::vector<double> setup_s;
  Pass plain, traced;
  std::string digest;
  const auto same_digest = [&](const std::string& d) {
    if (digest.empty()) digest = d;
    report.check(d == digest, "two passes of one run diverged: " + d + " vs " + digest);
  };
  CpuRotation cpus;
  const std::int64_t begin = now_ns();
  double last_s = 0.0;
  int made = 0;
  for (; made < kMinPasses || ns_to_s(now_ns() - begin) + last_s <= seconds; ++made) {
    const double elapsed_s = ns_to_s(now_ns() - begin);
    before_pass(elapsed_s);
    const std::int64_t start = now_ns();
    cpus.pin_next();
    if (!tracer.on() && due(setup_s.size(), kSetupWindows, elapsed_s, seconds)) {
      setup_s.push_back(time_setup(cfg));
    }
    same_digest(run_pass(world, off, report, plain));
    // Later passes add only this benchmark's own frame-time records.
    if (made == 0) report.json.num("peak_rss_kb", usage(RUSAGE_SELF).max_rss_kb);
    if (tracer.on()) {
      tracer.clear();
      same_digest(run_pass(world, tracer, report, traced));
    }
    cpus.unpin();
    last_s = ns_to_s(now_ns() - start);
  }
  report.json.str("digest", digest);
  write_pass(report, "untraced", made, plain);
  if (tracer.on()) {
    write_pass(report, "traced", made, traced);
  } else {
    cpus.pin_next();
    setup_s.push_back(time_setup(cfg));
    cpus.unpin();
    report.json.nums("setup_s", setup_s);
  }
}

/// Supervised E4 sweeps, each with kSweepWorkers forked workers and the
/// default checkpoint cadence.  A sweep counts as failed unless the
/// supervisor reports ok with zero retries, crashes and timeouts, and
/// unless its merged CSV is byte-identical to the first sweep's.
struct Sweeps {
  std::vector<double> wall_s, supervisor_cpu_s, worker_cpu_s;
  std::vector<Span> spans;
  std::int64_t retries = 0, crashes = 0, timeouts = 0;
  double first_peak_rss_kb = 0.0;
  std::string first_csv;

  void run(const sweep::SweepSpec& spec, const std::string& work_dir, Report& report) {
    runner::SupervisorOptions options;
    options.workers = kSweepWorkers;
    options.work_dir = work_dir;
    const Usage self0 = usage(RUSAGE_SELF);
    const Usage children0 = usage(RUSAGE_CHILDREN);
    const std::int64_t t0 = now_ns();
    const runner::SupervisorResult result = runner::run_supervised_sweep(spec, options);
    const std::int64_t t1 = now_ns();
    const Usage self1 = usage(RUSAGE_SELF);
    const Usage children1 = usage(RUSAGE_CHILDREN);
    spans.push_back({"run_supervised_sweep", t0, t1, -1, -1, result.ok ? 1 : 0});
    // A forked worker's resident set starts with the pages it shares with
    // this process, which grows with every pass; the first sweep forks
    // from the same state on every run.
    if (wall_s.empty()) first_peak_rss_kb = children1.max_rss_kb;

    wall_s.push_back(ns_to_s(t1 - t0));
    supervisor_cpu_s.push_back(self1.cpu_s - self0.cpu_s);
    worker_cpu_s.push_back(children1.cpu_s - children0.cpu_s);
    retries += result.retries;
    crashes += result.crashes;
    timeouts += result.timeouts;
    report.check(result.ok, "sweep failed: " + result.error);
    report.check(result.retries == 0 && result.crashes == 0 && result.timeouts == 0,
                 "sweep needed retries, or a worker crashed or timed out");
    const std::string csv = result.ok ? sweep::to_csv(result.result) : std::string();
    if (wall_s.size() == 1) first_csv = csv;
    report.check(csv == first_csv, "two sweeps of one run merged different CSVs");
  }

  void write(Tracer& tracer, Report& report) const {
    for (const Span& s : spans) tracer.add(s.name, s.start_ns, s.end_ns, s.parent, s.frame, s.value);
    report.json.nums("sweep.wall_s", wall_s);
    report.json.nums("sweep.supervisor_cpu_s", supervisor_cpu_s);
    report.json.nums("sweep.worker_cpu_s", worker_cpu_s);
    report.json.integer("sweep.retries", retries);
    report.json.integer("sweep.crashes", crashes);
    report.json.integer("sweep.timeouts", timeouts);
    report.json.num("sweep.first_peak_rss_kb", first_peak_rss_kb);
    report.json.str("sweep.csv_digest",
                    hex64(fnv1a(reinterpret_cast<const std::uint8_t*>(first_csv.data()),
                                first_csv.size())));
  }
};

/// Replays the checkpoint cadence of the sweep's last shard in this
/// process: at every cadence frame of one item's world, one checkpoint per
/// shard item, each a real snapshot(), encode_shard_checkpoint() of the
/// items completed so far, and write_file_atomic().  The order is
/// frame-major rather than item-major so that one world suffices; the
/// calls, their count and their sizes are the shard's.  Completed items
/// carry empty SimMetrics, which encode to the same size as any item's.
void replay_checkpoints(const sweep::SweepSpec& spec, const std::string& work_dir,
                        Tracer& tracer, Report& report) {
  const std::int64_t every = runner::SupervisorOptions().checkpoint_every_frames;
  const std::size_t shard = kSweepWorkers - 1;
  const runner::ShardRange range =
      runner::shard_range(sweep::item_count(spec), shard, kSweepWorkers);
  runner::ShardHeader header;
  header.shard = shard;
  header.workers = kSweepWorkers;
  header.item_begin = range.begin;
  header.item_end = range.end;
  header.master_seed = spec.base.seed;
  const std::vector<sim::SimMetrics> done(range.size());
  const std::string path = work_dir + "/replay.ckpt";

  sim::Simulator sim(sweep::item_config(spec, range.begin));
  const std::int64_t frames = sim.total_frames();
  bool written = true;
  while (sim.frame_index() < frames) {
    sim.step_frame();
    const std::int64_t at = sim.frame_index();
    if (at >= frames || at % every != 0) continue;
    for (std::size_t k = 0; k < range.size(); ++k) {
      const std::int64_t t0 = now_ns();
      const std::int64_t parent = tracer.add("checkpoint", t0, t0, -1, at);
      runner::ShardCheckpoint ck;
      ck.header = header;
      ck.next_item = range.begin + k;
      ck.completed.assign(done.begin(), done.begin() + static_cast<std::ptrdiff_t>(k));
      const std::int64_t t1 = now_ns();
      ck.snapshot = sim.snapshot();
      const std::int64_t t2 = now_ns();
      tracer.add("snapshot", t1, t2, parent, at, static_cast<std::int64_t>(ck.snapshot.size()));
      const std::vector<std::uint8_t> bytes = runner::encode_shard_checkpoint(ck);
      const std::int64_t t3 = now_ns();
      tracer.add("encode_shard_checkpoint", t2, t3, parent, at,
                 static_cast<std::int64_t>(bytes.size()));
      written = runner::write_file_atomic(path, bytes) && written;
      const std::int64_t t4 = now_ns();
      tracer.add("write_file_atomic", t3, t4, parent, at, static_cast<std::int64_t>(bytes.size()));
      tracer.close(parent, t4);
    }
  }
  std::remove(path.c_str());
  report.check(written, "write_file_atomic failed in " + work_dir);
}

/// e4-sweep.  One sweep takes about ten seconds; a run makes one per
/// kSecondsPerSweep seconds asked for, at least one, spaced evenly over
/// the run between passes over the in-process world, so that the sweeps
/// and the passes sample the host across the whole run.  The sweeps record
/// one span each; a traced run then replays the checkpoint cadence.
constexpr int kSecondsPerSweep = 15;

void e4_sweep(std::uint64_t seed, int seconds, const std::string& work_dir, Tracer& tracer,
              Report& report) {
  const sweep::SweepSpec spec = e4_spec(seed);
  std::int64_t frames = 0;
  for (std::size_t i = 0; i < sweep::item_count(spec); ++i) {
    frames += sim::Simulator(sweep::item_config(spec, i)).total_frames();
  }
  report.json.integer("sweep.frames", frames);
  report.json.integer("sweep.workers", static_cast<std::int64_t>(kSweepWorkers));

  const std::size_t count = static_cast<std::size_t>(std::max(1, seconds / kSecondsPerSweep));
  Sweeps sweeps;
  steady(e4_world(spec), seconds,
         [&](double elapsed_s) {
           if (due(sweeps.wall_s.size(), count, elapsed_s, seconds)) {
             sweeps.run(spec, work_dir, report);
           }
         },
         tracer, report);
  while (sweeps.wall_s.size() < count) sweeps.run(spec, work_dir, report);
  sweeps.write(tracer, report);
  if (tracer.on()) replay_checkpoints(spec, work_dir, tracer, report);
}

void usage_and_exit() {
  std::fprintf(stderr,
               "usage: perfbench --workload hotspot-contend|e4-sweep --seed N\n"
               "                 --seconds S --trace 0|1 --out FILE [--spans FILE]\n"
               "                 [--work-dir DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out, spans_path, work_dir = ".";
  std::uint64_t seed = 0;
  int seconds = 0, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_and_exit();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--out") {
      out = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else {
      usage_and_exit();
    }
  }
  if (out.empty() || seconds < 1 || (trace != 0 && trace != 1) ||
      (trace == 1 && spans_path.empty())) {
    usage_and_exit();
  }

  Report report;
  Tracer tracer(trace == 1);
  const unsigned hw = std::thread::hardware_concurrency();
  report.json.str("workload", workload);
  report.json.integer("seed", static_cast<std::int64_t>(seed));
  report.json.integer("host.hardware_concurrency", hw);
  report.json.integer("host.nproc", sysconf(_SC_NPROCESSORS_ONLN));
  report.json.num("host.spin_cores", spin_cores(hw > 0 ? hw : 1, 0.25));

  const auto no_hook = [](double) {};
  if (workload == "hotspot-contend") {
    steady(hotspot_contend(seed), seconds, no_hook, tracer, report);
  } else if (workload == "e4-sweep") {
    e4_sweep(seed, seconds, work_dir, tracer, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  report.json.integer("attempted", report.attempted);
  report.json.strs("failures", report.failures);
  if (!report.json.write(out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  if (tracer.on() && !tracer.write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
