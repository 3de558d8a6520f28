#include "src/runner/supervisor.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "src/common/assert.hpp"
#include "src/runner/shard_io.hpp"
#include "src/runner/worker.hpp"

namespace wcdma::runner {

double backoff_delay_s(int retry, double base_s, double cap_s) {
  WCDMA_ASSERT(retry >= 0 && base_s >= 0.0 && cap_s >= base_s);
  double delay = base_s;
  for (int i = 0; i < retry; ++i) {
    delay *= 2.0;
    if (delay >= cap_s) return cap_s;
  }
  return std::min(delay, cap_s);
}

namespace {

double monotonic_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class ShardStatus { kPending, kRunning, kDone, kFailed };

struct ShardState {
  ShardRange range;
  ShardStatus status = ShardStatus::kPending;
  int attempt = 0;          // 0-based attempt about to run / running
  pid_t pid = -1;
  double deadline_s = 0.0;  // monotonic; 0 = no timeout
  double ready_s = 0.0;     // backoff gate for the next launch
  bool timed_out = false;
  bool resume_next = false;
  std::string checkpoint_path;
  std::vector<sim::SimMetrics> items;  // the final checkpoint's, when kDone
};

ShardHeader header_for(const sweep::SweepSpec& spec, const ShardState& state,
                       std::size_t shard, std::size_t workers) {
  ShardHeader h;
  h.shard = shard;
  h.workers = workers;
  h.item_begin = state.range.begin;
  h.item_end = state.range.end;
  h.master_seed = spec.base.seed;
  return h;
}

/// Forks one worker attempt of `shard` out of `workers`.  The child runs
/// run_worker() on the supervisor's own spec and _exits without unwinding
/// the parent's stack.
pid_t launch_worker(const sweep::SweepSpec& spec,
                    const SupervisorOptions& options, std::size_t shard,
                    std::size_t workers, const ShardState& state) {
  WorkerJob job;
  job.spec = spec;
  job.shard = shard;
  job.workers = workers;
  job.checkpoint_path = state.checkpoint_path;
  job.checkpoint_every_frames = options.checkpoint_every_frames;
  job.resume = state.resume_next;
  job.attempt = state.attempt;
  if (options.fault.enabled() && options.fault.shard == shard) {
    job.fault = options.fault;
  }

  const pid_t pid = fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
  _exit(run_worker(job));
}

std::string describe_exit(int wait_status, const ShardState& state,
                          double timeout_s) {
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    if (state.timed_out) {
      return "timed out after " + std::to_string(timeout_s) +
             "s (SIGKILL at the deadline)";
    }
    return "killed by signal " + std::to_string(sig);
  }
  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (code == kWorkerBadCheckpoint) return "worker refused its checkpoint";
  if (code == kWorkerIoError) return "worker could not write its files";
  return "exit code " + std::to_string(code);
}

}  // namespace

SupervisorResult run_supervised_sweep(const sweep::SweepSpec& spec,
                                      const SupervisorOptions& options) {
  SupervisorResult out;
  spec.validate();
  WCDMA_ASSERT(options.workers >= 1);
  WCDMA_ASSERT(options.max_retries >= 0);

  // At most one shard per item.  A cost split can still leave a shard
  // empty; an empty shard starts no worker and is done from the outset.
  const std::vector<std::uint64_t> costs = item_costs(spec);
  const std::size_t workers = std::min(options.workers, costs.size());
  std::vector<ShardState> shards(workers);
  for (std::size_t s = 0; s < workers; ++s) {
    shards[s].range = shard_range(costs, s, workers);
  }

  // A fault aimed at a shard that starts no worker would never fire, and a
  // recovery run would pass without injecting anything: refuse it before
  // anything is forked or written.
  if (options.fault.enabled()) {
    const std::size_t target = options.fault.shard;
    const std::string cut = "the sweep cuts " + std::to_string(workers) + " shard(s)";
    if (target >= workers) {
      out.error = "fault names shard " + std::to_string(target) + ", but " + cut +
                  " (shards 0-" + std::to_string(workers - 1) + ")";
      return out;
    }
    if (shards[target].range.size() == 0) {
      out.error = "fault names shard " + std::to_string(target) +
                  ", which starts no worker: " + cut +
                  " and the cost split leaves shard " + std::to_string(target) + " empty";
      return out;
    }
  }

  std::size_t done = 0;
  for (std::size_t s = 0; s < workers; ++s) {
    shards[s].checkpoint_path = options.work_dir + "/shard-" + std::to_string(s) + ".ckpt";
    // A stale file from an earlier run must never satisfy this one; the
    // identity header would refuse it, but remove it anyway so "missing"
    // failures attribute cleanly.
    std::remove(shards[s].checkpoint_path.c_str());
    if (shards[s].range.size() == 0) {
      shards[s].status = ShardStatus::kDone;
      ++done;
    }
  }

  // Attributed hard stop: kill anything still running, reap, and report.
  const auto abort_with = [&](std::size_t shard, const std::string& why) {
    for (ShardState& st : shards) {
      if (st.status == ShardStatus::kRunning && st.pid > 0) {
        kill(st.pid, SIGKILL);
        int ignored = 0;
        while (waitpid(st.pid, &ignored, 0) < 0 && errno == EINTR) {
        }
        st.status = ShardStatus::kFailed;
      }
    }
    out.ok = false;
    out.error = "shard " + std::to_string(shard) + ": " + why;
    return out;
  };

  // Schedules the next attempt of a failed shard (or gives up).  Returns
  // false when the sweep must abort; `why` then names the cause.
  const auto schedule_retry = [&](std::size_t shard, const std::string& reason,
                                  std::string* why) {
    ShardState& st = shards[shard];
    ++out.crashes;
    if (st.attempt >= options.max_retries) {
      *why = "failed after " + std::to_string(st.attempt + 1) + " attempt(s): " +
             reason;
      return false;
    }
    st.resume_next = false;
    if (access(st.checkpoint_path.c_str(), F_OK) == 0) {
      std::vector<std::uint8_t> bytes;
      ShardCheckpoint ck;
      std::string ck_why;
      const ShardHeader expect = header_for(spec, st, shard, workers);
      if (read_file(st.checkpoint_path, &bytes) &&
          decode_shard_checkpoint(bytes, expect, &ck, &ck_why)) {
        st.resume_next = true;
      } else if (options.strict_checkpoint) {
        *why = "checkpoint " + st.checkpoint_path +
               " failed integrity check (" +
               (ck_why.empty() ? "unreadable file" : ck_why) + ")";
        return false;
      } else {
        // Restart-from-scratch is bit-identical too (items are functions
        // of their seeds), so a damaged checkpoint costs time, not truth.
        std::fprintf(stderr,
                     "runner: shard %zu checkpoint %s discarded (%s); "
                     "restarting the shard from frame 0\n",
                     shard, st.checkpoint_path.c_str(),
                     ck_why.empty() ? "unreadable file" : ck_why.c_str());
        std::remove(st.checkpoint_path.c_str());
        ++out.discarded_checkpoints;
      }
    }
    const double delay =
        backoff_delay_s(st.attempt, options.backoff_base_s, options.backoff_cap_s);
    ++st.attempt;
    ++out.retries;
    st.ready_s = monotonic_now_s() + delay;
    st.timed_out = false;
    st.status = ShardStatus::kPending;
    return true;
  };

  std::size_t items_done = 0;
  while (done < workers) {
    const double now = monotonic_now_s();
    // Launch every pending shard whose backoff gate has passed.
    for (std::size_t s = 0; s < workers; ++s) {
      ShardState& st = shards[s];
      if (st.status != ShardStatus::kPending || now < st.ready_s) continue;
      const pid_t pid = launch_worker(spec, options, s, workers, st);
      if (pid < 0) return abort_with(s, "fork() failed");
      if (st.resume_next) ++out.checkpoint_resumes;
      st.pid = pid;
      st.status = ShardStatus::kRunning;
      st.deadline_s = options.timeout_s > 0.0 ? now + options.timeout_s : 0.0;
    }

    // Reap finished workers and enforce deadlines.
    for (std::size_t s = 0; s < workers; ++s) {
      ShardState& st = shards[s];
      if (st.status != ShardStatus::kRunning) continue;
      int wait_status = 0;
      const pid_t reaped = waitpid(st.pid, &wait_status, WNOHANG);
      if (reaped < 0 && errno == EINTR) continue;
      if (reaped == 0) {
        if (st.deadline_s > 0.0 && monotonic_now_s() > st.deadline_s &&
            !st.timed_out) {
          st.timed_out = true;
          ++out.timeouts;
          kill(st.pid, SIGKILL);  // reaped on a later iteration
        }
        continue;
      }
      st.pid = -1;
      if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == kWorkerOk) {
        // A finished shard's result is its final checkpoint.
        std::vector<std::uint8_t> bytes;
        ShardCheckpoint ck;
        std::string why;
        const ShardHeader expect = header_for(spec, st, s, workers);
        if (read_file(st.checkpoint_path, &bytes) &&
            decode_shard_checkpoint(bytes, expect, &ck, &why)) {
          if (ck.next_item == expect.item_end) {
            st.items = std::move(ck.completed);
            st.status = ShardStatus::kDone;
            ++done;
            items_done += st.items.size();
            if (options.progress) options.progress(items_done, costs.size());
            continue;
          }
          why = "it stops before item " + std::to_string(ck.next_item);
        }
        const std::string reason =
            "final checkpoint " + st.checkpoint_path + " missing or invalid (" +
            (why.empty() ? "unreadable file" : why) + ")";
        std::string abort_why;
        if (!schedule_retry(s, reason, &abort_why)) return abort_with(s, abort_why);
        continue;
      }
      const std::string reason = describe_exit(wait_status, st, options.timeout_s);
      std::string abort_why;
      if (!schedule_retry(s, reason, &abort_why)) return abort_with(s, abort_why);
    }

    if (done < workers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Deterministic merge: one slot per item, filled per shard, merged in
  // index order -- completion order cannot leak into the output.
  std::vector<sim::SimMetrics> per_item(costs.size());
  for (std::size_t s = 0; s < workers; ++s) {
    const ShardState& st = shards[s];
    WCDMA_ASSERT(st.items.size() == st.range.size());
    for (std::size_t i = 0; i < st.items.size(); ++i) {
      per_item[st.range.begin + i] = st.items[i];
    }
    std::remove(st.checkpoint_path.c_str());
  }
  out.result = sweep::merge_item_metrics(spec, per_item);
  out.ok = true;
  return out;
}

}  // namespace wcdma::runner
