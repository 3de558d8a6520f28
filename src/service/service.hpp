// Message-driven service core: the frame loop re-expressed as a stream of
// typed, acked messages over the batch simulator.
//
// Three pieces:
//
//  * AdmissionService -- owns a Simulator in external-traffic mode and
//    applies catalogue events (src/service/events.hpp) with explicit
//    ack/nack results.  Burst requests buffer and drain inside the frame's
//    traffic phase in ascending user order, exactly where the batch path's
//    internal arrivals drain, so a request stream recorded from a batch run
//    replays to bit-identical admission decisions and metrics.
//  * TraceRecorder -- attaches to a live (internal-traffic) Simulator and
//    re-emits its run as a v1 JSONL event stream (src/service/trace.hpp):
//    every data-burst arrival becomes a "req" record stamped with its frame,
//    every frame a (coalesced) tick.
//  * replay_trace() -- pumps a recorded stream through a fresh
//    AdmissionService built from the same config, refusing header
//    mismatches, and returns the replayed metrics for bit-identity checks.
//
// Checkpoint/restore rides on Simulator::snapshot()/restore(): the archive
// carries every evolved stream (RNGs, SoA channel lanes, far-field buckets,
// queues, MAC/power state, metrics), so checkpoint-at-frame-k + resume
// equals an uninterrupted run bit-for-bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/service/events.hpp"
#include "src/service/trace.hpp"
#include "src/sim/simulator.hpp"

namespace wcdma::service {

struct ServiceCounters {
  std::int64_t acks = 0;
  std::int64_t nacks = 0;
  std::int64_t ticks = 0;
  std::int64_t requests = 0;
  std::int64_t releases = 0;
  std::int64_t hand_downs = 0;
  std::int64_t reports = 0;
  /// kNackOverload subset of `nacks`: requests shed by the bounded
  /// injection queue (config.service.injection_queue_cap).
  std::int64_t sheds = 0;
};

/// The trace-header fingerprint of a simulator's run identity.
TraceHeader trace_header_for(const sim::Simulator& sim);

class AdmissionService {
 public:
  explicit AdmissionService(const sim::SystemConfig& config);

  /// Validates and applies one event.  Non-tick events must be stamped with
  /// the service's current frame; a tick closes the frame (advances the
  /// simulator once), and nacks kNackOutOfOrder once the service stands at
  /// the config's total_frames().  Nacked events leave all state untouched.
  EventResult submit(const Event& e);

  /// Full service checkpoint (buffered injections ride inside the
  /// simulator archive) and its inverse.
  std::vector<std::uint8_t> checkpoint() const { return sim_.snapshot(); }
  bool restore(const std::vector<std::uint8_t>& bytes) { return sim_.restore(bytes); }

  std::int64_t frame() const { return sim_.frame_index(); }
  const ServiceCounters& counters() const { return counters_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

 private:
  EventResult validate(const Event& e) const;

  sim::Simulator sim_;
  ServiceCounters counters_;
};

/// Records a live internal-traffic run as a v1 event stream.  The observer
/// hook fires inside step_frame(), so "req" records land before the tick
/// that closes their frame -- the order the replayer needs.
class TraceRecorder {
 public:
  TraceRecorder(sim::Simulator& sim, std::ostream& out);
  ~TraceRecorder();

  /// Steps the simulator `frames` frames, recording as it goes.
  void run_frames(std::int64_t frames);
  /// Flushes trailing ticks and detaches the observer.  Idempotent.
  void finish();

 private:
  sim::Simulator& sim_;
  TraceWriter writer_;
  bool finished_ = false;
};

struct ReplayResult {
  bool ok = false;
  std::string error;          // set when !ok
  sim::SimMetrics metrics;    // the replayed run's metrics
  ServiceCounters counters;
};

/// Replays a recorded trace into a fresh AdmissionService built from
/// `config`.  Fails (without touching `config`'s semantics) on header
/// mismatch, parse errors, or any nacked event, a tick past the horizon
/// included -- a trace recorded from a valid run acks end to end.
ReplayResult replay_trace(const sim::SystemConfig& config, std::istream& in);

}  // namespace wcdma::service
