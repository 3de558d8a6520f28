#include "src/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <istream>

#include "src/common/assert.hpp"

namespace wcdma::service {

TraceHeader trace_header_for(const sim::Simulator& sim) {
  TraceHeader h;
  h.seed = sim.config().seed;
  h.users = sim.num_users();
  h.cells = sim.num_cells();
  h.carriers = sim.num_carriers();
  h.frame_s = sim.config().frame_s;
  h.policy = sim.policy_name();
  h.provider = sim.channel_provider_name();
  return h;
}

AdmissionService::AdmissionService(const sim::SystemConfig& config) : sim_(config) {
  sim_.set_traffic_mode(sim::Simulator::TrafficMode::kExternal);
}

EventResult AdmissionService::validate(const Event& e) const {
  const EventSpec& spec = event_spec(e.type);
  // A tick past the horizon would step a frame no run loop reaches, and
  // the checkpoint taken there is one restore() refuses.
  if (e.type == EventType::kTick) {
    if (sim_.frame_index() >= sim_.total_frames()) return {ResultCode::kNackOutOfOrder};
    return {};
  }
  // Frame discipline: a non-tick event binds to the frame it was stamped
  // for; accepting it early or late would consume injection slots (and RNG
  // draws downstream) in a different frame than the recording run.
  if (e.frame != sim_.frame_index()) return {ResultCode::kNackOutOfOrder};
  if (spec.needs_user &&
      (e.user < 0 || static_cast<std::size_t>(e.user) >= sim_.num_users())) {
    return {ResultCode::kNackUnknownUser};
  }
  const auto u = static_cast<std::size_t>(e.user);
  switch (e.type) {
    case EventType::kBurstRequest:
      if (!sim_.user_is_data(u)) return {ResultCode::kNackNotData};
      if (!(e.bits > 0.0) || !std::isfinite(e.bits)) {
        return {ResultCode::kNackBadPayload};
      }
      if (sim_.user_burst_active(u)) return {ResultCode::kNackBurstActive};
      if (sim_.user_has_pending(u) || sim_.user_injection_queued(u)) {
        return {ResultCode::kNackDuplicate};
      }
      // Overload gate, checked last so a malformed request keeps its more
      // specific nack: a bounded injection queue sheds requests at the cap
      // instead of buffering without limit.  cap == 0 means unbounded --
      // the batch path and every recorded trace run with the gate off.
      if (const int cap = sim_.config().service.injection_queue_cap;
          cap > 0 &&
          sim_.injection_queue_depth() >= static_cast<std::size_t>(cap)) {
        return {ResultCode::kNackOverload};
      }
      break;
    case EventType::kRelease:
      if (!sim_.user_is_data(u)) return {ResultCode::kNackNotData};
      if (sim_.user_burst_active(u)) return {ResultCode::kNackBurstActive};
      if (!sim_.user_has_pending(u) && !sim_.user_injection_queued(u)) {
        return {ResultCode::kNackNoPending};
      }
      break;
    case EventType::kHandDown:
      if (!sim_.user_is_data(u)) return {ResultCode::kNackNotData};
      if (e.carrier < 0 || e.carrier >= sim_.num_carriers()) {
        return {ResultCode::kNackBadPayload};
      }
      // Queue buckets are keyed by carrier, so a user with any burst
      // machinery in flight cannot move.
      if (sim_.user_burst_active(u) || sim_.user_has_pending(u) ||
          sim_.user_injection_queued(u)) {
        return {ResultCode::kNackBurstActive};
      }
      break;
    case EventType::kMeasurementReport:
      break;  // informational: any known user acks
    case EventType::kTick:
      break;
  }
  return {};
}

EventResult AdmissionService::submit(const Event& e) {
  const EventResult result = validate(e);
  if (!result.ok()) {
    ++counters_.nacks;
    if (result.code == ResultCode::kNackOverload) {
      // The shed count is the one observable a refused request leaves
      // behind; it rides in SimMetrics so checkpoints and sweep merges
      // carry it, and every other metric stays bit-identical to a run
      // that never saw the excess request.
      ++counters_.sheds;
      sim_.note_overload_shed();
    }
    return result;
  }
  switch (e.type) {
    case EventType::kTick:
      sim_.step_frame();
      ++counters_.ticks;
      break;
    case EventType::kBurstRequest:
      sim_.inject_request(static_cast<std::size_t>(e.user), e.bits);
      ++counters_.requests;
      break;
    case EventType::kRelease:
      sim_.cancel_request(static_cast<std::size_t>(e.user));
      ++counters_.releases;
      break;
    case EventType::kHandDown:
      sim_.set_user_carrier(static_cast<std::size_t>(e.user), e.carrier);
      ++counters_.hand_downs;
      break;
    case EventType::kMeasurementReport:
      ++counters_.reports;  // acked, no state change (compliance table)
      break;
  }
  ++counters_.acks;
  return result;
}

TraceRecorder::TraceRecorder(sim::Simulator& sim, std::ostream& out)
    : sim_(sim), writer_(out) {
  WCDMA_ASSERT(sim_.traffic_mode() == sim::Simulator::TrafficMode::kInternal &&
               "record from a live internal-traffic run");
  writer_.begin(trace_header_for(sim_));
  sim_.set_arrival_observer([this](int user, double bits) {
    writer_.event(Event::burst_request(sim_.frame_index(), user, bits));
  });
}

TraceRecorder::~TraceRecorder() { finish(); }

void TraceRecorder::run_frames(std::int64_t frames) {
  WCDMA_ASSERT(!finished_);
  for (std::int64_t f = 0; f < frames; ++f) {
    sim_.step_frame();
    writer_.event(Event::tick());
  }
}

void TraceRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  writer_.finish();
  sim_.set_arrival_observer(nullptr);
}

ReplayResult replay_trace(const sim::SystemConfig& config, std::istream& in) {
  ReplayResult out;
  TraceReader reader(in);
  TraceHeader header;
  if (!reader.read_header(&header)) {
    out.error = reader.error();
    return out;
  }
  AdmissionService service(config);
  const TraceHeader expect = trace_header_for(service.simulator());
  if (header.seed != expect.seed || header.users != expect.users ||
      header.cells != expect.cells || header.carriers != expect.carriers ||
      header.frame_s != expect.frame_s || header.policy != expect.policy ||
      header.provider != expect.provider) {
    out.error = "trace header does not match the replay configuration";
    return out;
  }
  TraceRecord record;
  while (reader.next(&record)) {
    // A coalesced record replays one tick at a time; the frame a nack
    // names is the service's for a tick, the event's own stamp otherwise.
    for (std::int64_t i = 0; i < std::max<std::int64_t>(record.ticks, 1); ++i) {
      const Event e = record.ticks > 0 ? Event::tick() : record.event;
      const std::int64_t frame = record.ticks > 0 ? service.frame() : e.frame;
      const EventResult result = service.submit(e);
      if (!result.ok()) {
        out.error = std::string("replay event nacked (") + to_string(result.code) +
                    ") at frame " + std::to_string(frame);
        return out;
      }
    }
  }
  if (!reader.ok()) {
    out.error = reader.error();
    return out;
  }
  out.ok = true;
  out.metrics = service.simulator().metrics();
  out.counters = service.counters();
  return out;
}

}  // namespace wcdma::service
