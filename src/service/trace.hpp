// Versioned JSONL trace format (v1) for service event streams.
//
// One JSON object per line: a header line first, then events in submission
// order.  Runs of consecutive frame ticks coalesce into one
// {"e":"tick","n":K} record so an hour-long mostly-idle run stays compact,
// and burst payloads print as %.17g so every double round-trips bit-exactly
// -- a re-emitted sweep run must replay to bit-identical metrics.
//
//   {"trace":"wcdma-burst-events","v":1,"seed":7,"users":80,"cells":7,
//    "carriers":1,"frame_s":0.02,"policy":"jaba-sd","provider":"exhaustive"}
//   {"e":"req","f":103,"u":52,"bits":418240}
//   {"e":"tick","n":57}
//
// Within a frame, "req" records precede the tick that closes the frame:
// the recorder hook fires while the frame is being stepped, and the
// replayer must buffer those arrivals before it steps the same frame.
//
// The reader is a deliberately rigid scanner for exactly what the writer
// emits (flat objects, unescaped strings, known keys); anything else is a
// parse error with a line number, never a guess.  The wire tags come from
// the event catalogue's compliance table, so format and catalogue cannot
// drift apart.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/service/events.hpp"

namespace wcdma::service {

inline constexpr int kTraceVersion = 1;
inline constexpr const char* kTraceName = "wcdma-burst-events";

/// Identity of the run a trace was recorded from; replay refuses a trace
/// whose header does not match the simulator it is replayed into.
struct TraceHeader {
  int version = kTraceVersion;
  std::uint64_t seed = 0;
  std::uint64_t users = 0;
  std::uint64_t cells = 0;
  int carriers = 1;
  double frame_s = 0.020;
  std::string policy;
  std::string provider;
};

class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out) : out_(out) {}

  /// Writes the header line; must precede every event.
  void begin(const TraceHeader& header);
  /// Appends one event (ticks coalesce until the next non-tick or finish()).
  void event(const Event& e);
  /// Flushes any trailing coalesced ticks.  Idempotent.
  void finish();

 private:
  void flush_ticks();

  std::ostream& out_;
  std::int64_t pending_ticks_ = 0;
  bool begun_ = false;
};

/// One parsed trace line: either a coalesced tick run (ticks > 0) or a
/// single non-tick event.
struct TraceRecord {
  Event event;
  std::int64_t ticks = 0;
};

class TraceReader {
 public:
  explicit TraceReader(std::istream& in) : in_(in) {}

  /// Parses the header line; false on EOF or malformed header (see error()).
  bool read_header(TraceHeader* header);
  /// Parses the next event line into `record`; false at end of stream or on
  /// a parse error -- distinguish with ok().
  bool next(TraceRecord* record);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what);

  std::istream& in_;
  std::string error_;
  std::size_t line_no_ = 0;
};

}  // namespace wcdma::service
