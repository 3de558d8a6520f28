// Fault-injection plans for the multi-process sweep supervisor.
//
// A FaultPlan names one deliberate failure a worker inflicts on itself --
// die at a frame, stall past the supervisor's timeout, corrupt the
// checkpoint it just wrote, or exit 0 without writing its final checkpoint
// (the shard's result).  Faults are
// self-injected (the worker process carries its own plan and triggers it
// from inside the frame loop) so the trigger point is deterministic: "kill
// at frame N" means after exactly N frames of the in-flight item, not
// whenever a signal happens to land.  The supervisor hands the plan to the
// matching shard's forked worker in its WorkerJob; the CLI and the tests
// build plans the same way.
//
// Spec grammar (tools/sweep_main --fault=SPEC):
//
//   kill:shard=I,frame=N[,item=J][,attempts=all]
//   stall:shard=I,frame=N[,item=J][,attempts=all]
//   corrupt-checkpoint:shard=I[,mode=bitflip|truncate][,attempts=all]
//   drop-result:shard=I[,attempts=all]
//
// By default a fault fires on the shard's first attempt only, so retries
// recover; `attempts=all` makes it fire every attempt (the give-up path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace wcdma::runner {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kKill,               // raise(SIGKILL) after stepping the trigger frame
  kStall,              // sleep forever; the supervisor's timeout must fire
  kCorruptCheckpoint,  // damage the just-written checkpoint, then die
  kDropResult,         // finish the shard but never write the final checkpoint
};

enum class CorruptMode : std::uint8_t { kBitFlip = 0, kTruncate };

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Shard the fault targets; plans forwarded to a worker always match its
  /// own shard index (the supervisor filters).
  std::size_t shard = 0;
  /// kKill/kStall: trigger after stepping this frame of the in-flight item.
  /// kCorruptCheckpoint: first checkpoint written at a frame >= this.
  std::int64_t frame = 0;
  /// Optional binding to one global item index; SIZE_MAX (the default)
  /// matches the first item that reaches the trigger frame.
  std::size_t item = SIZE_MAX;
  CorruptMode mode = CorruptMode::kBitFlip;
  /// false (default): first attempt only, so the retry path recovers.
  bool every_attempt = false;

  bool enabled() const { return kind != FaultKind::kNone; }
  /// True when the fault is armed for `attempt` (0-based) of `shard`.
  bool armed_for(std::size_t target_shard, int attempt) const {
    return enabled() && target_shard == shard &&
           (every_attempt || attempt == 0);
  }

  /// Parses the grammar above; on failure returns false and, when `error`
  /// is non-null, names the offending token.
  static bool parse(const std::string& text, FaultPlan* out,
                    std::string* error);
};

}  // namespace wcdma::runner
