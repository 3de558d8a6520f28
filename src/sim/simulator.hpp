// Frame-driven dynamic system simulator (DESIGN.md S26).
//
// Reproduces the evaluation substrate the paper describes: "the system is
// evaluated by dynamic simulations which takes into account of the user
// mobility, power control, and soft hand-off".  Each 20 ms frame the
// simulator moves users, evolves shadowing/fading, runs closed-loop power
// control on the fundamental channels, updates soft-handoff active sets,
// generates voice activity and data bursts, runs the burst admission stack
// (measurement sub-layer -> scheduling sub-layer -> grants), and transmits
// active SCH bursts through the adaptive VTAOC physical layer.
//
// Interference is resolved as a lagged fixed point: frame t uses the
// transmit powers of frame t-1 as the interference background, the standard
// technique for dynamic CDMA system simulations.
//
// Hot-path layout (see docs/ARCHITECTURE.md "hot path & memory layout"):
// per-link channel state lives in a structure-of-arrays sim::FrameState
// rather than inside Simulator::User, pending burst requests live in
// incrementally-maintained per-(direction, carrier) RequestQueues rather
// than being re-scanned per frame, and the three heavy per-frame loops
// (channel stepping, forward measurements, reverse-rise gather) shard over
// a persistent thread pool when config.sim_threads > 1.  Results are
// bit-identical for every thread count: the sharded loops carry no
// cross-user accumulators, and the reverse rise is computed as a
// per-station gather in ascending user order (the same additions, in the
// same order, as the legacy sequential scatter).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/admission/measurement.hpp"
#include "src/admission/policy.hpp"
#include "src/cell/active_set.hpp"
#include "src/cell/geometry.hpp"
#include "src/cell/mobility.hpp"
#include "src/channel/channel.hpp"
#include "src/channel/path_loss.hpp"
#include "src/common/thread_pool.hpp"
#include "src/mac/mac_state.hpp"
#include "src/mac/scrm.hpp"
#include "src/phy/adaptation.hpp"
#include "src/phy/link_adapter.hpp"
#include "src/phy/spreading.hpp"
#include "src/power/power_control.hpp"
#include "src/sim/config.hpp"
#include "src/sim/far_field.hpp"
#include "src/sim/frame_state.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/request_queue.hpp"
#include "src/traffic/data.hpp"
#include "src/traffic/voice.hpp"

namespace wcdma::sim {

class Simulator {
 public:
  explicit Simulator(const SystemConfig& config);

  /// Runs the configured duration and returns the (post-warmup) metrics.
  SimMetrics run();

  /// Advances exactly one frame (exposed for tests and custom drivers).
  void step_frame();

  /// Frames in the configured duration; run() is exactly this many
  /// step_frame() calls, so an external driver (the sweep worker's
  /// checkpoint-cadence loop) that steps from frame_index() to
  /// total_frames() reproduces run() bit-for-bit.
  std::int64_t total_frames() const;

  double now_s() const { return now_s_; }
  const SimMetrics& metrics() const { return metrics_; }
  const SystemConfig& config() const { return config_; }

  // --- Introspection for tests/examples ---
  std::size_t num_cells() const { return layout_.num_cells(); }
  int num_carriers() const { return config_.placement.carriers; }
  std::size_t num_users() const { return users_.size(); }
  double forward_power_w(std::size_t cell, int carrier = 0) const;
  double reverse_interference_w(std::size_t cell, int carrier = 0) const;
  cell::Point user_position(std::size_t user) const;
  int user_carrier(std::size_t user) const;
  /// Home cell under per-cell placement; nearest cell to the region centre
  /// otherwise.
  std::size_t user_home_cell(std::size_t user) const;
  double thermal_noise_w() const { return noise_w_; }
  /// Pending-request count by O(users) scan -- the reference the indexed
  /// RequestQueues are tested against.
  int pending_requests() const;
  /// Pending-request count from the incrementally-maintained queues.
  int queued_requests() const { return static_cast<int>(queues_.total_pending()); }
  /// Worker threads the intra-frame loops actually use (resolved from
  /// config.sim_threads; 0 resolves to hardware concurrency).
  std::size_t sim_threads() const { return sim_threads_; }
  /// Admission-policy and channel-state-provider registry names
  /// (round-trippable through admission::make_policy / has_channel_provider).
  std::string policy_name() const { return config_.admission.policy; }
  std::string channel_provider_name() const { return config_.csi.provider; }
  /// Epoch-contract cross-checks for the candidate-index regression tests:
  /// the cell -> users transpose must equal a rebuild from the live
  /// candidate sets after every frame, and the epoch must move whenever any
  /// set changed.
  bool csi_index_consistent() const { return state_.candidate_index_consistent(); }
  std::uint64_t csi_candidate_epoch() const { return state_.candidate_epoch(); }
  /// True when the far-field aggregator is live (culling provider with
  /// csi.far_field.enabled); the default exhaustive path keeps it off.
  bool far_field_active() const { return far_field_.active(); }
  /// The aggregator itself (bucket-maintenance regression tests).
  const FarFieldAggregator& far_field() const { return far_field_; }

  // --- Service seams (src/service/): event-driven traffic injection,
  // trace recording hooks, checkpoint/restore, decision-latency timing. ----

  /// kExternal switches data-burst arrivals from the users' Pareto sources
  /// to inject_request() (the trace-replay path).  The per-user fork(2)
  /// traffic streams are simply not consumed -- every other stream
  /// (mobility, channel, power control) advances identically, which is what
  /// makes a replayed run's decisions bit-identical to the recording run.
  enum class TrafficMode { kInternal, kExternal };
  void set_traffic_mode(TrafficMode mode) { traffic_mode_ = mode; }
  TrafficMode traffic_mode() const { return traffic_mode_; }

  /// Buffers a burst request for `user` (data user, idle, nothing buffered);
  /// it enters the pending queue inside this frame's traffic phase in
  /// ascending user order -- exactly where an internal arrival would, so
  /// the admission rounds see an identical request sequence.  Callers
  /// (AdmissionService) pre-validate; violations abort in debug builds.
  void inject_request(std::size_t user, double bits);
  /// Cancels `user`'s pending (not yet granted) request.  Internal mode
  /// also completes the user's traffic-source cycle so arrivals resume.
  void cancel_request(std::size_t user);
  /// Re-assigns an idle data user's carrier (explicit hand-down event).
  void set_user_carrier(std::size_t user, int carrier);

  bool user_is_data(std::size_t user) const { return users_[user].is_data; }
  bool user_has_pending(std::size_t user) const { return users_[user].has_pending; }
  bool user_burst_active(std::size_t user) const { return users_[user].burst.active; }
  bool user_injection_queued(std::size_t user) const {
    return injected_bits_[user] >= 0.0;
  }
  /// Buffered-injection count (requests accepted this frame, not yet
  /// drained by the traffic phase).  O(users) scan: the service's overload
  /// gate runs per submitted event, never inside the frame hot path.
  std::size_t injection_queue_depth() const {
    std::size_t depth = 0;
    for (double bits : injected_bits_) depth += bits >= 0.0 ? 1 : 0;
    return depth;
  }
  /// Records one load-shed burst request (service overload gate); the
  /// counter rides in SimMetrics so checkpoints and merges carry it.
  void note_overload_shed() { ++metrics_.overload_sheds; }

  std::int64_t frame_index() const { return frame_count_; }

  /// Observer invoked at every data-burst arrival (user id, burst bits), in
  /// ascending user order within the frame -- the trace recorder hook.
  void set_arrival_observer(std::function<void(int, double)> observer) {
    arrival_observer_ = std::move(observer);
  }

  /// Serializes the state the next frame reads before it rewrites it
  /// (master + per-user RNG streams, the shadowing and fading lanes,
  /// candidate sets, far-field buckets, request queues, hand-off timers and
  /// members, MAC, power control, metrics) into a versioned little-endian
  /// archive.  Lanes every frame rewrites before any read -- the per-link
  /// gains and pilots, the active sets' dB pilots, each user's FCH gate,
  /// forward interference and FCH SIR -- stay out, as do init-time tables.
  /// The station powers stay in because the public accessors read them
  /// between frames.  The header fingerprints the originating config;
  /// restore() onto a Simulator constructed from the SAME config resumes
  /// bit-identically to an uninterrupted run.  Snapshots are valid between
  /// frames only.
  std::vector<std::uint8_t> snapshot() const;
  /// Restores a snapshot() archive; false (state untouched) on
  /// magic/version/fingerprint mismatch, truncation, a frame clock past
  /// total_frames(), or a restored state that fails check_invariants().
  bool restore(const std::vector<std::uint8_t>& bytes);

  /// Cross-checks every incrementally-maintained structure against its
  /// from-scratch rebuild: request-queue buckets vs per-user pending state,
  /// the candidate transpose vs a rebuild from the sets, far-field TX
  /// buckets vs a fresh aggregation, SoA lane sizes vs user/cell counts,
  /// and the frame clocks against each other.  Always compiled: restore()
  /// refuses any archive that fails it, and Release tests call it
  /// directly.  Returns false and names the first broken invariant in *why
  /// (when non-null) instead of aborting.
  bool check_invariants(std::string* why = nullptr) const;
  /// Debug/sanitizer builds: aborts via WCDMA_DCHECK when check_invariants
  /// fails.  Compiled out in Release.  Called at snapshot() and every
  /// kInvariantCheckPeriod-th frame of step_frame().
  void validate_invariants() const;
  static constexpr std::int64_t kInvariantCheckPeriod = 64;

  /// Decision-latency instrumentation: when enabled, each frame's admission
  /// phase (context snapshot + every scheduling round) is wall-clock timed
  /// and the per-frame seconds plus the decided-request count accumulate
  /// for the service bench.  Off by default -- zero hot-path cost.
  void enable_decision_timing(bool on) { decision_timing_ = on; }
  const std::vector<double>& decision_frame_times_s() const {
    return decision_times_s_;
  }
  std::int64_t decisions_made() const { return decisions_made_; }

 private:
  /// One interference domain: a (cell, carrier) pair.  With one carrier
  /// this degenerates to one station per cell; with C carriers each cell
  /// runs C independent power amplifiers and rise budgets, and only
  /// same-carrier users interact.
  struct BaseStation {
    /// Total TX power, rebuilt by update_transmit_powers() at the end of a
    /// frame; every earlier read in the next frame sees it as last frame's
    /// power (the lagged interference background).
    double forward_w = 0.0;
    double received_w = 0.0;  // L_k this frame
  };

  struct Burst {
    bool active = false;
    int m = 0;                 // granted spreading-gain ratio
    double remaining_bits = 0.0;
    double arrival_s = 0.0;
    double setup_left_s = 0.0;
    std::size_t distance_bin = 0;  // coverage bin captured at arrival
  };

  struct User {
    int id = 0;
    bool is_data = false;
    bool forward_dir = true;  // data users: burst direction
    double priority = 0.0;    // Delta_j
    int carrier = 0;          // frequency assignment (round-robin)
    std::size_t home_cell = 0;

    std::unique_ptr<cell::MobilityModel> mobility;
    cell::ActiveSet active_set;
    power::ClosedLoopPowerControl fl_pc;  // FCH forward power (per leg)
    power::ClosedLoopPowerControl rl_pc;  // reverse pilot TX power
    std::optional<traffic::VoiceSource> voice;
    std::optional<traffic::DataSource> data;
    mac::MacStateMachine mac;
    // Fixed-rate ablation PHY (phy.fixed_mode > 0) and its delayed, noisy
    // CSI feedback pipe.  The adaptive VTAOC path needs no per-user state:
    // step_transmission() reads the shared policy_ directly.
    std::unique_ptr<phy::FixedRateAdapter> fixed;

    bool voice_active = false;
    bool fch_on = false;  // per frame: set by power control, not checkpointed
    // (last frame's mobile TX power lives in Simulator::prev_tx_w_, the
    // SoA mirror the reverse-rise gather reads)

    // Pending burst request (at most one per user; RequestQueues indexes
    // the pending users by (carrier, direction)).
    bool has_pending = false;
    double pending_bits = 0.0;
    double pending_arrival_s = 0.0;
    double next_eligible_s = 0.0;  // SCRM retry gate after a rejection

    Burst burst;

    // Per-frame interference caches (per-cell state lives in FrameState),
    // rewritten every frame before they are read and so not checkpointed.
    double fwd_interference_eff_w = 0.0;  // with own-cell orthogonality credit
    double fch_sir_linear = 0.0;          // achieved FCH Eb/I0 (relevant link)

    User(const cell::ActiveSetConfig& as_cfg, std::size_t num_cells,
         const power::PowerControlConfig& fl_cfg, const power::PowerControlConfig& rl_cfg)
        : active_set(as_cfg, num_cells), fl_pc(fl_cfg), rl_pc(rl_cfg, -20.0) {}
  };

  /// Refreshes the far-field aggregates on the slow candidate cadence
  /// (no-op while the aggregator is inactive or before the first fused
  /// pass has filled the candidate sets).
  void maybe_refresh_far_field();
  /// One sharded pass over groups of users: the group's mobility, then
  /// FrameState::step_users (candidate refresh + link-major link stepping),
  /// then each user's forward measurements (fused; see step_frame).
  void step_mobility_and_channel();
  /// This user's forward pilots over its candidate cells, then the
  /// hand-off update on them (ActiveSet::update_linear, every provider).
  void forward_measure_user(std::size_t user);
  void step_reverse_measurements();
  /// Closed-loop power control for every provider, as four passes: scalar
  /// SIR measurement into a lane (A), every linear -> dB conversion as one
  /// batch (B), loop stepping plus saturation/voice metrics in ascending
  /// user order (C), and every dBm -> W refresh as one batch (D).  No
  /// cross-user state flows through power control within a frame (every
  /// SIR reads last frame's powers and this user's pre-update loop state),
  /// so per element the refmath passes B and D are exactly
  /// ClosedLoopPowerControl::update() and the run is bit-identical to one
  /// per-user update() loop.  The split stays because it is measurably
  /// faster: one per-user loop lost 8 of 10 alternating hotspot-contend
  /// pairs to it, by about 1% of frames per second.
  void step_power_control();
  void step_traffic();
  /// Snapshots this frame's measurements and the queued eligible requests
  /// into the read-only FrameContext handed to the admission policy, one
  /// request bucket per (carrier, direction) scheduling round.
  void build_frame_context();
  /// One scheduling round for one direction on one carrier: only
  /// same-carrier users share power/rise budgets.  Delegates the decision
  /// to the admission policy and applies grants/rejections.
  void run_admission(mac::LinkDirection direction, int carrier);
  void step_transmission();
  void update_transmit_powers();
  void collect_frame_metrics();

  /// Runs fn(begin, end) over `n` items split into sim_threads_ contiguous
  /// shards (inline when single-threaded).  The sharded loops must be free
  /// of cross-item accumulators and shared scratch; see the class comment.
  void for_shards(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Index of the (cell, carrier) interference domain in stations_.
  std::size_t station_index(std::size_t cell, int carrier) const {
    return cell * static_cast<std::size_t>(config_.placement.carriers) +
           static_cast<std::size_t>(carrier);
  }
  /// Index of the (carrier, direction) scheduling round bookkeeping slot.
  std::size_t round_index(int carrier, bool forward) const {
    return static_cast<std::size_t>(carrier) * 2 + (forward ? 0 : 1);
  }

  /// The snapshot layout, listed once (common/serialize.hpp): snapshot()
  /// walks both halves with a writer, restore() with a reader.  The header
  /// is the archive fingerprint (magic/version/config), expected field by
  /// field and never written into the simulator; the body is every user,
  /// station and sub-model state a later frame reads, and refuses a frame
  /// clock past `max_frame`.
  template <typename Archive>
  void header_fields(Archive& ar) const;
  template <typename Self, typename Archive>
  static void body_fields(Self& sim, Archive& ar, std::int64_t max_frame);
  /// Archive fingerprint check; reads from `r` but mutates no simulator
  /// state, leaving `r` positioned at the body.
  bool check_snapshot_header(common::BinaryReader& r) const;
  /// Body restore, ending in check_invariants(): mutates state and may
  /// partially apply on a truncated, corrupt or forged archive -- restore()
  /// wraps it transactionally with a rollback snapshot so callers never
  /// observe the partial state.  Refuses a frame clock past `max_frame`:
  /// total_frames() for a caller's archive, the simulator's own clock for
  /// the rollback (a caller may have stepped past the horizon).
  bool restore_body(common::BinaryReader& r, std::int64_t max_frame);
  bool carrier_in_range(int carrier) const {
    return carrier >= 0 && carrier < config_.placement.carriers;
  }

  bool in_warmup() const { return now_s_ < config_.warmup_s; }
  double sch_mean_csi(const User& u) const;
  double delta_beta(const User& u) const;
  int mobile_tx_upper_bound(const User& u) const;
  std::size_t coverage_bin(const User& u) const;

  SystemConfig config_;
  cell::HexLayout layout_;
  channel::PathLoss path_loss_;
  phy::Spreading spreading_;
  phy::AdaptationPolicy policy_;
  std::unique_ptr<admission::AdmissionPolicy> admission_policy_;
  common::Rng rng_;

  std::vector<BaseStation> stations_;
  std::vector<User> users_;
  FrameState state_;  // SoA per-link channel state and candidate sets
  /// Last frame's mobile TX power and carrier per user, written by
  /// update_transmit_powers() as compact arrays (not User fields): the
  /// reverse-rise gather walks users in cell-major order, and pulling
  /// whole User structs there would thrash the cache.
  std::vector<double> prev_tx_w_;
  std::vector<int> user_carrier_;
  /// Ring-aggregated interference from each user's non-candidate cells
  /// (the culled provider only; see src/sim/far_field.hpp).  The forward term
  /// lives in FrameState's aggregate lane; the reverse term is per station.
  FarFieldAggregator far_field_;
  double far_refresh_left_s_ = 0.0;
  std::vector<std::uint32_t> far_anchor_;   // refresh scratch: primaries
  std::vector<double> far_station_w_;       // refresh scratch: station powers
  RequestQueues queues_;  // per-(direction, carrier) pending requests
  std::size_t sim_threads_ = 1;
  std::unique_ptr<common::ThreadPool> pool_;  // persistent intra-frame pool
  // Per-frame admission snapshot (rebuilt by build_frame_context).
  admission::FrameContext frame_ctx_;
  std::vector<User*> pending_users_;  // aligned with frame_ctx_.requests
  /// [start, end) of each (carrier, direction) round in frame_ctx_.requests.
  std::vector<std::pair<std::size_t, std::size_t>> round_ranges_;
  std::vector<std::size_t> round_scratch_;  // request indices of one round
  std::vector<int> grant_m_scratch_, grant_carrier_scratch_;
  /// step_power_control lane scratch: one entry per closed-loop update
  /// this frame (a user contributes kRlData, or kForward plus kRlPilot).
  enum class PcKind : std::uint8_t { kRlData, kForward, kRlPilot };
  struct PcEntry {
    std::uint32_t user;
    PcKind kind;
  };
  std::vector<PcEntry> pc_entries_;
  std::vector<double> pc_sir_linear_, pc_sir_db_;  // pass A -> B lanes
  std::vector<double> pc_dbm_, pc_watt_;           // pass C -> D lanes
  double noise_w_ = 0.0;
  double l_max_w_ = 0.0;
  double mobile_max_w_ = 0.0;  // dbm_to_watt(mobile_max_power_dbm), hoisted
  double fch_pg_ = 0.0;          // W / R_f processing gain
  double fch_sir_target_ = 0.0;  // linear Eb/I0 target
  double now_s_ = 0.0;
  std::int64_t frame_count_ = 0;
  SimMetrics metrics_;

  // Service seams.
  TrafficMode traffic_mode_ = TrafficMode::kInternal;
  std::vector<double> injected_bits_;  // per user; < 0 = nothing buffered
  std::function<void(int, double)> arrival_observer_;
  bool decision_timing_ = false;
  std::vector<double> decision_times_s_;  // seconds per timed frame
  std::int64_t decisions_made_ = 0;       // requests decided while timing
};

}  // namespace wcdma::sim
