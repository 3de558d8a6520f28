// Pluggable admission-policy API for the simulator core.
//
// The paper's JABA-SD scheduler is one point in a family of burst admission
// schemes (the multi-class CAC literature frames admission as a swappable
// policy over measured state).  This header makes that seam public: each
// frame the simulator snapshots its radio measurements into a read-only
// FrameContext -- pending burst requests, per-(cell,carrier) load and rise
// measurements, and the per-user CSI views the measurement sub-layer needs
// -- and asks an AdmissionPolicy for per-(direction,carrier) grant
// decisions.  Policies can rebuild the Eq. 7/17 admissible regions for ANY
// carrier from the context, which is what makes inter-carrier hand-down
// (re-assigning a requester's carrier at grant time) expressible as a
// policy rather than a simulator edit.
//
// A string-keyed registry names and builds every policy: one row per policy
// holds its registry name (what SystemConfig, the policy= and scheduler=
// sweep axes and the CLIs speak), the label the sweep's `scheduler` column
// prints, its scheduler and whether the hand-down pass runs on top.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/admission/measurement.hpp"
#include "src/admission/schedulers.hpp"
#include "src/mac/scrm.hpp"

namespace wcdma::admission {

/// Snapshot of one pending burst request, taken at the start of the frame's
/// admission phase.  Measurement fields are carrier-independent (gains,
/// transmit powers, active-set geometry); only the cell loads in the
/// FrameContext differ per carrier, so a policy can price this request on
/// any carrier.
struct FrameRequest {
  int user = -1;        // simulator user id
  int carrier = 0;      // the carrier the request arrived on
  bool forward = true;  // burst direction

  // Scheduling view (Eq. 19-24 inputs).
  double q_bits = 0.0;
  double waiting_s = 0.0;
  double priority = 0.0;
  double delta_beta = 1.0;
  int tx_cap = 0;  // reverse: SGR cap from the mobile power budget; forward: M

  // Measurement view (Eq. 7-18 inputs).
  double fch_power_watt = 0.0;   // P_j: current forward FCH power
  double pilot_tx_watt = 0.0;    // mobile pilot TX power
  double alpha_fl = 1.0;         // reduced-active-set forward adjustment
  double alpha_rl = 1.0;         // reverse soft-handoff adjustment
  double zeta = 2.0;             // FCH-to-pilot TX ratio at the mobile
  /// Reduced active set, strongest first: (cell, local-mean gain to it).
  std::vector<std::pair<std::size_t, double>> reduced_set;
  /// SCRM pilot reports (up to 8 strongest forward pilots, footnote 6).
  std::vector<ReverseUserMeasurement::PilotReport> scrm_pilots;
};

/// Read-only per-frame measurement snapshot handed to AdmissionPolicy.
/// (cell, carrier) interference domains are indexed cell * carriers +
/// carrier, matching the simulator's station layout.
struct FrameContext {
  double now_s = 0.0;
  std::size_t num_cells = 0;
  int carriers = 1;

  /// Last frame's total forward TX power per (cell, carrier) domain (P_k).
  std::vector<double> forward_load_watt;
  /// This frame's total received power per (cell, carrier) domain (L_k).
  std::vector<double> reverse_interference_watt;

  // Region and objective parameters (from SystemConfig).
  double p_max_watt = 20.0;
  double l_max_watt = 0.0;
  double gamma_s = 3.2;
  double kappa_linear = 1.585;
  ObjectiveKind objective = ObjectiveKind::kJ2DelayAware;
  DelayPenaltyConfig penalty{};
  mac::MacTimersConfig timers{};
  double fch_bit_rate = 9600.0;
  double min_burst_s = 0.080;
  int max_sgr = 16;

  /// Every request eligible for scheduling this frame (all carriers and
  /// directions), in user-id order.
  std::vector<FrameRequest> requests;

  std::size_t station_index(std::size_t cell, int carrier) const {
    return cell * static_cast<std::size_t>(carriers) + static_cast<std::size_t>(carrier);
  }
  double forward_load(std::size_t cell, int carrier) const {
    return forward_load_watt[station_index(cell, carrier)];
  }
  double reverse_interference(std::size_t cell, int carrier) const {
    return reverse_interference_watt[station_index(cell, carrier)];
  }

  /// Assembles the measurement sub-layer's BurstProblem (region, objective
  /// coefficients, Eq. 24 bounds) for `subset` (indices into `requests`)
  /// priced on `carrier`.  Pure: callable for any carrier, any subset.
  BurstProblem make_problem(mac::LinkDirection direction, int carrier,
                            const std::vector<std::size_t>& subset) const;
};

/// One granted request: `request` indexes FrameContext::requests.  `carrier`
/// is the serving carrier -- equal to the request's own carrier unless the
/// policy hands the burst down to another one.
struct PolicyGrant {
  std::size_t request = 0;
  int m = 0;
  int carrier = 0;
};

/// The admission seam: one decide() call per (direction, carrier) scheduling
/// round.  `round` lists the indices of ctx.requests pending on that
/// (direction, carrier).  Requests absent from the returned grants are
/// rejected for this frame (SCRM retry gate applies).
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual std::vector<PolicyGrant> decide(const FrameContext& ctx,
                                          mac::LinkDirection direction, int carrier,
                                          const std::vector<std::size_t>& round) = 0;

  /// Checkpoint hooks, forwarded to the wrapped scheduler where one exists;
  /// policies without evolved state keep the empty default.
  virtual void save(common::BinaryWriter&) const {}
  virtual bool load(common::BinaryReader&) { return true; }
};

/// Adapts a scheduling-sub-layer Scheduler (Section 3.2) to the policy API:
/// builds the round's BurstProblem on the requests' own carrier and grants
/// the scheduler's allocation verbatim.  All six schedulers ship through
/// this wrapper; the default-policy path is bit-identical to the pre-seam
/// simulator.
class SchedulerPolicy : public AdmissionPolicy {
 public:
  explicit SchedulerPolicy(std::unique_ptr<Scheduler> scheduler);
  std::vector<PolicyGrant> decide(const FrameContext& ctx, mac::LinkDirection direction,
                                  int carrier, const std::vector<std::size_t>& round) override;
  void save(common::BinaryWriter& w) const override;
  bool load(common::BinaryReader& r) override;

 protected:
  std::unique_ptr<Scheduler> scheduler_;
};

/// Inter-carrier hand-down (load balancing): run the base scheduler on the
/// round's own carrier first; every request it rejects is re-priced on the
/// least-loaded other carrier and granted there when the admissible region
/// has room.  Rejects sharing a target carrier are re-solved jointly on
/// that carrier's region, so one round's hand-downs cannot over-admit it.
/// Across rounds the usual lagged-fixed-point semantics apply (rounds price
/// against last frame's loads and do not see each other's grants; the
/// simulator's physical power/rise caps absorb transient over-commitment,
/// exactly as for same-carrier forward/reverse rounds).  Only expressible
/// through the policy API, which lets a grant carry a different carrier
/// than the request.  It is SchedulerPolicy plus that second pass: only
/// decide() differs.
class HandDownPolicy final : public SchedulerPolicy {
 public:
  using SchedulerPolicy::SchedulerPolicy;
  std::vector<PolicyGrant> decide(const FrameContext& ctx, mac::LinkDirection direction,
                                  int carrier, const std::vector<std::size_t>& round) override;
};

// --- PolicyRegistry: one row per policy -------------------------------------
// Every lookup below aborts on an unknown name (probe with has_policy).
/// Registered policy names, in registry order.
std::vector<std::string> policy_names();
bool has_policy(const std::string& name);
/// Builds the named policy: the row's scheduler wrapped in SchedulerPolicy,
/// or in HandDownPolicy for a hand-down row.  `seed` feeds stochastic
/// schedulers (the "random" baseline).
std::unique_ptr<AdmissionPolicy> make_policy(const std::string& name,
                                             std::uint64_t seed = 1);
/// The named row's bare scheduler, for callers that solve one BurstProblem.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          std::uint64_t seed = 1);
/// Display label ("JABA-SD" for "jaba-sd"): the sweep's `scheduler` column.
std::string policy_label(const std::string& name);
std::string policy_description(const std::string& name);

}  // namespace wcdma::admission
