#include "src/admission/policy.hpp"

#include <algorithm>
#include <map>

#include "src/common/assert.hpp"

namespace wcdma::admission {

namespace {

constexpr double kTiny = 1e-30;  // matches the simulator's measurement floor

}  // namespace

// The measurement sub-layer (Section 3.1): each row of A m <= b is one
// cell's headroom on `carrier`, priced against the round's requests.
//
// Forward link (power limited): a burst is admissible if every base station
// in the user's reduced active set retains headroom
//
//   P_k + gamma_s * sum_j m_j P_{j,k} alpha_j^{FL}  <=  P_max     (Eq. 7)
//   a_{kj} = gamma_s * P_{j,k} * alpha_j^{FL}                     (Eq. 8)
//
// Reverse link (interference limited): the extra rise at every cell must
// stay within the cap,
//
//   L_k + sum_j m_j Y_{j,k}  <=  L_max                            (Eq. 16)
//
// with, after normalising row k by L_k,
//
//   b_{kj} = gamma_s * zeta_j * xi_{j,k}^{RL} * alpha_j^{RL}      soft-HO k
//                                                                 (Eq. 12/18)
//   b_{k'j} = b_{host,j} * (xi_{j,k'}^{FL} / xi_{j,host}^{FL})    non-SHO k'
//             * kappa * (L_host / L_k')                           (Eq. 13-15)
//
// The non-SHO row projects the mobile's received power from the host cell
// onto neighbour k' through the forward-pilot path-loss ratio (path loss is
// reciprocal) plus the shadowing margin kappa.  RHS: L_max/L_k - 1.  Both
// right-hand sides are clamped to b >= 0: an already-overloaded cell admits
// no new burst but keeps m = 0 feasible.
BurstProblem FrameContext::make_problem(mac::LinkDirection direction, int carrier,
                                        const std::vector<std::size_t>& subset) const {
  WCDMA_ASSERT(carrier >= 0 && carrier < carriers);
  WCDMA_ASSERT(gamma_s > 0.0);
  const std::size_t nd = subset.size();
  common::Matrix a(num_cells, nd, 0.0);
  common::Vector b(num_cells, 0.0);

  if (direction == mac::LinkDirection::kForward) {
    WCDMA_ASSERT(p_max_watt > 0.0);
    for (std::size_t k = 0; k < num_cells; ++k) {
      b[k] = std::max(0.0, p_max_watt - forward_load(k, carrier));
    }
    for (std::size_t j = 0; j < nd; ++j) {
      const FrameRequest& r = requests[subset[j]];
      WCDMA_ASSERT(r.alpha_fl > 0.0 && r.fch_power_watt >= 0.0);
      for (const auto& leg : r.reduced_set) {
        WCDMA_ASSERT(leg.first < num_cells);
        a(leg.first, j) = gamma_s * r.fch_power_watt * r.alpha_fl;  // Eq. 8
      }
    }
  } else {
    WCDMA_ASSERT(l_max_watt > 0.0 && kappa_linear >= 1.0);
    for (std::size_t k = 0; k < num_cells; ++k) {
      const double l_k = reverse_interference(k, carrier);
      WCDMA_ASSERT(l_k > 0.0);
      b[k] = std::max(0.0, l_max_watt / l_k - 1.0);
    }
    for (std::size_t j = 0; j < nd; ++j) {
      const FrameRequest& r = requests[subset[j]];
      WCDMA_ASSERT(!r.reduced_set.empty() && r.zeta > 0.0 && r.alpha_rl > 0.0);
      // Soft-handoff rows (Eq. 12 / first case of Eq. 18), from the pilot
      // Ec/Io xi^RL each leg's base station measures.
      for (const auto& [k, gain] : r.reduced_set) {
        WCDMA_ASSERT(k < num_cells);
        const double xi_rl =
            r.pilot_tx_watt * gain / std::max(reverse_interference(k, carrier), kTiny);
        a(k, j) = gamma_s * r.zeta * std::max(xi_rl, kTiny) * r.alpha_rl;
      }

      // Neighbour rows via the SCRM forward-pilot projection (Eq. 13-15);
      // the host cell's own report is the projection's denominator.
      const std::size_t host = r.reduced_set.front().first;
      double host_fl_pilot = 0.0;
      for (const auto& [k, pilot] : r.scrm_pilots) {
        if (k == host) host_fl_pilot = pilot;
      }
      if (host_fl_pilot <= 0.0) continue;  // no usable report: skip projection
      const double host_row = a(host, j);
      const double l_host = reverse_interference(host, carrier);
      for (const auto& [k, pilot] : r.scrm_pilots) {
        WCDMA_ASSERT(k < num_cells);
        if (a(k, j) > 0.0) continue;  // already a SHO row
        if (pilot <= 0.0) continue;
        const double path_ratio = pilot / host_fl_pilot;
        a(k, j) = host_row * path_ratio * kappa_linear *
                  (l_host / reverse_interference(k, carrier));
      }
    }
  }

  std::vector<RequestView> views(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    const FrameRequest& r = requests[subset[j]];
    views[j].user = r.user;
    views[j].q_bits = r.q_bits;
    views[j].waiting_s = r.waiting_s;
    views[j].priority = r.priority;
    views[j].delta_beta = r.delta_beta;
  }

  BurstProblem problem =
      make_burst_problem(std::move(a), std::move(b), std::move(views), objective, penalty,
                         timers, fch_bit_rate, min_burst_s, max_sgr);
  for (std::size_t j = 0; j < nd; ++j) {
    problem.upper[j] = std::min(problem.upper[j], requests[subset[j]].tx_cap);
  }
  return problem;
}

namespace {

/// Shared base pass of the scheduler-backed policies: assemble the round's
/// problem on `carrier`, run the scheduler, enforce the admissible region,
/// and append one grant per positive allocation.
Allocation solve_round(Scheduler& scheduler, const FrameContext& ctx,
                       mac::LinkDirection direction, int carrier,
                       const std::vector<std::size_t>& subset,
                       std::vector<PolicyGrant>* grants) {
  const BurstProblem problem = ctx.make_problem(direction, carrier, subset);
  Allocation alloc = scheduler.schedule(problem);
  WCDMA_ASSERT(opt::ip_feasible(problem, alloc.m));
  for (std::size_t j = 0; j < subset.size(); ++j) {
    if (alloc.m[j] > 0) grants->push_back({subset[j], alloc.m[j], carrier});
  }
  return alloc;
}

}  // namespace

SchedulerPolicy::SchedulerPolicy(std::unique_ptr<Scheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  WCDMA_ASSERT(scheduler_ != nullptr);
}

std::vector<PolicyGrant> SchedulerPolicy::decide(const FrameContext& ctx,
                                                 mac::LinkDirection direction, int carrier,
                                                 const std::vector<std::size_t>& round) {
  std::vector<PolicyGrant> grants;
  solve_round(*scheduler_, ctx, direction, carrier, round, &grants);
  return grants;
}

void SchedulerPolicy::save(common::BinaryWriter& w) const { scheduler_->save(w); }

bool SchedulerPolicy::load(common::BinaryReader& r) { return scheduler_->load(r); }

std::vector<PolicyGrant> HandDownPolicy::decide(const FrameContext& ctx,
                                                mac::LinkDirection direction, int carrier,
                                                const std::vector<std::size_t>& round) {
  std::vector<PolicyGrant> grants;
  const Allocation alloc = solve_round(*scheduler_, ctx, direction, carrier, round, &grants);
  if (ctx.carriers <= 1) return grants;

  // Hand-down pass: each rejected request targets the least-loaded other
  // carrier.  Forward bursts price carriers by the primary cell's PA load;
  // reverse bursts weight the rise over the FULL reduced set (gain-weighted
  // mean), because a reverse burst raises interference at every soft-
  // hand-off leg -- picking by the primary cell alone walks into carriers
  // whose secondary-leg rise is already at the cap (rise asymmetry).
  // Requests sharing a target are re-priced JOINTLY on that carrier's
  // admissible region, so concurrent hand-downs cannot over-admit it.
  std::map<int, std::vector<std::size_t>> by_target;
  for (std::size_t j = 0; j < round.size(); ++j) {
    if (alloc.m[j] > 0) continue;
    const FrameRequest& r = ctx.requests[round[j]];
    if (r.reduced_set.empty()) continue;
    const std::size_t primary = r.reduced_set.front().first;
    int target = -1;
    double best_load = 0.0;
    for (int c = 0; c < ctx.carriers; ++c) {
      if (c == carrier) continue;
      double load = 0.0;
      if (direction == mac::LinkDirection::kForward) {
        load = ctx.forward_load(primary, c);
      } else {
        double weighted = 0.0, weight_sum = 0.0;
        for (const auto& [cell, gain] : r.reduced_set) {
          weighted += gain * ctx.reverse_interference(cell, c);
          weight_sum += gain;
        }
        load = weight_sum > 0.0 ? weighted / weight_sum
                                : ctx.reverse_interference(primary, c);
      }
      if (target < 0 || load < best_load) {
        target = c;
        best_load = load;
      }
    }
    by_target[target].push_back(round[j]);
  }
  for (const auto& [target, subset] : by_target) {
    solve_round(*scheduler_, ctx, direction, target, subset, &grants);
  }
  return grants;
}

namespace {

struct PolicyEntry {
  const char* name;
  const char* label;
  const char* description;
  std::unique_ptr<Scheduler> (*scheduler)(std::uint64_t seed);
  bool hand_down;  // HandDownPolicy instead of SchedulerPolicy
};

template <class S, auto... args>
std::unique_ptr<Scheduler> build(std::uint64_t) {
  return std::make_unique<S>(args...);
}

std::unique_ptr<Scheduler> build_random(std::uint64_t seed) {
  return std::make_unique<RandomScheduler>(common::Rng(seed));
}

const PolicyEntry kPolicies[] = {
    {"jaba-sd", "JABA-SD", "the paper's IP solve (exact B&B, greedy beyond threshold)",
     build<JabaSdScheduler>, false},
    {"jaba-sd-greedy", "JABA-SD-greedy", "pure polynomial greedy marginal-utility engine",
     build<GreedyScheduler>, false},
    {"fcfs", "FCFS", "cdma2000-style first-come-first-serve burst grants",
     build<FcfsScheduler, false>, false},
    {"fcfs-single", "FCFS-single", "strict single-burst-per-frame FCFS",
     build<FcfsScheduler, true>, false},
    {"equal-share", "EqualShare", "equal sharing between concurrent burst requests",
     build<EqualShareScheduler>, false},
    {"random", "Random", "random-order max-grant fairness baseline", build_random, false},
    {"hand-down", "HandDown", "JABA-SD plus inter-carrier hand-down of rejected requests",
     build<JabaSdScheduler>, true},
};

const PolicyEntry* find_policy(const std::string& name) {
  for (const PolicyEntry& entry : kPolicies) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

const PolicyEntry& policy_row(const std::string& name) {
  const PolicyEntry* entry = find_policy(name);
  WCDMA_ASSERT(entry != nullptr && "unknown admission policy");
  return *entry;
}

}  // namespace

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyEntry& entry : kPolicies) names.push_back(entry.name);
  return names;
}

bool has_policy(const std::string& name) { return find_policy(name) != nullptr; }

std::unique_ptr<AdmissionPolicy> make_policy(const std::string& name, std::uint64_t seed) {
  const PolicyEntry& entry = policy_row(name);
  if (entry.hand_down) return std::make_unique<HandDownPolicy>(entry.scheduler(seed));
  return std::make_unique<SchedulerPolicy>(entry.scheduler(seed));
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name, std::uint64_t seed) {
  return policy_row(name).scheduler(seed);
}

std::string policy_label(const std::string& name) { return policy_row(name).label; }

std::string policy_description(const std::string& name) {
  return policy_row(name).description;
}

}  // namespace wcdma::admission
