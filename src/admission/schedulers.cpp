#include "src/admission/schedulers.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::admission {

BurstProblem make_burst_problem(common::Matrix a, common::Vector b,
                                std::vector<RequestView> requests, ObjectiveKind kind,
                                const DelayPenaltyConfig& penalty,
                                const mac::MacTimersConfig& timers, double fch_bit_rate,
                                double min_burst_s, int max_sgr) {
  WCDMA_ASSERT(a.rows() == b.size());
  WCDMA_ASSERT(a.rows() == 0 || a.cols() == requests.size());
  BurstProblem problem;
  problem.a = std::move(a);
  problem.b = std::move(b);
  problem.c = objective_coefficients(requests, kind, penalty, timers);
  problem.upper.reserve(requests.size());
  for (const auto& r : requests) {
    problem.upper.push_back(
        duration_upper_bound(r.q_bits, r.delta_beta, fch_bit_rate, min_burst_s, max_sgr));
  }
  problem.requests = std::move(requests);
  return problem;
}

int Allocation::granted_count() const {
  int n = 0;
  for (int v : m) n += (v > 0) ? 1 : 0;
  return n;
}

namespace {

Allocation empty_allocation(std::size_t n) {
  Allocation a;
  a.m.assign(n, 0);
  return a;
}

/// A heuristic's allocation: `m` with its objective, checked against the
/// region and bounds.
Allocation heuristic_allocation(const BurstProblem& p, std::vector<int> m) {
  WCDMA_ASSERT(opt::ip_feasible(p, m));
  Allocation alloc;
  alloc.objective = opt::ip_objective(p, m);
  alloc.m = std::move(m);
  return alloc;
}

// Order: descending waiting time (== ascending arrival time) with user id
// as a deterministic tie-break.
std::vector<std::size_t> arrival_order(const BurstProblem& p) {
  std::vector<std::size_t> order(p.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (p.requests[a].waiting_s != p.requests[b].waiting_s) {
      return p.requests[a].waiting_s > p.requests[b].waiting_s;
    }
    return p.requests[a].user < p.requests[b].user;
  });
  return order;
}

}  // namespace

JabaSdScheduler::JabaSdScheduler() : options_(Options{}) {}

JabaSdScheduler::JabaSdScheduler(const Options& options) : options_(options) {}

Allocation JabaSdScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  if (problem.size() > options_.exact_threshold) {
    // Large instances: polynomial greedy engine.
    return heuristic_allocation(problem, opt::greedy_increments(problem));
  }
  opt::BranchBoundSolver::Options bb;
  bb.max_nodes = options_.max_nodes;
  const opt::IpResult r = opt::BranchBoundSolver(bb).solve(problem);
  Allocation alloc;
  alloc.m = r.x;
  alloc.objective = r.objective;
  alloc.proven_optimal = r.proven_optimal;
  alloc.nodes = r.nodes;
  WCDMA_ASSERT(opt::ip_feasible(problem, alloc.m));
  return alloc;
}

Allocation GreedyScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  return heuristic_allocation(problem, opt::greedy_increments(problem));
}

Allocation FcfsScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  return heuristic_allocation(
      problem, opt::grant_in_order(problem, arrival_order(problem), single_burst_));
}

Allocation EqualShareScheduler::schedule(const BurstProblem& problem) {
  const std::size_t n = problem.size();
  if (n == 0) return empty_allocation(0);

  // Serve the `count` longest-waiting requests with the largest uniform
  // SGR; shrink the served set if even m = 1 does not fit (ref [8]).
  const std::vector<std::size_t> order = arrival_order(problem);
  int max_u = 0;
  for (int u : problem.upper) max_u = std::max(max_u, u);

  for (std::size_t count = n; count >= 1; --count) {
    for (int m = max_u; m >= 1; --m) {
      std::vector<int> trial(n, 0);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j = order[i];
        trial[j] = std::min(m, problem.upper[j]);
      }
      if (opt::ip_feasible(problem, trial)) {
        return heuristic_allocation(problem, std::move(trial));
      }
    }
  }
  return empty_allocation(n);
}

Allocation RandomScheduler::schedule(const BurstProblem& problem) {
  const std::size_t n = problem.size();
  if (n == 0) return empty_allocation(0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Fisher-Yates with the scheduler's own stream.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t k = rng_.uniform_int(i);
    std::swap(order[i - 1], order[k]);
  }
  return heuristic_allocation(problem,
                              opt::grant_in_order(problem, order, /*first_only=*/false));
}

template <typename Self, typename Archive>
void RandomScheduler::fields(Self& scheduler, Archive& ar) {
  ar.field(scheduler.rng_);
}

void RandomScheduler::save(common::BinaryWriter& w) const { fields(*this, w); }

bool RandomScheduler::load(common::BinaryReader& r) {
  fields(*this, r);
  return r.ok();
}

}  // namespace wcdma::admission
