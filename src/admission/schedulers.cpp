#include "src/admission/schedulers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::admission {

opt::IntegerProgram BurstProblem::to_ip() const {
  opt::IntegerProgram ip;
  ip.a = region.a;
  ip.b = region.b;
  ip.c = c;
  ip.upper = upper;
  return ip;
}

BurstProblem make_burst_problem(Region region, std::vector<RequestView> requests,
                                ObjectiveKind kind, const DelayPenaltyConfig& penalty,
                                const mac::MacTimersConfig& timers, double fch_bit_rate,
                                double min_burst_s, int max_sgr) {
  WCDMA_ASSERT(region.empty() || region.a.cols() == requests.size());
  BurstProblem problem;
  problem.requests = std::move(requests);
  problem.region = std::move(region);
  problem.c = objective_coefficients(problem.requests, kind, penalty, timers);
  problem.upper.reserve(problem.requests.size());
  for (const auto& r : problem.requests) {
    problem.upper.push_back(
        duration_upper_bound(r.q_bits, r.delta_beta, fch_bit_rate, min_burst_s, max_sgr));
  }
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

double allocation_objective(const BurstProblem& p, const std::vector<int>& m) {
  double acc = 0.0;
  for (std::size_t j = 0; j < m.size(); ++j) acc += p.c[j] * static_cast<double>(m[j]);
  return acc;
}

// Largest grant for request j that fits the remaining slack, up to cap.
int max_feasible_grant(const Region& region, const common::Vector& slack, std::size_t j,
                       int cap) {
  int best = cap;
  for (std::size_t r = 0; r < region.a.rows(); ++r) {
    const double a = region.a(r, j);
    if (a <= 0.0) continue;
    const int fit = static_cast<int>(std::floor(slack[r] / a + 1e-12));
    best = std::min(best, fit);
    if (best <= 0) return 0;
  }
  return best;
}

void consume(const Region& region, common::Vector& slack, std::size_t j, int grant) {
  for (std::size_t r = 0; r < region.a.rows(); ++r) {
    slack[r] -= region.a(r, j) * static_cast<double>(grant);
    WCDMA_DEBUG_ASSERT(slack[r] >= -1e-9);
  }
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

Allocation grant_in_order(const BurstProblem& p, const std::vector<std::size_t>& order,
                          bool single_burst) {
  Allocation alloc = empty_allocation(p.size());
  common::Vector slack = p.region.b;
  for (std::size_t j : order) {
    const int grant = max_feasible_grant(p.region, slack, j, p.upper[j]);
    if (grant <= 0) continue;
    alloc.m[j] = grant;
    consume(p.region, slack, j, grant);
    if (single_burst) break;
  }
  alloc.objective = allocation_objective(p, alloc.m);
  return alloc;
}

}  // namespace

JabaSdScheduler::JabaSdScheduler() : options_(Options{}) {}

JabaSdScheduler::JabaSdScheduler(const Options& options) : options_(options) {}

Allocation JabaSdScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  const opt::IntegerProgram ip = problem.to_ip();
  if (problem.size() <= options_.exact_threshold) {
    opt::BranchBoundSolver::Options bb;
    bb.max_nodes = options_.max_nodes;
    const opt::IpResult r = opt::BranchBoundSolver(bb).solve(ip);
    Allocation alloc;
    alloc.m = r.x;
    alloc.objective = r.objective;
    alloc.proven_optimal = r.proven_optimal;
    alloc.nodes = r.nodes;
    WCDMA_ASSERT(problem.region.admits(alloc.m));
    return alloc;
  }
  // Large instances: polynomial greedy engine.
  Allocation alloc;
  alloc.m = opt::greedy_increments(ip);
  alloc.objective = allocation_objective(problem, alloc.m);
  WCDMA_ASSERT(problem.region.admits(alloc.m));
  return alloc;
}

Allocation GreedyScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  Allocation alloc;
  alloc.m = opt::greedy_increments(problem.to_ip());
  alloc.objective = allocation_objective(problem, alloc.m);
  WCDMA_ASSERT(problem.region.admits(alloc.m));
  return alloc;
}

Allocation FcfsScheduler::schedule(const BurstProblem& problem) {
  if (problem.size() == 0) return empty_allocation(0);
  const Allocation alloc = grant_in_order(problem, arrival_order(problem), single_burst_);
  WCDMA_ASSERT(problem.region.admits(alloc.m));
  return alloc;
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
      if (problem.region.admits(trial)) {
        Allocation alloc;
        alloc.m = std::move(trial);
        alloc.objective = allocation_objective(problem, alloc.m);
        return alloc;
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
  const Allocation alloc = grant_in_order(problem, order, /*single_burst=*/false);
  WCDMA_ASSERT(problem.region.admits(alloc.m));
  return alloc;
}

void RandomScheduler::save_state(common::BinaryWriter& w) const { rng_.save(w); }

bool RandomScheduler::load_state(common::BinaryReader& r) { return rng_.load(r); }

}  // namespace wcdma::admission
