#include "src/opt/branch_bound.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"

namespace wcdma::opt {

namespace {

// The grant checks' tolerances, absolute for now.  A x <= b holds when no
// row exceeds its bound by more than kFitTol; one more unit of a variable
// fits a row when the row's slack is short of it by at most kUnitFitSlack
// (greedy_increments), or when the slack's quotient by the row's
// coefficient rounds up to the next integer within kUnitFitSlack
// (grant_in_order).
constexpr double kFitTol = 1e-9;
constexpr double kUnitFitSlack = 1e-12;

struct Node {
  std::vector<int> lo;
  std::vector<int> hi;
};

// LP relaxation of the subproblem with variable bounds [lo, hi]:
// substitute x = lo + y, 0 <= y <= hi - lo.
LpResult solve_node_lp(const IntegerProgram& p, const Node& node) {
  const std::size_t n = p.c.size();
  LpProblem lp;
  lp.a = p.a;
  lp.c = p.c;
  lp.b = p.b;
  // b' = b - A * lo
  common::Vector lo_d(n);
  for (std::size_t j = 0; j < n; ++j) lo_d[j] = static_cast<double>(node.lo[j]);
  if (p.a.rows() > 0) {
    const common::Vector shift = p.a.multiply(lo_d);
    for (std::size_t r = 0; r < lp.b.size(); ++r) lp.b[r] -= shift[r];
  }
  lp.upper.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    lp.upper[j] = static_cast<double>(node.hi[j] - node.lo[j]);
    WCDMA_DEBUG_ASSERT(lp.upper[j] >= 0.0);
  }
  LpResult r = solve_lp(lp);
  if (r.status == LpStatus::kOptimal) {
    for (std::size_t j = 0; j < n; ++j) r.x[j] += lo_d[j];
    r.objective = common::dot(p.c, r.x);
  }
  return r;
}

}  // namespace

double ip_objective(const IntegerProgram& p, const std::vector<int>& x) {
  WCDMA_ASSERT(x.size() == p.c.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) acc += p.c[j] * static_cast<double>(x[j]);
  return acc;
}

bool ip_feasible(const IntegerProgram& p, const std::vector<int>& x) {
  return ip_feasible(p, x, kFitTol);
}

bool ip_feasible(const IntegerProgram& p, const std::vector<int>& x, double tol) {
  if (x.size() != p.c.size()) return false;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < 0 || x[j] > p.upper[j]) return false;
  }
  if (p.a.rows() == 0) return true;
  common::Vector xd(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) xd[j] = static_cast<double>(x[j]);
  return common::satisfies(p.a, xd, p.b, tol);
}

std::vector<int> greedy_increments(const IntegerProgram& p) {
  const std::size_t n = p.c.size();
  const std::size_t k = p.a.rows();
  std::vector<int> x(n, 0);
  common::Vector slack = p.b;

  // A zero-increment must already be feasible; if some b < 0 the region
  // admits nothing.
  for (std::size_t r = 0; r < k; ++r) {
    if (slack[r] < 0.0) return x;
  }

  // Repeatedly add the unit increment with the best objective gain per unit
  // of bottleneck-resource consumption.
  for (;;) {
    double best_score = 0.0;
    std::size_t best_j = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (x[j] >= p.upper[j] || p.c[j] <= 0.0) continue;
      // Feasibility of one more unit and its tightest-resource usage.
      bool fits = true;
      double worst_frac = 0.0;  // largest fraction of remaining slack consumed
      for (std::size_t r = 0; r < k; ++r) {
        const double a = p.a(r, j);
        if (a <= 0.0) continue;
        if (a > slack[r] + kUnitFitSlack) {
          fits = false;
          break;
        }
        worst_frac = std::max(worst_frac, a / std::max(slack[r], 1e-300));
      }
      if (!fits) continue;
      // Score: utility per unit of bottleneck consumption; pure utility if
      // the increment consumes nothing.
      const double score = worst_frac > 0.0 ? p.c[j] / worst_frac : p.c[j] * 1e12;
      if (score > best_score) {
        best_score = score;
        best_j = j;
      }
    }
    if (best_j == n) break;
    ++x[best_j];
    for (std::size_t r = 0; r < k; ++r) slack[r] -= p.a(r, best_j);
  }
  return x;
}

namespace {

// Largest value of variable j that fits the remaining slack, up to cap.
int max_feasible_grant(const IntegerProgram& p, const common::Vector& slack,
                       std::size_t j, int cap) {
  int best = cap;
  for (std::size_t r = 0; r < p.a.rows(); ++r) {
    const double a = p.a(r, j);
    if (a <= 0.0) continue;
    const int fit = static_cast<int>(std::floor(slack[r] / a + kUnitFitSlack));
    best = std::min(best, fit);
    if (best <= 0) return 0;
  }
  return best;
}

void consume(const IntegerProgram& p, common::Vector& slack, std::size_t j, int grant) {
  for (std::size_t r = 0; r < p.a.rows(); ++r) {
    slack[r] -= p.a(r, j) * static_cast<double>(grant);
    WCDMA_DEBUG_ASSERT(slack[r] >= -kFitTol);
  }
}

}  // namespace

std::vector<int> grant_in_order(const IntegerProgram& p,
                                const std::vector<std::size_t>& order, bool first_only) {
  std::vector<int> x(p.c.size(), 0);
  common::Vector slack = p.b;
  for (const std::size_t j : order) {
    const int grant = max_feasible_grant(p, slack, j, p.upper[j]);
    if (grant <= 0) continue;
    x[j] = grant;
    consume(p, slack, j, grant);
    if (first_only) break;
  }
  return x;
}

IpResult BranchBoundSolver::solve(const IntegerProgram& p) const {
  const std::size_t n = p.c.size();
  WCDMA_ASSERT(p.upper.size() == n);
  WCDMA_ASSERT(p.a.rows() == p.b.size());

  IpResult result;
  result.x.assign(n, 0);

  // Root node bounds.
  Node root;
  root.lo.assign(n, 0);
  root.hi = p.upper;

  // x = 0 must be feasible for the IP to make sense (m = 0 rejects all).
  const bool zero_feasible = ip_feasible(p, result.x);
  if (!zero_feasible) {
    result.feasible = false;
    result.proven_optimal = true;
    return result;
  }
  result.feasible = true;

  // Incumbent from the greedy heuristic.
  std::vector<int> incumbent = greedy_increments(p);
  double incumbent_obj = ip_objective(p, incumbent);
  WCDMA_ASSERT(ip_feasible(p, incumbent));

  std::vector<Node> stack;
  stack.push_back(root);
  bool hit_limit = false;
  bool root_done = false;
  std::vector<double> x(n);  // the node's LP primal, clamped into its box

  while (!stack.empty()) {
    if (result.nodes >= options_.max_nodes) {
      hit_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes;

    const LpResult lp = solve_node_lp(p, node);
    if (!root_done) {
      result.lp_bound = lp.status == LpStatus::kOptimal ? lp.objective : 0.0;
      root_done = true;
    }
    if (lp.status != LpStatus::kOptimal) continue;  // infeasible subtree
    if (lp.objective <= incumbent_obj + options_.bound_tol) continue;  // pruned

    // The simplex can return a primal a hair outside the node's box on
    // badly scaled rows.  Branching on such a value yields a child equal
    // to its parent, which depth-first search would re-push until the node
    // limit; clamped into [lo, hi], every fractional value lies strictly
    // inside the box, so both children below are strictly smaller.
    for (std::size_t j = 0; j < n; ++j) {
      x[j] = std::clamp(lp.x[j], static_cast<double>(node.lo[j]),
                        static_cast<double>(node.hi[j]));
    }

    // Find the most fractional variable.
    std::size_t frac_j = n;
    double frac_dist = options_.integrality_tol;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = x[j];
      const double d = std::fabs(v - std::round(v));
      if (d > frac_dist) {
        frac_dist = d;
        frac_j = j;
      }
    }

    if (frac_j == n) {
      // Integral LP optimum: new incumbent.
      std::vector<int> cand(n);
      for (std::size_t j = 0; j < n; ++j) cand[j] = static_cast<int>(std::lround(x[j]));
      if (ip_feasible(p, cand)) {
        const double obj = ip_objective(p, cand);
        if (obj > incumbent_obj) {
          incumbent = std::move(cand);
          incumbent_obj = obj;
        }
      }
      continue;
    }

    // Branch: x_j <= floor(v)  |  x_j >= ceil(v).  Push the "down" child
    // last so DFS explores it first (tends to find incumbents early in
    // packing problems... the up child often infeasible).
    const int fl = static_cast<int>(std::floor(x[frac_j]));
    WCDMA_ASSERT(node.lo[frac_j] <= fl && fl < node.hi[frac_j] &&
                 "a branch must shrink its node's box");
    Node up = node;
    up.lo[frac_j] = fl + 1;
    stack.push_back(std::move(up));
    Node down = std::move(node);
    down.hi[frac_j] = fl;
    stack.push_back(std::move(down));
  }

  result.x = incumbent;
  result.objective = incumbent_obj;
  result.proven_optimal = !hit_limit;
  return result;
}

}  // namespace wcdma::opt
