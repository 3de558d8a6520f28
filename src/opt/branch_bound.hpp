// Exact solver for the burst-scheduling integer program (Section 3.2):
//
//     maximize    c' m
//     subject to  A m <= b          (stacked admissible regions, A >= 0)
//                 0 <= m_j <= u_j,  m_j integer
//
// Depth-first branch-and-bound with the LP relaxation (dense simplex) as
// the bounding function and a greedy rounding pass for the initial
// incumbent.  Problem sizes in the paper's setting are Nd <= a few tens of
// concurrent requests, for which this proves optimality in well under a
// millisecond; a node limit keeps worst cases bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/opt/simplex.hpp"

namespace wcdma::opt {

struct IntegerProgram {
  common::Matrix a;        // K x N, nonnegative
  common::Vector b;        // K
  common::Vector c;        // N (maximisation; may contain zeros)
  std::vector<int> upper;  // per-variable integer upper bounds u_j >= 0
};

struct IpResult {
  bool feasible = false;
  bool proven_optimal = false;  // false if the node limit was hit
  double objective = 0.0;
  std::vector<int> x;
  std::int64_t nodes = 0;
  double lp_bound = 0.0;        // root LP relaxation value
};

class BranchBoundSolver {
 public:
  struct Options {
    std::int64_t max_nodes = 200000;
    double integrality_tol = 1e-6;
    double bound_tol = 1e-9;
  };

  BranchBoundSolver() = default;
  explicit BranchBoundSolver(const Options& options) : options_(options) {}

  IpResult solve(const IntegerProgram& problem) const;

 private:
  Options options_{};
};

// Every test of a grant against A x <= b lives in branch_bound.cpp, which
// names its tolerances once.

/// Greedy feasible solution by repeated best-marginal-utility increments;
/// used as the B&B incumbent and exposed because it *is* the polynomial
/// JABA-SD scheduling heuristic (see admission/schedulers).
std::vector<int> greedy_increments(const IntegerProgram& problem);

/// In-order fill (the FCFS and Random baselines): each variable of `order`
/// in turn takes the largest value the remaining slack and its bound allow;
/// `first_only` stops after the first positive grant.
std::vector<int> grant_in_order(const IntegerProgram& problem,
                                const std::vector<std::size_t>& order, bool first_only);

/// Objective value of an integer point.
double ip_objective(const IntegerProgram& problem, const std::vector<int>& x);

/// True iff x is within bounds and satisfies A x <= b within the grant
/// checks' tolerance, or within `tol` where one is given.
bool ip_feasible(const IntegerProgram& problem, const std::vector<int>& x);
bool ip_feasible(const IntegerProgram& problem, const std::vector<int>& x, double tol);

}  // namespace wcdma::opt
