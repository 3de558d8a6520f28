// E9 — scheduling sub-layer solvers on randomized admission instances:
// exact branch-and-bound (JABA-SD) vs the greedy engine vs the baselines,
// reporting objective ratios, optimality-proof rate, B&B nodes and runtime.
//
// Expected shape: greedy stays within a few percent of exact at every size;
// FCFS/equal-share leave 20-50% of the objective on the table; exact solve
// times stay in the sub-millisecond to millisecond range for the Nd the
// paper's scenarios produce.
#include <chrono>
#include <cstdio>

#include "src/admission/schedulers.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"

using namespace wcdma;
using Clock = std::chrono::steady_clock;

namespace {

admission::BurstProblem random_problem(common::Rng& rng, std::size_t nd,
                                       std::size_t cells) {
  common::Matrix a(cells, nd, 0.0);
  for (std::size_t k = 0; k < cells; ++k) {
    for (std::size_t j = 0; j < nd; ++j) {
      a(k, j) = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.05, 1.0);
    }
  }
  common::Vector b(cells);
  for (auto& v : b) v = rng.uniform(1.0, 8.0);
  std::vector<admission::RequestView> requests(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    requests[j].user = static_cast<int>(j);
    requests[j].q_bits = rng.uniform(3.0e4, 1.0e6);
    requests[j].waiting_s = rng.uniform(0.0, 8.0);
    requests[j].delta_beta = rng.uniform(0.1, 2.0);
  }
  return make_burst_problem(std::move(a), std::move(b), std::move(requests),
                            admission::ObjectiveKind::kJ2DelayAware, {}, {}, 9600.0,
                            0.080, 16);
}

}  // namespace

int main() {
  common::Rng rng(909);
  common::Table t({"Nd", "cells", "greedy/exact", "fcfs/exact", "eqshare/exact",
                   "proof-rate", "avg-nodes", "exact-us", "greedy-us"});
  for (const std::size_t nd : {4u, 8u, 16u, 32u, 64u}) {
    const std::size_t cells = std::max<std::size_t>(2, nd / 4);
    const int trials = 40;
    double greedy_ratio = 0.0, fcfs_ratio = 0.0, eq_ratio = 0.0;
    double nodes = 0.0, exact_us = 0.0, greedy_us = 0.0;
    int proofs = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const admission::BurstProblem p = random_problem(rng, nd, cells);

      admission::JabaSdScheduler::Options opts;
      opts.exact_threshold = 128;  // force exact at every size here
      opts.max_nodes = 300000;
      admission::JabaSdScheduler exact(opts);
      const auto t0 = Clock::now();
      const admission::Allocation best = exact.schedule(p);
      exact_us += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      proofs += best.proven_optimal ? 1 : 0;
      nodes += static_cast<double>(best.nodes);

      admission::GreedyScheduler greedy;
      const auto t1 = Clock::now();
      const admission::Allocation g = greedy.schedule(p);
      greedy_us += std::chrono::duration<double, std::micro>(Clock::now() - t1).count();

      admission::FcfsScheduler fcfs;
      admission::EqualShareScheduler eq;
      const double denom = std::max(best.objective, 1e-12);
      greedy_ratio += g.objective / denom;
      fcfs_ratio += fcfs.schedule(p).objective / denom;
      eq_ratio += eq.schedule(p).objective / denom;
    }
    t.add_numeric_row({static_cast<double>(nd), static_cast<double>(cells),
                       greedy_ratio / trials, fcfs_ratio / trials, eq_ratio / trials,
                       static_cast<double>(proofs) / trials, nodes / trials,
                       exact_us / trials, greedy_us / trials},
                      4);
  }
  t.print("E9: scheduler objective ratios and exact-solver cost (40 trials/row)");
  return 0;
}
