// Scheduling sub-layer (Section 3.2): solvers for the multiple-burst
// admission integer program, plus the baselines the paper compares against.
//
//  * JabaSdScheduler — the paper's contribution: solve the IP (spatial
//    dimension only; bursts start at the next frame boundary).  Exact
//    branch-and-bound up to a size threshold, greedy marginal-utility
//    beyond it (the greedy *is* the polynomial JABA-SD heuristic and is
//    near-optimal on these packing instances; see bench_solver_gap).
//  * FcfsScheduler — cdma2000-style first-come-first-serve burst grants
//    (ref [1]); optionally single-burst-per-frame (ref [2]).
//  * EqualShareScheduler — "empirical scheduling such as equal sharing
//    between multiple burst requests" (ref [8]).
//  * RandomScheduler — random-order max-grant; fairness/sanity reference.
//
// All schedulers return assignments that satisfy the admissible region and
// the per-request bounds by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "src/admission/objectives.hpp"
#include "src/common/rng.hpp"
#include "src/opt/branch_bound.hpp"

namespace wcdma::admission {

/// One scheduling round's integer program (Eq. 19-24) for one link
/// direction: maximise c' m over the direction's admissible region
/// A m <= b (b >= 0, so m = 0 rejecting all stays feasible) and the Eq. 24
/// bounds m_j <= u_j.  Column j <-> requests[j].
struct BurstProblem : opt::IntegerProgram {
  std::vector<RequestView> requests;

  std::size_t size() const { return requests.size(); }
};

/// Builds the BurstProblem over the region A m <= b: the objective
/// coefficients (J1 or J2) and Eq. 24 bounds of `requests`; validates
/// dimensions.
BurstProblem make_burst_problem(common::Matrix a, common::Vector b,
                                std::vector<RequestView> requests, ObjectiveKind kind,
                                const DelayPenaltyConfig& penalty,
                                const mac::MacTimersConfig& timers, double fch_bit_rate,
                                double min_burst_s, int max_sgr);

struct Allocation {
  std::vector<int> m;           // spreading-gain ratio per request (0 = reject)
  double objective = 0.0;       // value of c' m
  bool proven_optimal = false;  // true only for exact solves
  std::int64_t nodes = 0;       // B&B nodes (0 for heuristics)

  int granted_count() const;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual Allocation schedule(const BurstProblem& problem) = 0;

  /// Checkpoint hooks: only stochastic schedulers carry evolved state (the
  /// "random" baseline's RNG); deterministic solvers keep the empty default.
  virtual void save(common::BinaryWriter&) const {}
  virtual bool load(common::BinaryReader&) { return true; }
};

class JabaSdScheduler final : public Scheduler {
 public:
  struct Options {
    std::size_t exact_threshold = 32;  // use B&B up to this many requests
    std::int64_t max_nodes = 100000;
  };
  JabaSdScheduler();
  explicit JabaSdScheduler(const Options& options);
  Allocation schedule(const BurstProblem& problem) override;

 private:
  Options options_;
};

/// Pure greedy marginal-utility heuristic (the polynomial JABA-SD engine).
class GreedyScheduler final : public Scheduler {
 public:
  Allocation schedule(const BurstProblem& problem) override;
};

class FcfsScheduler final : public Scheduler {
 public:
  /// `single_burst`: grant at most one request per invocation (the strict
  /// early-cdma2000 behaviour where one data user owns the SCH).
  explicit FcfsScheduler(bool single_burst = false) : single_burst_(single_burst) {}
  Allocation schedule(const BurstProblem& problem) override;

 private:
  bool single_burst_;
};

class EqualShareScheduler final : public Scheduler {
 public:
  Allocation schedule(const BurstProblem& problem) override;
};

class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(common::Rng rng) : rng_(rng) {}
  Allocation schedule(const BurstProblem& problem) override;
  void save(common::BinaryWriter& w) const override;
  bool load(common::BinaryReader& r) override;

 private:
  template <typename Self, typename Archive>
  static void fields(Self& scheduler, Archive& ar);

  common::Rng rng_;
};

}  // namespace wcdma::admission
