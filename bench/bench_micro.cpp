// E13 — google-benchmark microbenchmarks for the computational kernels:
// simplex LP solves, exact branch-and-bound and the greedy engine at
// admission-problem sizes, a round's problem build, channel evolution, and the
// full simulator frame step.
#include <benchmark/benchmark.h>

#include "src/admission/policy.hpp"
#include "src/admission/schedulers.hpp"
#include "src/channel/fading.hpp"
#include "src/common/rng.hpp"
#include "src/opt/branch_bound.hpp"
#include "src/opt/knapsack.hpp"
#include "src/opt/simplex.hpp"
#include "src/sim/simulator.hpp"

using namespace wcdma;

namespace {

opt::IntegerProgram make_ip(std::size_t nd, std::size_t cells, std::uint64_t seed) {
  common::Rng rng(seed);
  opt::IntegerProgram p;
  p.a = common::Matrix(cells, nd, 0.0);
  for (std::size_t k = 0; k < cells; ++k) {
    for (std::size_t j = 0; j < nd; ++j) {
      p.a(k, j) = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.05, 1.0);
    }
  }
  p.b.assign(cells, 0.0);
  for (auto& b : p.b) b = rng.uniform(1.0, 8.0);
  p.c.assign(nd, 0.0);
  for (auto& c : p.c) c = rng.uniform(0.1, 3.0);
  p.upper.assign(nd, 16);
  return p;
}

void BM_SimplexSolve(benchmark::State& state) {
  const auto nd = static_cast<std::size_t>(state.range(0));
  const opt::IntegerProgram ip = make_ip(nd, std::max<std::size_t>(2, nd / 4), 1);
  opt::LpProblem lp;
  lp.a = ip.a;
  lp.b = ip.b;
  lp.c = ip.c;
  lp.upper.assign(nd, 16.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BranchBoundExact(benchmark::State& state) {
  const auto nd = static_cast<std::size_t>(state.range(0));
  const opt::IntegerProgram ip = make_ip(nd, std::max<std::size_t>(2, nd / 4), 2);
  opt::BranchBoundSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(ip));
  }
}
BENCHMARK(BM_BranchBoundExact)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GreedyIncrements(benchmark::State& state) {
  const auto nd = static_cast<std::size_t>(state.range(0));
  const opt::IntegerProgram ip = make_ip(nd, std::max<std::size_t>(2, nd / 4), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::greedy_increments(ip));
  }
}
BENCHMARK(BM_GreedyIncrements)->Arg(8)->Arg(32)->Arg(128);

void BM_KnapsackDp(benchmark::State& state) {
  common::Rng rng(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> w(n);
  std::vector<double> v(n);
  std::vector<int> u(n, 8);
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = 1 + static_cast<std::int64_t>(rng.uniform_int(20));
    v[j] = rng.uniform(0.1, 3.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_bounded_knapsack(w, 200, v, u));
  }
}
BENCHMARK(BM_KnapsackDp)->Arg(8)->Arg(32);

void BM_ForwardProblemBuild(benchmark::State& state) {
  const std::size_t nd = static_cast<std::size_t>(state.range(0));
  admission::FrameContext ctx;
  ctx.num_cells = 19;
  ctx.forward_load_watt.assign(19, 10.0);
  ctx.p_max_watt = 20.0;
  ctx.gamma_s = 3.2;
  common::Rng rng(5);
  for (std::size_t j = 0; j < nd; ++j) {
    admission::FrameRequest r;
    r.q_bits = 1e5;
    r.tx_cap = 16;
    r.reduced_set = {{rng.uniform_int(19), 1.0}, {rng.uniform_int(19), 1.0}};
    r.fch_power_watt = rng.uniform(0.01, 0.5);
    r.alpha_fl = 1.8;
    ctx.requests.push_back(r);
  }
  std::vector<std::size_t> round(nd);
  for (std::size_t j = 0; j < nd; ++j) round[j] = j;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.make_problem(mac::LinkDirection::kForward, 0, round));
  }
}
BENCHMARK(BM_ForwardProblemBuild)->Arg(8)->Arg(32);

void BM_Ar1FadingStep(benchmark::State& state) {
  channel::Ar1Fading fading(30.0, 0.02, common::Rng(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fading.step(0.02));
  }
}
BENCHMARK(BM_Ar1FadingStep);

void BM_JakesFadingStep(benchmark::State& state) {
  channel::JakesFading fading(30.0, common::Rng(7), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fading.step(0.02));
  }
}
BENCHMARK(BM_JakesFadingStep);

void BM_SimulatorFrame(benchmark::State& state) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = static_cast<int>(state.range(0));
  cfg.voice.users = 30;
  cfg.data.users = 10;
  cfg.sim_duration_s = 1e9;  // never ends on its own
  sim::Simulator simulator(cfg);
  for (int i = 0; i < 50; ++i) simulator.step_frame();  // settle
  for (auto _ : state) {
    simulator.step_frame();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorFrame)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
