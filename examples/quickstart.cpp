// Quickstart: build one multiple-burst admission problem by hand and solve
// it with JABA-SD and the baselines.
//
// Scenario: two cells, four concurrent burst requests with different
// channel qualities (delta_beta), waiting times and burst sizes.  Shows the
// measurement sub-layer -> scheduling sub-layer flow of Section 3 without
// the full dynamic simulator.
#include <cstdio>

#include "src/admission/policy.hpp"
#include "src/common/table.hpp"

using namespace wcdma;

int main() {
  // ---- Measurement sub-layer: two cells' forward loads and the Eq. 7-24
  // parameters (FrameContext defaults: P_max = 20 W, gamma_s = 3.2, J2).
  admission::FrameContext ctx;
  ctx.num_cells = 2;
  ctx.forward_load_watt = {9.0, 12.0};  // current loading of the two cells

  // Four requests: users 0/1 homed on cell 0, users 2/3 on cell 1; user 3
  // is in soft hand-off with both cells (two reduced-active-set legs).
  // Each carries its FCH power, channel-adaptive throughput ratio, wait
  // and burst size.
  const double fch_w[4] = {0.050, 0.220, 0.080, 0.120};  // user 1: cell edge
  const double q[4] = {200e3, 120e3, 400e3, 80e3};       // burst bits
  const double waits[4] = {0.1, 2.5, 0.4, 11.0};         // seconds queued
  const double dbeta[4] = {1.6, 0.35, 1.1, 0.8};         // Eq. 4 ratios
  for (int j = 0; j < 4; ++j) {
    admission::FrameRequest r;
    r.user = j;
    r.q_bits = q[j];
    r.waiting_s = waits[j];
    r.delta_beta = dbeta[j];
    r.tx_cap = ctx.max_sgr;
    r.fch_power_watt = fch_w[j];
    r.reduced_set = {{j < 2 ? 0u : 1u, 1.0}};  // (cell, gain)
    ctx.requests.push_back(r);
  }
  ctx.requests[3].reduced_set.push_back({0, 1.0});
  ctx.requests[3].alpha_fl = 1.8;  // two-leg SCH transmission costs extra power

  // ---- Scheduling sub-layer: the round's integer program (Eq. 7-8 rows,
  // J2 objective, Eq. 24 bounds).
  const admission::BurstProblem problem =
      ctx.make_problem(mac::LinkDirection::kForward, /*carrier=*/0, {0, 1, 2, 3});

  std::printf("Admissible region (A m <= b):\n%s", problem.a.to_string().c_str());
  std::printf("b = [ %.3g %.3g ]\n\n", problem.b[0], problem.b[1]);

  common::Table table({"scheduler", "m0", "m1", "m2", "m3", "objective", "granted"});
  for (const char* name :
       {"jaba-sd", "jaba-sd-greedy", "fcfs", "equal-share", "random"}) {
    auto scheduler = admission::make_scheduler(name, /*seed=*/7);
    const admission::Allocation a = scheduler->schedule(problem);
    table.add_row({admission::policy_label(name), std::to_string(a.m[0]),
                   std::to_string(a.m[1]), std::to_string(a.m[2]), std::to_string(a.m[3]),
                   common::format_double(a.objective), std::to_string(a.granted_count())});
  }
  table.print("quickstart: one admission round, 4 requests, 2 cells");

  std::printf(
      "\nJABA-SD pours capacity into users 0 and 2 (good channels, cheap per\n"
      "unit of cell power) while FCFS serves strictly by arrival and equal\n"
      "share levels everyone down.  User 3's J2 waiting-time boost grows\n"
      "with lambda (admission::DelayPenaltyConfig) until JABA-SD serves it\n"
      "too -- try lambda = 10.\n");
  return 0;
}
