// Quickstart: build one multiple-burst admission problem by hand and solve
// it with JABA-SD and the baselines.
//
// Scenario: two cells, four concurrent burst requests with different
// channel qualities (delta_beta), waiting times and burst sizes.  Shows the
// measurement sub-layer -> scheduling sub-layer flow of Section 3 without
// the full dynamic simulator.
#include <cstdio>

#include "src/admission/measurement.hpp"
#include "src/admission/policy.hpp"
#include "src/common/table.hpp"

using namespace wcdma;

int main() {
  // ---- Measurement sub-layer: forward-link admissible region (Eq. 7-8).
  admission::ForwardLinkInputs fl;
  fl.p_max_watt = 20.0;
  fl.gamma_s = 3.2;
  fl.cell_load_watt = {9.0, 12.0};  // current loading of the two cells

  // Four requests: users 0/1 homed on cell 0, users 2/3 on cell 1; user 3
  // is in soft hand-off with both cells (two reduced-active-set legs).
  fl.users.resize(4);
  fl.users[0].reduced_active_set = {{0, 0.050}};          // strong channel
  fl.users[1].reduced_active_set = {{0, 0.220}};          // weak (cell edge)
  fl.users[2].reduced_active_set = {{1, 0.080}};
  fl.users[3].reduced_active_set = {{1, 0.120}, {0, 0.120}};
  fl.users[3].alpha_fl = 1.8;  // two-leg SCH transmission costs extra power

  admission::Region region = build_forward_region(fl);

  // ---- Request views: channel-adaptive throughput ratios and waits.
  std::vector<admission::RequestView> requests(4);
  const double q[4] = {200e3, 120e3, 400e3, 80e3};       // burst bits
  const double waits[4] = {0.1, 2.5, 0.4, 11.0};         // seconds queued
  const double dbeta[4] = {1.6, 0.35, 1.1, 0.8};         // Eq. 4 ratios
  for (int j = 0; j < 4; ++j) {
    requests[j].user = j;
    requests[j].q_bits = q[j];
    requests[j].waiting_s = waits[j];
    requests[j].delta_beta = dbeta[j];
  }

  // ---- Scheduling sub-layer: J2 (delay-aware) objective, Eq. 20-24.
  admission::DelayPenaltyConfig penalty;
  mac::MacTimersConfig timers;
  admission::BurstProblem problem = admission::make_burst_problem(
      region, requests, admission::ObjectiveKind::kJ2DelayAware, penalty, timers,
      /*fch_bit_rate=*/9600.0, /*min_burst_s=*/0.080, /*max_sgr=*/16);

  std::printf("Admissible region (A m <= b):\n%s", problem.region.a.to_string().c_str());
  std::printf("b = [ %.3g %.3g ]\n\n", problem.region.b[0], problem.region.b[1]);

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
