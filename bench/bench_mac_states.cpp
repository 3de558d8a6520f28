// E11 — MAC state machine effect (Fig. 3, Eq. 22-23): how the Suspended /
// Dormant set-up delay penalties D1/D2 and the timers T2/T3 shape the burst
// delay, and how much the J2 objective's awareness of the penalty buys.
//
// Expected shape: larger set-up penalties raise the mean delay; shorter
// T2/T3 push more re-activations into the penalised states, amplifying the
// effect; J2 (which sees w = t_w + D_s) absorbs part of the hit relative to
// J1.
//
// Runs on the sweep engine: a compound timer axis crossed with the
// objective axis, CRN-paired so every cell sees the same user drop.
#include "src/common/thread_pool.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

int main() {
  const sweep::SweepResult result =
      sweep::run_sweep(scenario::e11_mac_states(), common::default_thread_count());

  common::Table t({"timers", "objective", "mean-delay(s)", "p95-delay(s)",
                   "queue-delay(s)"});
  for (const sweep::ScenarioResult& s : result.scenarios) {
    const sim::SimMetrics& m = s.merged;
    t.add_row({s.labels[0], s.labels[1], common::format_double(m.mean_delay_s(), 4),
               common::format_double(m.p95_delay_s(), 4),
               common::format_double(m.queue_delay_s.mean(), 4)});
  }
  t.print("E11: MAC set-up penalty sweep (Fig. 3 timers; Eq. 22-23)");
  return 0;
}
