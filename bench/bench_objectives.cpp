// E10 — J1 vs J2 (Eq. 19-21): the utilisation/delay trade and the effect of
// the delay-penalty parameters lambda (scaling) and mu (forgetting).
//
// Expected shape: J1 maximises raw throughput but lets long-waiting,
// poor-channel requests age (worse tail delay and fairness); J2 trades a
// little throughput for a flatter delay distribution, increasingly so as
// lambda grows.
//
// Runs on the sweep engine: one compound (objective, lambda, mu) axis with
// CRN seeding, so every objective scores the same user drop.
#include "src/common/thread_pool.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

int main() {
  const sweep::SweepResult result =
      sweep::run_sweep(scenario::e10_objectives(), common::default_thread_count());

  common::Table t({"objective", "mean-delay(s)", "p95-delay(s)", "throughput(kbps)",
                   "max-queue-wait(s)"});
  for (const sweep::ScenarioResult& s : result.scenarios) {
    const sim::SimMetrics& m = s.merged;
    t.add_row({s.labels[0], common::format_double(m.mean_delay_s(), 4),
               common::format_double(m.p95_delay_s(), 4),
               common::format_double(m.data_throughput_bps() / 1000.0, 4),
               common::format_double(m.queue_delay_s.max(), 4)});
  }
  t.print("E10: J1 vs J2 and delay-penalty parameter sweep (20 data users)");
  return 0;
}
