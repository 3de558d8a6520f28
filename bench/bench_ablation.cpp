// E12 — design-choice ablations called out in DESIGN.md:
//   (a) CSI feedback delay (D1/Fig. 1a low-capacity feedback channel), on
//       the fixed mode-3 PHY: the adaptive VTAOC path adapts symbol by
//       symbol on the true CSI and reads no feedback,
//   (b) neighbour-projection shadowing margin kappa (D6, Eq. 15),
//   (c) SCRM retry interval (request/persistence cycle),
//   (d) reduced-active-set size (footnote 4).
//
// Expected shapes: stale feedback raises BER violations and cuts the
// fixed-rate PHY's throughput; larger kappa is more conservative on the
// reverse link (smaller grants, better protection); longer retries
// lengthen queue delays; a larger reduced active set burns forward power
// per grant.
//
// Each ablation group is one 1-D sweep on the engine; CRN seeding gives
// every value in a group the same user drop and channel realisation, so the
// comparison is paired exactly as in the hand-rolled original.
#include "src/common/thread_pool.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

int main() {
  common::Table t({"ablation", "value", "mean-delay(s)", "queue-delay(s)",
                   "throughput(kbps)", "mean-SGR", "BER-violation"});
  for (const sweep::SweepSpec& spec : scenario::e12_ablations()) {
    const sweep::SweepResult result =
        sweep::run_sweep(spec, common::default_thread_count());
    for (const sweep::ScenarioResult& s : result.scenarios) {
      const sim::SimMetrics& m = s.merged;
      const double viol_rate =
          m.sch_frames > 0 ? static_cast<double>(m.ber_violation_frames) /
                                 static_cast<double>(m.sch_frames)
                           : 0.0;
      t.add_row({result.name, s.labels[0],
                 common::format_double(m.mean_delay_s(), 4),
                 common::format_double(m.queue_delay_s.mean(), 4),
                 common::format_double(m.data_throughput_bps() / 1000.0, 4),
                 common::format_double(m.granted_sgr.mean(), 3),
                 common::format_double(viol_rate, 3)});
    }
  }
  t.print("E12: design-choice ablations (7-cell hotspot)");
  return 0;
}
