// E7 — coverage: burst delay vs normalised distance from the serving base
// station (the paper's "coverage" claim).  The channel-adaptive stack keeps
// cell-edge users servable (at low modes / small SGR) instead of failing
// them; coverage radius = outermost distance bin whose mean delay stays
// within a factor of the cell-centre delay.
//
// Expected shape: delay grows toward the cell edge for every PHY, but the
// adaptive VTAOC curve stays flatter and usable further out than the
// fixed-rate PHY, which loses its service area once the fixed mode's
// threshold stops clearing.
//
// Runs on the sweep engine: a two-scenario fixed-mode axis (adaptive vs
// fixed-m4), with the per-distance-bin metrics read from the merged result.
#include <cstdio>

#include "src/common/thread_pool.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sim/metrics.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

int main() {
  sweep::SweepSpec spec;
  spec.name = "E7-coverage";
  spec.base = scenario::wide_area_config(4007);
  spec.base.sim_duration_s = 90.0;
  spec.base.data.users = 14;
  spec.axes = {sweep::axis_fixed_mode({0, 4})};
  spec.replications = 1;

  const sweep::SweepResult result =
      sweep::run_sweep(spec, common::default_thread_count());
  const sim::SimMetrics& adaptive = result.at({0}).merged;
  const sim::SimMetrics& fixed = result.at({1}).merged;

  common::Table t({"bin", "dist/R", "adaptive: n", "delay(s)", "fixed-m4: n",
                   "delay(s)"});
  for (std::size_t b = 0; b < sim::kCoverageBins; ++b) {
    const double frac = (static_cast<double>(b) + 0.5) * 1.2 /
                        static_cast<double>(sim::kCoverageBins);
    t.add_row({std::to_string(b), common::format_double(frac, 3),
               std::to_string(adaptive.delay_by_distance[b].count()),
               common::format_double(adaptive.delay_by_distance[b].mean(), 4),
               std::to_string(fixed.delay_by_distance[b].count()),
               common::format_double(fixed.delay_by_distance[b].mean(), 4)});
  }
  t.print("E7: burst delay vs normalised distance to serving BS (19 cells)");
  std::printf(
      "\n# overall: adaptive mean %.3f s (outage %.3f), fixed-m4 mean %.3f s"
      " (outage %.3f)\n",
      adaptive.mean_delay_s(), adaptive.sch_outage_rate(), fixed.mean_delay_s(),
      fixed.sch_outage_rate());
  return 0;
}
