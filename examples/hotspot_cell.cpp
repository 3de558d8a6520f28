// Hotspot scenario: all users confined to the central cell's footprint, so
// burst requests contend for the *same* base-station power and reverse
// interference budget.  This is where multiple-burst scheduling actually
// matters — compare JABA-SD against the cdma2000 FCFS and equal-share
// baselines in one congested cell.
//
// Runs on the sweep engine: one scheduler axis over every implemented
// scheduler, evaluated in parallel with deterministic per-scenario seeds.
#include "src/common/thread_pool.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

int main() {
  sweep::SweepSpec spec;
  spec.name = "hotspot-cell-example";
  spec.base = sim::default_config();
  spec.base.sim_duration_s = 60.0;
  spec.base.warmup_s = 10.0;
  spec.base.voice.users = 60;
  spec.base.data.users = 24;
  spec.base.data.mean_reading_s = 1.5;  // aggressive load
  // Confine mobility to the central cell -> hotspot.
  spec.base.mobility.region_radius_m = spec.base.layout.cell_radius_m;
  spec.base.seed = 77;
  spec.axes = {sweep::axis_scheduler(
      {"jaba-sd", "jaba-sd-greedy", "fcfs", "fcfs-single", "equal-share", "random"})};
  spec.replications = 1;

  const sweep::SweepResult result =
      sweep::run_sweep(spec, common::default_thread_count());
  sweep::to_table(result).print("hotspot_cell: 24 data users in one congested cell");
  return 0;
}
