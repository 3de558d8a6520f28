// E6 — data-user capacity vs voice load (the paper's "data user capacity"
// claim): the largest number of data users whose mean burst delay stays at
// or under the target, as background voice load eats the power/interference
// budget.
//
// Expected shape: capacity falls with voice load for every scheduler, and
// JABA-SD supports at least as many users as the baselines at every load.
//
// Runs on the sweep engine: the full (voice x scheduler x data-users) grid
// is evaluated in one parallel sweep (no early break: single-run noise is
// not monotone), then capacity is read off the merged delays per cell of
// the grid.
#include <cstdio>

#include "src/admission/policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sweep/sweep.hpp"

using namespace wcdma;

namespace {
constexpr double kDelayTarget = 5.0;  // seconds

const std::vector<int> kVoiceGrid = {0, 30, 60};
const std::vector<int> kDataGrid = {6, 9, 12, 15, 18};
const std::vector<std::string> kSchedulers = {"jaba-sd", "fcfs", "equal-share"};
}  // namespace

int main() {
  sweep::SweepSpec spec;
  spec.name = "E6-capacity";
  spec.base = scenario::hotspot_cell_config(4003);
  spec.axes = {sweep::axis_voice_users(kVoiceGrid), sweep::axis_scheduler(kSchedulers),
               sweep::axis_data_users(kDataGrid)};
  spec.replications = 3;

  const sweep::SweepResult result =
      sweep::run_sweep(spec, common::default_thread_count());

  common::Table t({"voice-users", "scheduler", "capacity(data-users)",
                   "delay@capacity(s)"});
  for (std::size_t v = 0; v < kVoiceGrid.size(); ++v) {
    for (std::size_t k = 0; k < kSchedulers.size(); ++k) {
      int capacity = 0;
      double delay_at_capacity = 0.0;
      for (std::size_t d = 0; d < kDataGrid.size(); ++d) {
        const double delay = result.at({v, k, d}).merged.mean_delay_s();
        if (delay <= kDelayTarget && kDataGrid[d] > capacity) {
          capacity = kDataGrid[d];
          delay_at_capacity = delay;
        }
      }
      t.add_row({std::to_string(kVoiceGrid[v]), admission::policy_label(kSchedulers[k]),
                 std::to_string(capacity),
                 common::format_double(delay_at_capacity, 4)});
    }
  }
  char title[128];
  std::snprintf(title, sizeof(title),
                "E6: data-user capacity (mean delay <= %.1f s) vs voice load, 3 reps",
                kDelayTarget);
  t.print(title);
  return 0;
}
