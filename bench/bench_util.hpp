// Shared helpers for the experiment harnesses: the canonical experiments
// (src/scenario) and row extraction, so every bench prints comparable
// tables.
#pragma once

#include "src/common/table.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/simulator.hpp"

namespace wcdma::bench {

struct Row {
  double mean_delay_s;
  double p95_delay_s;
  double throughput_kbps;
  double grant_rate;
  double mean_sgr;
};

inline Row metrics_to_row(const sim::SimMetrics& m) {
  return {m.mean_delay_s(), m.p95_delay_s(), m.data_throughput_bps() / 1000.0,
          m.grant_rate(), m.granted_sgr.mean()};
}

}  // namespace wcdma::bench
