// Full-system example: WWW-style data users over the 19-cell layout with
// voice background load — the workload the paper's introduction motivates
// (high-speed packet data on wideband CDMA).  Runs the dynamic simulator
// with the complete JABA-SD stack and prints the evaluation metrics.
#include <cstdio>

#include "src/common/table.hpp"
#include "src/sim/simulator.hpp"

using namespace wcdma;

int main() {
  sim::SystemConfig cfg = sim::default_config();
  cfg.sim_duration_s = 90.0;
  cfg.warmup_s = 10.0;
  cfg.voice.users = 60;
  cfg.data.users = 12;
  cfg.seed = 2001;

  std::printf("Running %g s of system time: %zu cells, %d voice + %d data users...\n",
              cfg.sim_duration_s, cell::HexLayout(cfg.layout).num_cells(),
              cfg.voice.users, cfg.data.users);

  sim::Simulator simulator(cfg);
  const sim::SimMetrics m = simulator.run();

  common::Table table({"metric", "value"});
  table.add_row({"bursts completed", std::to_string(m.burst_delay_s.count())});
  table.add_row({"mean burst delay (s)", common::format_double(m.mean_delay_s())});
  table.add_row({"p95 burst delay (s)", common::format_double(m.p95_delay_s())});
  table.add_row({"mean queueing delay (s)", common::format_double(m.queue_delay_s.mean())});
  table.add_row({"data throughput (kbps)",
                 common::format_double(m.data_throughput_bps() / 1000.0)});
  table.add_row({"mean granted SGR m", common::format_double(m.granted_sgr.mean())});
  table.add_row({"grant rate", common::format_double(m.grant_rate())});
  table.add_row({"SCH outage rate", common::format_double(m.sch_outage_rate())});
  table.add_row({"fwd load (P/Pmax)", common::format_double(m.forward_load_fraction.mean())});
  table.add_row({"reverse rise (dB)", common::format_double(m.reverse_rise_db.mean())});
  table.add_row({"voice SIR err (dB)", common::format_double(m.voice_sir_error_db.mean())});
  table.print("web_download: JABA-SD, J2 objective, defaults");

  std::printf("\nMode occupancy (share of SCH frames):\n");
  common::Table modes({"mode", "share"});
  for (std::size_t q = 1; q < m.mode_frames.size(); ++q) {
    if (m.mode_frames[q] == 0) continue;
    modes.add_row({std::to_string(q),
                   common::format_double(static_cast<double>(m.mode_frames[q]) /
                                         static_cast<double>(m.sch_frames))});
  }
  modes.print();
  return 0;
}
