// Canonical experiment definitions (E-numbered after DESIGN.md / the
// paper's figures), shared by the benches and the tests.
//
// Every experiment is a SweepSpec over one canonical scenario, so all
// benches run on the sweep engine's deterministic (scenario x replication)
// runner: per-item seeds derive from (master seed, scenario, replication),
// paired comparisons use common random numbers, and merged metrics are
// bit-identical for any thread count.  Benches only render tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sweep/sweep.hpp"

namespace wcdma::scenario {

/// Compact 7-cell hotspot used by the load sweeps: every user in the
/// central cell's footprint so burst requests actually contend.
sim::SystemConfig hotspot_cell_config(std::uint64_t seed);

/// Full 19-cell wide-area scenario (users spread over the whole layout).
sim::SystemConfig wide_area_config(std::uint64_t seed);

/// The paper's headline scheduler line-up, by policy registry name:
/// JABA-SD and its baselines.
const std::vector<std::string>& headline_schedulers();

/// E4 — forward-link burst delay vs data users, schedulers paired by CRN.
sweep::SweepSpec e4_delay_fl();
/// E5 — the reverse-link (all-upload) counterpart of E4.
sweep::SweepSpec e5_delay_rl();
/// E8 — synergy 2x2: {adaptive, fixed-m3} PHY x {JABA-SD, FCFS-single}.
sweep::SweepSpec e8_synergy();
/// E10 — J1 vs J2 and the delay-penalty (lambda, mu) parameter sweep, as
/// one compound axis (the cases are not a cross product).
sweep::SweepSpec e10_objectives();
/// E11 — MAC set-up penalty sweep: compound (T2, T3, D1, D2) timer cases
/// crossed with the J2/J1 objectives.
sweep::SweepSpec e11_mac_states();
/// E12 — the four independent design-choice ablations, in display order:
/// feedback delay, kappa margin, SCRM retry, reduced active-set size.
std::vector<sweep::SweepSpec> e12_ablations();

}  // namespace wcdma::scenario
