// Canonical experiment definitions (E-numbered after DESIGN.md / the
// paper's figures), shared by the sweep presets and the tests.
//
// Every experiment is a SweepSpec over one canonical scenario, run by the
// sweep engine's deterministic (scenario x replication) runner: replication
// r draws one seed from the master seed in every scenario (common random
// numbers, so comparisons are paired), and merged metrics are
// bit-identical for any thread count.  Each spec is registered as a sweep
// preset under its own `name` (src/sweep/presets.cpp), so
// `sweep_main --preset e4-delay-fl --format table` prints the experiment's
// table.
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

/// E4 — forward-link burst delay vs data users, schedulers paired by CRN
/// (the paper's headline comparison).  Expected shape: every curve grows
/// with load, and JABA-SD sits lowest.
sweep::SweepSpec e4_delay_fl();
/// E5 — the reverse-link (all-upload) counterpart of E4, on the
/// interference-limited region of Eq. (16)-(18).  Expected shape: E4's
/// ordering at higher delays, since the rise budgets bind earlier.
sweep::SweepSpec e5_delay_rl();
/// E8 — synergy 2x2: {adaptive, fixed-m3} PHY x {JABA-SD, FCFS-single}.
/// The delay reductions against (fixed, FCFS-single) from the PHY alone,
/// the scheduler alone and both are differences of its four mean delays.
sweep::SweepSpec e8_synergy();
/// E10 — J1 vs J2 and the delay-penalty (lambda, mu) parameter sweep, as
/// one compound axis (the cases are not a cross product).  J2 should trade
/// a little throughput for a flatter delay distribution (the maximum queue
/// wait).
sweep::SweepSpec e10_objectives();
/// E11 — MAC set-up penalty sweep: compound (T2, T3, D1, D2) timer cases
/// crossed with the J2/J1 objectives.  Larger penalties and eager timers
/// should raise the mean delay.
sweep::SweepSpec e11_mac_states();
/// E12 — the four independent design-choice ablations.  E12a: CSI feedback
/// delay, on the fixed mode-3 PHY (the adaptive PHY reads no feedback);
/// stale feedback should raise BER violations and cut throughput.
sweep::SweepSpec e12a_feedback_delay();
/// E12b: the reverse-link neighbour-projection margin kappa (Eq. 15); a
/// larger margin should grant smaller SGRs.
sweep::SweepSpec e12b_kappa_margin();
/// E12c: the SCRM retry interval; longer retries should lengthen queue
/// delays.
sweep::SweepSpec e12c_scrm_retry();
/// E12d: the reduced active-set size (footnote 4); a larger set should
/// burn more forward power per grant.
sweep::SweepSpec e12d_reduced_set();

}  // namespace wcdma::scenario
