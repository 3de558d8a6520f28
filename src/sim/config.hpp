// Scenario configuration for the dynamic system simulator.
//
// Defaults reconstruct the paper's setting (DESIGN.md section 6): 19-cell
// wrap-around hex layout, cdma2000-class numerology, on/off voice plus
// WWW-style data users, and the JABA-SD admission stack.  Every knob the
// benches sweep lives here so experiments are plain config edits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/admission/objectives.hpp"
#include "src/cell/active_set.hpp"
#include "src/cell/geometry.hpp"
#include "src/cell/mobility.hpp"
#include "src/channel/path_loss.hpp"
#include "src/channel/shadowing.hpp"
#include "src/mac/mac_state.hpp"
#include "src/phy/modes.hpp"
#include "src/phy/spreading.hpp"

namespace wcdma::sim {

struct RadioConfig {
  double bs_max_power_w = 20.0;     // P_max (Eq. 7)
  double pilot_power_w = 2.0;       // per-BS forward pilot
  double common_power_w = 1.0;      // paging/sync overhead
  double noise_figure_db = 5.0;
  double orthogonality_loss = 0.4;  // own-cell forward interference fraction
  double rise_over_thermal_db = 6.0;  // reverse cap: L_max = N * 10^(x/10)
  double mobile_max_power_dbm = 23.0;
  double fch_ebio_target_db = 7.0;  // FCH Eb/I0 target (voice & data)
  /// Power fraction of the full-rate FCH that a data user consumes while in
  /// Control Hold (Fig. 3): only the low-rate dedicated control channel is
  /// up between bursts.
  double dcch_fraction = 0.125;
};

struct VoiceScenario {
  int users = 60;
  double mean_on_s = 1.0;
  double mean_off_s = 1.5;
};

struct DataScenario {
  int users = 12;
  double pareto_alpha = 1.7;
  double min_burst_bytes = 4096.0;
  double max_burst_bytes = 2.0e6;
  double mean_reading_s = 4.0;
  /// Fraction of data users whose bursts are forward-link (downloads).
  double forward_fraction = 0.5;
  /// Fraction of data users with elevated priority Delta_j = priority_boost.
  double high_priority_fraction = 0.0;
  double priority_boost = 0.5;
};

struct PhyScenario {
  phy::VtaocParams vtaoc{};           // 6-mode ladder
  double target_ber = 1e-3;           // SCH constant-BER operating point
  /// CSI feedback channel of Fig. 1(a).  Only the fixed-rate PHY reads
  /// feedback; the adaptive VTAOC path adapts symbol by symbol on the true
  /// CSI, so these act only when fixed_mode > 0.
  std::size_t feedback_delay_frames = 1;
  double feedback_error_db = 0.5;
  /// Non-adaptive ablation: run the SCH at this fixed mode instead of
  /// adapting (0 = adaptive VTAOC).  Used by the E8 synergy bench.
  int fixed_mode = 0;
};

struct AdmissionScenario {
  /// Admission policy by registry name (admission::policy_names()).
  std::string policy = "jaba-sd";
  admission::ObjectiveKind objective = admission::ObjectiveKind::kJ2DelayAware;
  admission::DelayPenaltyConfig penalty{};
  double min_burst_s = 0.080;  // T_min of Eq. 24 (4 frames)
  double kappa_margin_db = 2.0;  // neighbour-projection shadowing margin
  double zeta_fch_pilot_ratio = 2.0;  // FCH/pilot transmit ratio at mobile
  /// SCRM persistence: a rejected request may not re-enter the scheduling
  /// round for this long (the cdma2000 request/retry cycle; rejection has a
  /// real cost, which is why the burst grant decision matters).  0 disables.
  double scrm_retry_s = 0.26;
};

/// Where users live and roam.  The default (empty weights) is the legacy
/// behaviour: every user draws waypoints uniformly over one service disc.
/// Non-empty weights give per-cell load scaling: each user samples a home
/// cell proportionally to its weight and roams a disc around that cell's
/// centre, so hotspot and corridor load patterns are plain config edits.
struct PlacementConfig {
  /// Relative placement weight per cell; empty = uniform over the service
  /// disc, otherwise must have one non-negative entry per layout cell with
  /// a positive sum.
  std::vector<double> cell_weights;
  /// Radius of a user's home region, as a multiple of the cell radius
  /// (only used when cell_weights is non-empty).
  double home_radius_scale = 1.2;
  /// Independent WCDMA carriers (frequencies).  Users are assigned
  /// round-robin; each (cell, carrier) pair is its own interference domain
  /// with its own power amplifier and rise budget.
  int carriers = 1;
};

/// Time-varying per-cell arrival scaling (flash crowds).  A trapezoidal
/// pulse multiplies the data-burst arrival intensity of users homed in the
/// ramped cells: 1 before `start_s`, linear rise to `peak_scale` over
/// `rise_s`, flat for `hold_s`, linear decay back to 1 over `fall_s`.
/// `cell_weights` blends the pulse per home cell (1 = full pulse, 0 =
/// unaffected); empty applies it everywhere.  peak_scale == 1 disables the
/// ramp entirely (the default path is untouched).
struct LoadRampConfig {
  double peak_scale = 1.0;
  double start_s = 0.0;
  double rise_s = 0.0;
  double hold_s = 0.0;
  double fall_s = 0.0;
  std::vector<double> cell_weights;

  // lint-allow(DET-FLOAT-EQ): 1.0 is the exact "ramp disabled" sentinel
  bool enabled() const { return peak_scale != 1.0; }
  /// Arrival-intensity multiplier for a user homed in `cell` at `now_s`.
  double scale(double now_s, std::size_t cell) const;
};

/// Hierarchical far-field aggregation for the culling providers (see
/// src/sim/far_field.hpp and docs/ACCURACY.md): cells outside a user's
/// candidate set are folded back into both link directions as one additive
/// ring-aggregated interference term per link, refreshed on the candidate
/// timer, instead of being dropped outright.  Ignored by the exhaustive
/// provider (its candidate set is every cell, so there is no far field).
struct FarFieldConfig {
  bool enabled = true;
  /// Distance-ring width as a multiple of the cell radius: cell pair (a, k)
  /// lands in ring floor(d(a, k) / (scale * R)) and shares that ring's mean
  /// gain.  Smaller rings track the path-loss curve more closely at a
  /// (one-off, init-time) memory cost of O(cells x rings).
  double ring_width_scale = 1.0;
  /// Shadowing compensation on the ring gains, as a fraction of the full
  /// lognormal mean factor: gain *= exp(f * (sigma ln10 / 10)^2 / 2).
  /// f = 1 matches the far field's expectation, f = 0 its median; the sum
  /// over far cells is skew-dominated at realistic cell counts, so the
  /// calibrated default sits between them (docs/ACCURACY.md records the
  /// measured sweep behind the choice).
  double shadowing_fraction = 0.5;
};

/// Channel-state (CSI) computation backend: which cells get live link state
/// each frame.  "exhaustive" is the bit-identical reference; "culled" keeps
/// a per-user candidate-cell set (active set + pilot-floor radius) on a
/// slow refresh timer so per-frame link state is O(users x nearby-cells);
/// "fast" is culled plus relaxed-precision link math (fused exp2 composite
/// gains, ziggurat Gaussian draws) -- statistically equivalent to the
/// reference under tests/test_statcheck.cpp tolerances, not bit-identical.
/// Both culling providers restore the dropped cells' interference through
/// the far_field aggregate (docs/ACCURACY.md describes the full ladder).
struct CsiConfig {
  std::string provider = "exhaustive";  // sim::channel_provider_names()
  /// Seconds between candidate-set rebuilds (culled/fast providers only);
  /// the far-field aggregate refreshes on the same cadence.
  double refresh_interval_s = 0.5;
  /// Candidate radius as a multiple of the cell radius: beyond it a pilot
  /// sits under the active-set add floor and the cell is culled.  3.0 keeps
  /// the serving cell plus the first two neighbour rings (spacing sqrt(3) R
  /// and 3 R) live; the far-field aggregate stands in for everything
  /// farther out.  The calibration sweep in docs/ACCURACY.md shows the
  /// second ring must stay live: its cells still join active sets and SCRM
  /// pilot measurements under shadowing, which no mean-field aggregate can
  /// reproduce, while ring three and beyond are mean-field to within the
  /// statcheck tolerances.
  double cull_radius_scale = 3.0;
  FarFieldConfig far_field{};
};

/// Overload protection for the message-driven service core
/// (src/service/): the injection queue that buffers accepted burst
/// requests until the frame's traffic phase drains them is bounded, and
/// requests beyond the bound are shed with ResultCode::kNackOverload
/// (counted in SimMetrics::overload_sheds) instead of growing the queue
/// without limit.  Shedding is a pure refusal -- a shed request touches no
/// simulator state -- so a saturated service degrades gracefully and the
/// surviving run stays bit-identical to one that never saw the excess.
struct ServiceOverloadConfig {
  /// Max buffered injections per frame; 0 = unbounded (the default, and
  /// the only value the batch path and recorded traces ever exercise).
  int injection_queue_cap = 0;
};

struct SystemConfig {
  std::uint64_t seed = 42;
  double frame_s = 0.020;
  double sim_duration_s = 120.0;
  double warmup_s = 10.0;
  /// Worker threads for the intra-frame loops (channel stepping, forward
  /// measurements, reverse-rise gather).  1 = sequential (the default),
  /// 0 = hardware concurrency.  Results are bit-identical for every value:
  /// the sharded loops carry no cross-user accumulators and the reverse
  /// rise is a per-station gather in ascending user order.
  int sim_threads = 1;

  cell::HexLayoutConfig layout{};          // 19 cells by default
  cell::MobilityConfig mobility{};
  PlacementConfig placement{};
  cell::ActiveSetConfig active_set{};
  channel::PathLossConfig path_loss{};
  channel::ShadowingConfig shadowing{};
  double carrier_hz = 2.0e9;

  phy::SpreadingConfig spreading{};        // includes gamma_s and M
  RadioConfig radio{};
  VoiceScenario voice{};
  DataScenario data{};
  PhyScenario phy{};
  AdmissionScenario admission{};
  mac::MacTimersConfig mac_timers{};
  CsiConfig csi{};
  LoadRampConfig load_ramp{};
  ServiceOverloadConfig service{};

  /// Frames a full run steps: sim_duration_s / frame_s, rounded.
  std::int64_t total_frames() const;
  /// Aborts on invalid combinations; returns *this for chaining.
  const SystemConfig& validate() const;
};

/// Baseline defaults used by benches/examples; spreading.gamma_s and friends
/// tuned per DESIGN.md section 6.
SystemConfig default_config();

}  // namespace wcdma::sim
