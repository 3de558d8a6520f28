// Soft hand-off active-set maintenance and the *reduced active set*.
//
// Footnote 4 of the paper: soft hand-off helps the reverse link but costs
// forward-link power, so cdma2000 assigns the SCH from a *reduced active
// set* -- the 2 base stations with the strongest pilot Ec/Io, a subset of
// the FCH active set.  This class implements IS-95/cdma2000-style
// add/drop-threshold management with hysteresis and exposes the reduced
// set used by the burst admission measurements.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/assert.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::cell {

struct ActiveSetConfig {
  double t_add_db = -14.0;   // pilot Ec/Io to enter the candidate/active set
  double t_drop_db = -16.0;  // pilot Ec/Io below which the drop timer runs
  double drop_timer_s = 1.0;
  std::size_t max_size = 3;          // FCH active set size
  std::size_t reduced_size = 2;      // SCH reduced active set (footnote 4)
};

class ActiveSet {
 public:
  ActiveSet(const ActiveSetConfig& config, std::size_t num_cells);

  /// One update per frame with the current per-cell pilot Ec/Io (dB).
  /// `dt` is the frame duration (drives the drop timers).
  void update(const std::vector<double>& pilot_ec_io_db, double dt);

  /// update() on the linear pilot Ec/Io values of the listed `cells`,
  /// converting to dB on demand: the same decisions, and the same member dB
  /// values, as update() fed common::linear_to_db(std::max(pilot[k], floor))
  /// for every listed cell and anything lower for every other one.  `pilot`
  /// is indexed by cell; entries outside `cells` are never read.  Every
  /// member must be listed.  A listed cell is converted only when the dB value can
  /// matter: current members, cells whose floored pilot is not below T_ADD's
  /// linear value by more than a relative kAddBand (NaN included) -- which
  /// covers every cell that passes T_ADD, since those are sorted and
  /// compared in dB -- and every listed cell when the set would otherwise
  /// run empty, which then latches onto the first strongest listed cell.
  /// Below that band the linear test decides the dB test exactly: the band
  /// is 4.3e-9 dB wide, and log10 errs by a few ulp.  The simulator's
  /// hand-off update on every provider, with `cells` the user's candidate
  /// set (every cell, ascending, on `exhaustive`).
  void update_linear(const double* pilot, const std::vector<std::size_t>& cells,
                     double floor, double dt);
  /// Relative half-width of update_linear()'s T_ADD band.
  static constexpr double kAddBand = 1e-9;

  /// Cells currently in the FCH active set (sorted by descending pilot).
  const std::vector<std::size_t>& members() const { return members_; }

  /// Strongest-pilot member (the serving cell).  Valid after first update.
  std::size_t primary() const {
    WCDMA_DEBUG_ASSERT(initialised_ && !members_.empty());
    return members_.front();
  }

  /// The reduced active set for SCH assignment: up to `reduced_size`
  /// strongest members.
  std::vector<std::size_t> reduced() const;

  /// Allocation-free reduced-set view: members() is sorted strongest-first,
  /// so the reduced set is its first reduced_count() entries.
  std::size_t reduced_count() const {
    return members_.size() < config_.reduced_size ? members_.size()
                                                  : config_.reduced_size;
  }

  bool contains(std::size_t cell) const;

  /// Checkpoint support: drop timers, membership and the initialised flag.
  /// Config and the T_ADD band edge are rebuilt from SystemConfig, and the
  /// pilot lane is per-update scratch (see below), so neither is written.
  /// load() refuses -- returning false and leaving the set unchanged -- a
  /// timer lane sized for another cell count, more than max_size members,
  /// members out of range or repeated, and an initialised set without
  /// members.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

  /// Forward-link power adjustment factor alpha^(FL): transmitting the SCH
  /// from every reduced-active-set leg costs this multiple of single-leg
  /// power (Eq. 6).
  double forward_adjustment() const;

  /// Reverse-link adjustment factor alpha^(RL): macro-diversity selection
  /// combining lets each leg run slightly below the single-leg requirement.
  double reverse_adjustment() const;

 private:
  template <typename Self, typename Archive>
  static void fields(Self& set, Archive& ar);
  void drop_phase(double dt);
  void add_phase();
  void finish_update();

  ActiveSetConfig config_;
  double t_add_band_lo_ = 0.0;  // 10^(t_add_db / 10) (1 - kAddBand)
  /// Pilot Ec/Io per cell in dB, scratch for one update: update() assigns
  /// every entry, and update_linear() converts an entry before it reads it
  /// (only members and add candidates are read, and both are converted in
  /// the update that reads them).  The other entries keep older values that
  /// no later update reads, so the lane is not checkpointed and load()
  /// leaves it as it was.
  std::vector<double> last_pilot_db_;
  std::vector<double> below_drop_s_;  // time spent below t_drop per member
  std::vector<std::size_t> members_;
  std::vector<std::size_t> candidates_scratch_;  // reused across updates
  bool initialised_ = false;
};

}  // namespace wcdma::cell
