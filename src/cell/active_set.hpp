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
#include <utility>
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

  /// update() on linear pilot Ec/Io values, converting to dB on demand: the
  /// same decisions, and the same stored member dB values, as update() fed
  /// common::linear_to_db(std::max(pilot[k], floor)) for all `n` cells.  A
  /// cell is converted only when the dB value can matter: current members,
  /// cells whose floored pilot is not below T_ADD's linear value by more
  /// than a relative kAddBand (NaN included) -- which covers every cell that
  /// passes T_ADD, since those are sorted and compared in dB -- and every
  /// cell when the set would otherwise run empty.  Below that band the
  /// linear test decides the dB test exactly: the band is 4.3e-9 dB wide,
  /// and log10 errs by a few ulp.  The exhaustive provider's hot path.
  void update_linear(const double* pilot, std::size_t n, double floor, double dt);
  /// Relative half-width of update_linear()'s T_ADD band.
  static constexpr double kAddBand = 1e-9;

  /// Sparse per-frame update for culled channel state, on *linear* pilot
  /// Ec/Io values compared against the pre-converted linear thresholds,
  /// skipping the per-cell dB conversion entirely.  Only `pilots` (cell,
  /// Ec/Io) carry real measurements; every unreported cell is implicitly at
  /// a floor far below t_drop (so it can never join), and current members
  /// must be among the reported cells.  O(reported) instead of O(cells).
  /// All decisions -- add/drop thresholds, strongest-first ordering, drop
  /// timers -- are order statistics, and x -> 10 log10(x) is strictly
  /// monotone, so the resulting hand-off trajectories match update() on
  /// the dB values of the same pilots.  A caller must stick to one domain
  /// for the lifetime of the set: the simulator uses this variant for the
  /// culled providers and the dB domain (update(), update_linear()) for the
  /// exhaustive (golden) path.
  void update_sparse_linear(const std::vector<std::pair<std::size_t, double>>& pilots,
                            double dt);

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

  /// Checkpoint support: pilots, drop timers, membership.  Config and the
  /// pre-converted linear thresholds are rebuilt from SystemConfig.  load()
  /// refuses -- returning false and leaving the set unchanged -- lanes
  /// sized for another cell count, more than max_size members, members out
  /// of range or repeated, and an initialised set without members.
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
  void drop_phase(double t_drop, double dt);
  void add_phase();
  void finish_update();

  ActiveSetConfig config_;
  double t_add_linear_ = 0.0;   // 10^(t_add_db / 10), for the linear variants
  double t_drop_linear_ = 0.0;  // 10^(t_drop_db / 10)
  double t_add_band_lo_ = 0.0;  // t_add_linear_ (1 - kAddBand)
  /// Last reported pilot per cell, in whichever domain the caller feeds
  /// (dB for update()/update_linear(), linear for update_sparse_linear()).
  /// update_linear() writes only the cells it converts; the others keep an
  /// older value, and no decision reads an entry before a later frame
  /// converts it again (only members and add candidates are read, and both
  /// are converted in the frame that reads them).  save() carries the stale
  /// entries as they are, so a resumed run stays bit-identical.
  std::vector<double> last_pilot_db_;
  std::vector<double> below_drop_s_;  // time spent below t_drop per member
  std::vector<std::size_t> members_;
  std::vector<std::size_t> candidates_scratch_;  // reused across updates
  bool initialised_ = false;
};

}  // namespace wcdma::cell
