#include "src/cell/active_set.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"
#include "src/common/units.hpp"

namespace wcdma::cell {

ActiveSet::ActiveSet(const ActiveSetConfig& config, std::size_t num_cells)
    : config_(config),
      t_add_band_lo_(common::refmath::pow(10.0, config.t_add_db / 10.0) *
                     (1.0 - kAddBand)),
      last_pilot_db_(num_cells, -999.0),
      below_drop_s_(num_cells, 0.0) {
  WCDMA_ASSERT(config_.max_size >= 1);
  WCDMA_ASSERT(config_.reduced_size >= 1 && config_.reduced_size <= config_.max_size);
  WCDMA_ASSERT(config_.t_add_db >= config_.t_drop_db);
}

void ActiveSet::drop_phase(double dt) {
  // Members below T_DROP for longer than the drop timer leave.  In-place
  // compaction keeps member order and avoids a per-update allocation.
  std::size_t kept = 0;
  for (std::size_t cell : members_) {
    if (last_pilot_db_[cell] < config_.t_drop_db) {
      below_drop_s_[cell] += dt;
      if (below_drop_s_[cell] >= config_.drop_timer_s) {
        below_drop_s_[cell] = 0.0;
        continue;  // dropped
      }
    } else {
      below_drop_s_[cell] = 0.0;
    }
    members_[kept++] = cell;
  }
  members_.resize(kept);
}

void ActiveSet::add_phase() {
  // Candidates (gathered by the caller into candidates_scratch_) join
  // strongest first until max_size; beyond that they displace the weakest
  // member when stronger.
  std::sort(candidates_scratch_.begin(), candidates_scratch_.end(),
            [&](std::size_t a, std::size_t b) {
              return last_pilot_db_[a] > last_pilot_db_[b];
            });
  for (std::size_t cell : candidates_scratch_) {
    if (members_.size() >= config_.max_size) {
      auto weakest = std::min_element(
          members_.begin(), members_.end(), [&](std::size_t a, std::size_t b) {
            return last_pilot_db_[a] < last_pilot_db_[b];
          });
      if (last_pilot_db_[cell] > last_pilot_db_[*weakest]) {
        *weakest = cell;
      }
      continue;
    }
    members_.push_back(cell);
  }
}

void ActiveSet::finish_update() {
  std::sort(members_.begin(), members_.end(), [&](std::size_t a, std::size_t b) {
    return last_pilot_db_[a] > last_pilot_db_[b];
  });
  initialised_ = true;
}

void ActiveSet::update(const std::vector<double>& pilot_ec_io_db, double dt) {
  WCDMA_ASSERT(pilot_ec_io_db.size() == last_pilot_db_.size());
  last_pilot_db_ = pilot_ec_io_db;

  drop_phase(dt);

  // Add phase: non-members above T_ADD, strongest first, until max_size.
  candidates_scratch_.clear();
  for (std::size_t cell = 0; cell < pilot_ec_io_db.size(); ++cell) {
    if (pilot_ec_io_db[cell] >= config_.t_add_db && !contains(cell)) {
      candidates_scratch_.push_back(cell);
    }
  }
  add_phase();

  // Never run empty: latch onto the strongest pilot regardless of T_ADD so
  // a mobile always has a serving cell.
  if (members_.empty()) {
    std::size_t best = 0;
    for (std::size_t cell = 1; cell < pilot_ec_io_db.size(); ++cell) {
      if (pilot_ec_io_db[cell] > pilot_ec_io_db[best]) best = cell;
    }
    members_.push_back(best);
  }

  finish_update();
}

void ActiveSet::update_linear(const double* pilot, const std::vector<std::size_t>& cells,
                              double floor, double dt) {
  const auto convert = [&](std::size_t cell) {
    last_pilot_db_[cell] = common::linear_to_db(std::max(pilot[cell], floor));
  };
  for (std::size_t cell : members_) {
    WCDMA_DEBUG_ASSERT(std::find(cells.begin(), cells.end(), cell) != cells.end() &&
                       "every member must be a listed cell");
    convert(cell);
  }
  drop_phase(dt);

  // Add phase as in update().  A floored pilot below the band's lower edge
  // is below T_ADD in dB too; anything else (NaN included) is converted and
  // tested in dB, and a passing cell needs its dB value for the ordering.
  candidates_scratch_.clear();
  for (std::size_t cell : cells) {
    if (std::max(pilot[cell], floor) < t_add_band_lo_ || contains(cell)) continue;
    convert(cell);
    if (last_pilot_db_[cell] >= config_.t_add_db) candidates_scratch_.push_back(cell);
  }
  add_phase();

  // The empty fallback's first-strongest scan runs in dB, where pilots that
  // differ in linear can tie, so every listed cell is converted for it.
  if (members_.empty()) {
    WCDMA_ASSERT(!cells.empty());
    for (std::size_t cell : cells) convert(cell);
    std::size_t best = cells.front();
    for (std::size_t cell : cells) {
      if (last_pilot_db_[cell] > last_pilot_db_[best]) best = cell;
    }
    members_.push_back(best);
  }

  finish_update();
}

std::vector<std::size_t> ActiveSet::reduced() const {
  WCDMA_ASSERT(initialised_);
  std::vector<std::size_t> out = members_;
  if (out.size() > config_.reduced_size) out.resize(config_.reduced_size);
  return out;
}

bool ActiveSet::contains(std::size_t cell) const {
  return std::find(members_.begin(), members_.end(), cell) != members_.end();
}

double ActiveSet::forward_adjustment() const {
  // Every reduced-set leg must transmit the SCH: linear cost in legs, with a
  // small combining discount on the extras.
  const double legs = static_cast<double>(std::min(members_.size(), config_.reduced_size));
  return 1.0 + 0.8 * (legs - 1.0);
}

double ActiveSet::reverse_adjustment() const {
  // Selection macro-diversity: two legs allow ~1 dB lower per-leg target.
  const double legs = static_cast<double>(std::min(members_.size(), config_.reduced_size));
  return legs > 1.0 ? 0.8 : 1.0;
}

template <typename Self, typename Archive>
void ActiveSet::fields(Self& set, Archive& ar) {
  ar.field(set.below_drop_s_);  // a lane at the cell count
  ar.vec(set.members_);
  ar.field(set.initialised_);
  ar.check([&] {
    const std::vector<std::size_t>& m = set.members_;
    if (m.size() > set.config_.max_size || (set.initialised_ && m.empty())) return false;
    for (std::size_t j = 0; j < m.size(); ++j) {
      if (m[j] >= set.below_drop_s_.size() ||
          std::find(m.begin(), m.begin() + static_cast<std::ptrdiff_t>(j), m[j]) !=
              m.begin() + static_cast<std::ptrdiff_t>(j)) {
        return false;
      }
    }
    return true;
  });
}

void ActiveSet::save(common::BinaryWriter& w) const { fields(*this, w); }
bool ActiveSet::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

}  // namespace wcdma::cell
