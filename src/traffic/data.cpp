#include "src/traffic/data.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::traffic {

double mean_burst_bytes(const DataTrafficConfig& config) {
  const double a = config.pareto_alpha;
  const double xm = config.min_burst_bytes;
  const double cap = config.max_burst_bytes;
  // lint-allow(DET-FLOAT-EQ): alpha == 1 exactly is the Pareto-mean singularity
  WCDMA_ASSERT(a > 0.0 && a != 1.0 && cap > xm);
  // E[X] for Pareto truncated at cap.
  const double f_cap = 1.0 - common::refmath::pow(xm / cap, a);
  const double raw =
      (a * xm / (a - 1.0)) * (1.0 - common::refmath::pow(xm / cap, a - 1.0));
  return raw / f_cap;
}

DataSource::DataSource(const DataTrafficConfig& config, common::Rng rng)
    : config_(config), rng_(rng) {
  WCDMA_ASSERT(config_.pareto_alpha > 1.0);
  next_arrival_s_ = rng_.exponential(config_.mean_reading_s);
}

std::optional<double> DataSource::step(double dt) {
  if (in_flight_) return std::nullopt;
  next_arrival_s_ -= dt;
  if (next_arrival_s_ > 0.0) return std::nullopt;
  in_flight_ = true;
  return rng_.pareto_truncated(config_.pareto_alpha, config_.min_burst_bytes,
                               config_.max_burst_bytes);
}

void DataSource::notify_burst_done() {
  WCDMA_ASSERT(in_flight_);
  in_flight_ = false;
  next_arrival_s_ = rng_.exponential(config_.mean_reading_s);
}

template <typename Self, typename Archive>
void DataSource::fields(Self& source, Archive& ar) {
  ar.field(source.rng_);
  ar.field(source.next_arrival_s_);
  ar.field(source.in_flight_);
}

void DataSource::save(common::BinaryWriter& w) const { fields(*this, w); }
bool DataSource::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

}  // namespace wcdma::traffic
