// Bursty packet-data source for the high-speed data users.
//
// The paper's data users issue *burst requests* for finite data volumes
// (Q_j, "the burst packet size for the j-th request", Eq. 24).  We model a
// WWW-style session per Kumar & Nanda [2]: heavy-tailed (truncated Pareto)
// burst sizes separated by exponential reading/thinking times.  The source
// only generates arrivals; queueing and transmission live in the MAC/sim.
#pragma once

#include <optional>

#include "src/common/rng.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::traffic {

struct DataTrafficConfig {
  double pareto_alpha = 1.7;       // heavy-tail shape (finite mean)
  double min_burst_bytes = 4096.0; // x_m
  double max_burst_bytes = 2.0e6;  // truncation cap
  double mean_reading_s = 4.0;     // exp thinking time between bursts
};

/// Mean of the truncated Pareto implied by the configuration.
double mean_burst_bytes(const DataTrafficConfig& config);

class DataSource {
 public:
  DataSource(const DataTrafficConfig& config, common::Rng rng);

  /// Advances dt seconds.  Returns the size (bytes) of a burst that arrived
  /// during this interval, or nullopt.  At most one burst per call: callers
  /// step at frame granularity (20 ms) while reading times are seconds, so
  /// multiple arrivals per frame are not meaningful.  The next arrival is
  /// armed only after `notify_burst_done()` — a user does not request a new
  /// page while the previous transfer is still in flight.
  std::optional<double> step(double dt);

  /// Signals that the in-flight burst finished (transfer complete), which
  /// starts the next reading period.
  void notify_burst_done();

  bool waiting_for_completion() const { return in_flight_; }

  /// load() is false on a short read or an RNG state Rng::load refuses.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

 private:
  DataTrafficConfig config_;
  common::Rng rng_;
  double next_arrival_s_;
  bool in_flight_ = false;
};

}  // namespace wcdma::traffic
