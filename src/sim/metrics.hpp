// Metric collection for the dynamic simulations: the paper's evaluation
// axes are average packet (burst) delay, data-user capacity, and coverage,
// with BER/outage and utilisation as supporting signals.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/stats.hpp"

namespace wcdma::common {
class BinaryWriter;
class BinaryReader;
}  // namespace wcdma::common

namespace wcdma::sim {

inline constexpr std::size_t kCoverageBins = 12;

struct SimMetrics {
  // Burst (packet) delay: arrival -> last bit delivered.
  common::StreamingMoments burst_delay_s;
  common::Histogram delay_hist{0.0, 60.0, 240};
  // Queueing component only: arrival -> grant.
  common::StreamingMoments queue_delay_s;
  // Granted spreading-gain ratios (m_j > 0 only).
  common::StreamingMoments granted_sgr;
  // SCH throughput actually delivered, bits/s averaged over data users.
  double data_bits_delivered = 0.0;
  double observed_s = 0.0;
  // Delay binned by normalised distance from the serving BS at burst
  // arrival (coverage, E7): bin i covers [i, i+1) * (1.2 R / kCoverageBins).
  std::vector<common::StreamingMoments> delay_by_distance{kCoverageBins};

  // PHY health.
  std::int64_t sch_frames = 0;          // frames with an active SCH burst
  std::int64_t sch_outage_frames = 0;   // VTAOC below mode-1 threshold
  std::int64_t ber_violation_frames = 0;
  std::vector<std::int64_t> mode_frames = std::vector<std::int64_t>(8, 0);

  // Admission activity.
  std::int64_t requests_seen = 0;  // requests that arrived after warm-up
  std::int64_t grants = 0;         // grants made after warm-up
  /// Grants of requests counted in requests_seen: `grants` also holds
  /// requests that arrived during warm-up and were granted after it.
  std::int64_t requests_granted = 0;
  std::int64_t reject_rounds = 0;  // scheduling rounds that granted nothing
  /// Grants served on a different carrier than the request arrived on
  /// (inter-carrier hand-down policies only).
  std::int64_t carrier_hand_downs = 0;
  common::StreamingMoments pending_queue_len;

  // Network load.
  common::StreamingMoments forward_load_fraction;  // P_k / P_max
  common::StreamingMoments reverse_rise_db;        // 10log10(L_k / N)
  std::int64_t bs_power_saturations = 0;
  std::int64_t mobile_power_saturations = 0;
  common::StreamingMoments voice_sir_error_db;     // achieved - target

  /// Burst requests refused by the service's bounded injection queue
  /// (ResultCode::kNackOverload).  Zero on the batch path: internal
  /// arrivals never cross the service gate.
  std::int64_t overload_sheds = 0;

  void merge(const SimMetrics& other);

  /// Checkpoint serialization: every accumulator round-trips bit-exactly so
  /// a resumed run's final metrics equal the uninterrupted run's.
  void save(common::BinaryWriter& w) const;
  bool load(common::BinaryReader& r);

  double mean_delay_s() const { return burst_delay_s.mean(); }
  double p95_delay_s() const { return delay_hist.percentile(0.95); }
  double data_throughput_bps() const {
    return observed_s > 0.0 ? data_bits_delivered / observed_s : 0.0;
  }
  double sch_outage_rate() const {
    return sch_frames > 0 ? static_cast<double>(sch_outage_frames) /
                                static_cast<double>(sch_frames)
                          : 0.0;
  }
  double ber_violation_rate() const {
    return sch_frames > 0 ? static_cast<double>(ber_violation_frames) /
                                static_cast<double>(sch_frames)
                          : 0.0;
  }
  /// Share of the post-warm-up requests granted so far; at most 1.
  double grant_rate() const {
    return requests_seen > 0 ? static_cast<double>(requests_granted) /
                                   static_cast<double>(requests_seen)
                             : 0.0;
  }
};

}  // namespace wcdma::sim
