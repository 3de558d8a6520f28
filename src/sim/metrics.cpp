#include "src/sim/metrics.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::sim {

void SimMetrics::merge(const SimMetrics& other) {
  burst_delay_s.merge(other.burst_delay_s);
  delay_hist.merge(other.delay_hist);
  queue_delay_s.merge(other.queue_delay_s);
  granted_sgr.merge(other.granted_sgr);
  data_bits_delivered += other.data_bits_delivered;
  observed_s += other.observed_s;
  WCDMA_ASSERT(delay_by_distance.size() == other.delay_by_distance.size());
  for (std::size_t i = 0; i < delay_by_distance.size(); ++i) {
    delay_by_distance[i].merge(other.delay_by_distance[i]);
  }
  sch_frames += other.sch_frames;
  sch_outage_frames += other.sch_outage_frames;
  ber_violation_frames += other.ber_violation_frames;
  WCDMA_ASSERT(mode_frames.size() == other.mode_frames.size());
  for (std::size_t i = 0; i < mode_frames.size(); ++i) {
    mode_frames[i] += other.mode_frames[i];
  }
  requests_seen += other.requests_seen;
  grants += other.grants;
  requests_granted += other.requests_granted;
  reject_rounds += other.reject_rounds;
  carrier_hand_downs += other.carrier_hand_downs;
  pending_queue_len.merge(other.pending_queue_len);
  forward_load_fraction.merge(other.forward_load_fraction);
  reverse_rise_db.merge(other.reverse_rise_db);
  bs_power_saturations += other.bs_power_saturations;
  mobile_power_saturations += other.mobile_power_saturations;
  voice_sir_error_db.merge(other.voice_sir_error_db);
  overload_sheds += other.overload_sheds;
}

void SimMetrics::save(common::BinaryWriter& w) const {
  burst_delay_s.save(w);
  delay_hist.save(w);
  queue_delay_s.save(w);
  granted_sgr.save(w);
  w.f64(data_bits_delivered);
  w.f64(observed_s);
  w.u64(delay_by_distance.size());
  for (const common::StreamingMoments& m : delay_by_distance) m.save(w);
  w.i64(sch_frames);
  w.i64(sch_outage_frames);
  w.i64(ber_violation_frames);
  w.vec_i64(mode_frames);
  w.i64(requests_seen);
  w.i64(grants);
  w.i64(requests_granted);
  w.i64(reject_rounds);
  w.i64(carrier_hand_downs);
  pending_queue_len.save(w);
  forward_load_fraction.save(w);
  reverse_rise_db.save(w);
  w.i64(bs_power_saturations);
  w.i64(mobile_power_saturations);
  voice_sir_error_db.save(w);
  w.i64(overload_sheds);
}

bool SimMetrics::load(common::BinaryReader& r) {
  burst_delay_s.load(r);
  if (!delay_hist.load(r)) return false;
  queue_delay_s.load(r);
  granted_sgr.load(r);
  data_bits_delivered = r.f64();
  observed_s = r.f64();
  if (r.seq(8) != delay_by_distance.size()) return false;
  for (common::StreamingMoments& m : delay_by_distance) m.load(r);
  sch_frames = r.i64();
  sch_outage_frames = r.i64();
  ber_violation_frames = r.i64();
  std::vector<std::int64_t> modes;
  r.vec_i64(modes);
  if (!r.ok() || modes.size() != mode_frames.size()) return false;
  mode_frames = std::move(modes);
  requests_seen = r.i64();
  grants = r.i64();
  requests_granted = r.i64();
  reject_rounds = r.i64();
  carrier_hand_downs = r.i64();
  pending_queue_len.load(r);
  forward_load_fraction.load(r);
  reverse_rise_db.load(r);
  bs_power_saturations = r.i64();
  mobile_power_saturations = r.i64();
  voice_sir_error_db.load(r);
  overload_sheds = r.i64();
  return r.ok();
}

}  // namespace wcdma::sim
