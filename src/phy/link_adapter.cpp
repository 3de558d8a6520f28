#include "src/phy/link_adapter.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::phy {

LinkAdapter::LinkAdapter(const AdaptationPolicy* policy, std::size_t feedback_delay_frames,
                         double feedback_error_db, common::Rng rng)
    : policy_(policy), feedback_(feedback_delay_frames, feedback_error_db, rng) {
  WCDMA_ASSERT(policy_ != nullptr);
}

FrameOutcome LinkAdapter::on_frame(double true_csi) {
  feedback_.push(true_csi);
  const double reported = feedback_.current();
  const ModeDecision d = policy_->select(reported);

  FrameOutcome out;
  out.mode = d.mode;
  out.throughput = d.throughput;
  if (d.mode > 0) {
    out.realized_ber = policy_->modes().mode(d.mode).ber(true_csi);
    out.ber_violation = out.realized_ber > policy_->target_ber() * (1.0 + 1e-12);
  }
  return out;
}

FixedRateAdapter::FixedRateAdapter(const AdaptationPolicy* policy, int fixed_mode,
                                   std::size_t feedback_delay_frames,
                                   double feedback_error_db, common::Rng rng)
    : policy_(policy),
      fixed_mode_(fixed_mode),
      feedback_(feedback_delay_frames, feedback_error_db, rng) {
  WCDMA_ASSERT(policy_ != nullptr);
  WCDMA_ASSERT(fixed_mode >= 1 &&
               static_cast<std::size_t>(fixed_mode) <= policy_->modes().size());
}

FrameOutcome FixedRateAdapter::on_frame(double true_csi) {
  feedback_.push(true_csi);
  const double reported = feedback_.current();
  const double threshold = policy_->thresholds()[static_cast<std::size_t>(fixed_mode_ - 1)];

  FrameOutcome out;
  if (reported >= threshold) {
    const auto& m = policy_->modes().mode(fixed_mode_);
    out.mode = fixed_mode_;
    out.throughput = m.throughput;
    out.realized_ber = m.ber(true_csi);
    out.ber_violation = out.realized_ber > policy_->target_ber() * (1.0 + 1e-12);
  }
  return out;
}

void FixedRateAdapter::save(common::BinaryWriter& w) const { feedback_.save(w); }
bool FixedRateAdapter::load(common::BinaryReader& r) { return feedback_.load(r); }

}  // namespace wcdma::phy
