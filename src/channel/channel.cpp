#include "src/channel/channel.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::channel {

CsiFeedback::CsiFeedback(std::size_t delay_frames, double error_sigma_db, common::Rng rng)
    : delay_frames_(delay_frames), error_sigma_db_(error_sigma_db), rng_(rng) {}

void CsiFeedback::push(double csi_linear) {
  WCDMA_DEBUG_ASSERT(csi_linear >= 0.0);
  double reported = csi_linear;
  if (error_sigma_db_ > 0.0) {
    reported *= rng_.lognormal_shadow(error_sigma_db_);
  }
  pipe_.push_back(reported);
  // Keep exactly delay+1 entries: front() is the delayed view.
  while (pipe_.size() > delay_frames_ + 1) pipe_.pop_front();
}

double CsiFeedback::current() const {
  WCDMA_ASSERT(!pipe_.empty());
  return pipe_.front();
}

template <typename Self, typename Archive>
void CsiFeedback::fields(Self& feedback, Archive& ar) {
  ar.field(feedback.rng_);
  ar.vec(feedback.pipe_);
}

void CsiFeedback::save(common::BinaryWriter& w) const { fields(*this, w); }
bool CsiFeedback::load(common::BinaryReader& r) { return r.load_whole(*this, fields); }

}  // namespace wcdma::channel
