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

void CsiFeedback::save(common::BinaryWriter& w) const {
  rng_.save(w);
  w.u64(pipe_.size());
  for (double v : pipe_) w.f64(v);
}

bool CsiFeedback::load(common::BinaryReader& r) {
  if (!rng_.load(r)) return false;
  const std::size_t n = r.seq(sizeof(double));
  pipe_.clear();
  for (std::size_t i = 0; i < n; ++i) pipe_.push_back(r.f64());
  return r.ok();
}

}  // namespace wcdma::channel
