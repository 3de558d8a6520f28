#include "src/phy/modes.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/refmath.hpp"

namespace wcdma::phy {

double TransmissionMode::ber(double gamma) const {
  WCDMA_DEBUG_ASSERT(gamma >= 0.0);
  const double v = ber_a * common::refmath::exp(-ber_b * gamma);
  return v > 0.5 ? 0.5 : v;
}

double TransmissionMode::gamma_for_ber(double target_ber) const {
  WCDMA_ASSERT(target_ber > 0.0 && target_ber < ber_a);
  return common::refmath::log(ber_a / target_ber) / ber_b;
}

ModeSet::ModeSet(std::vector<TransmissionMode> modes) : modes_(std::move(modes)) {
  WCDMA_ASSERT(!modes_.empty());
  for (std::size_t i = 1; i < modes_.size(); ++i) {
    // The ladder must be strictly ordered: more throughput, less protection.
    WCDMA_ASSERT(modes_[i].throughput > modes_[i - 1].throughput);
    WCDMA_ASSERT(modes_[i].ber_b < modes_[i - 1].ber_b);
  }
}

const TransmissionMode& ModeSet::mode(int q) const {
  WCDMA_ASSERT(q >= 1 && static_cast<std::size_t>(q) <= modes_.size());
  return modes_[static_cast<std::size_t>(q - 1)];
}

ModeSet make_vtaoc_modes(const VtaocParams& params) {
  WCDMA_ASSERT(params.num_modes >= 1);
  std::vector<TransmissionMode> modes(static_cast<std::size_t>(params.num_modes));
  for (int q = 1; q <= params.num_modes; ++q) {
    TransmissionMode& m = modes[static_cast<std::size_t>(q - 1)];
    m.index = q;
    m.throughput = std::ldexp(params.top_throughput, q - params.num_modes);
    m.ber_a = params.a;
    m.ber_b = std::ldexp(params.b1, 1 - q);
  }
  return ModeSet(std::move(modes));
}

}  // namespace wcdma::phy
