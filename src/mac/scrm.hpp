// Supplemental Channel Request Message (SCRM) constants.
//
// Section 3.1: "When there is a reverse burst request, the mobile user will
// send a supplemental channel request message (SCRM) to the base station.
// The SCRM message contains the forward link pilot strength measurements
// ... for a number of neighbor cells" (at most 8 in cdma2000, footnote 6).
// The simulator ranks those pilots in Simulator::build_frame_context and
// keeps the pending requests in sim::RequestQueues.
#pragma once

#include <cstddef>

namespace wcdma::mac {

inline constexpr std::size_t kMaxScrmPilots = 8;

enum class LinkDirection { kForward, kReverse };

}  // namespace wcdma::mac
