// Channel-state (CSI) provider table: the two ways sim::FrameState may
// choose each user's candidate cells -- the cells whose links it steps.
//
//  * exhaustive -- every cell, every frame; the reference implementation,
//    bit-identical to the pre-seam simulator.
//  * culled -- per-user candidate set = active-set members plus cells
//    within a pilot-floor radius, refreshed on a slow timer; per-frame link
//    state is O(users x nearby-cells).  Each link keeps its own RNG stream,
//    so a candidate link's realisation is identical to the exhaustive
//    one's for as long as it stays in the set -- culling only drops
//    far-cell contributions, which the far-field aggregator restores
//    (tests/test_statcheck.cpp certifies it against exhaustive).
//
// Both run the same link math.  A row is data, not code: FrameState::init
// reads `culls` from the row that `csi.provider` names
// (src/sim/frame_state.hpp).
#pragma once

#include <string>
#include <vector>

namespace wcdma::sim {

struct ChannelProvider {
  const char* name;
  const char* description;
  /// Candidate sets may be a strict subset of the world: FrameState refreshes
  /// them on a timer, and the far-field aggregator restores the rest.
  bool culls;
};

/// The row named `name`, or nullptr when no provider is registered under it.
const ChannelProvider* find_channel_provider(const std::string& name);
/// Registered provider names, in table order ("exhaustive", "culled").
std::vector<std::string> channel_provider_names();
bool has_channel_provider(const std::string& name);
std::string channel_provider_description(const std::string& name);

}  // namespace wcdma::sim
