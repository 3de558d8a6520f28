#include "src/sim/channel_state.hpp"

#include "src/common/assert.hpp"

namespace wcdma::sim {

namespace {

const ChannelProvider kProviders[] = {
    {"exhaustive", "every cell every frame (reference, bit-identical legacy path)",
     /*culls=*/false},
    {"culled",
     "active set + pilot-floor radius candidates on a slow refresh timer; "
     "far cells folded back in as ring aggregates",
     /*culls=*/true},
};

}  // namespace

const ChannelProvider* find_channel_provider(const std::string& name) {
  for (const ChannelProvider& entry : kProviders) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> channel_provider_names() {
  std::vector<std::string> names;
  for (const ChannelProvider& entry : kProviders) names.push_back(entry.name);
  return names;
}

bool has_channel_provider(const std::string& name) {
  return find_channel_provider(name) != nullptr;
}

std::string channel_provider_description(const std::string& name) {
  const ChannelProvider* entry = find_channel_provider(name);
  WCDMA_ASSERT(entry != nullptr && "unknown channel-state provider");
  return entry->description;
}

}  // namespace wcdma::sim
