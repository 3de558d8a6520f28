// Scenario-preset registry: named, ready-to-run SweepSpecs covering the
// paper's evaluation settings plus the scenario diversity the roadmap asks
// for (hotspot load, vehicular mobility, data-heavy traffic, degraded
// channels), including the multi-cell, multi-carrier topologies built by
// src/scenario (uniform-hex7, hotspot-center, highway-corridor,
// enterprise-data).  The paper's E4-E12 experiments are rows too, each
// built by its src/scenario/experiments.hpp function, so the sweep CLI
// renders every experiment table and each definition lives in one place.
#pragma once

#include <string>
#include <vector>

#include "src/sweep/sweep.hpp"

namespace wcdma::sweep {

/// Names accepted by make_preset, in registry order.
std::vector<std::string> preset_names();

/// True when `name` is a registered preset.
bool has_preset(const std::string& name);

/// Builds the named SweepSpec; aborts on unknown names (use has_preset to
/// probe).  The spec's base.seed is the sweep's master seed.
SweepSpec make_preset(const std::string& name);

/// One-line description for CLI listings.
std::string preset_description(const std::string& name);

}  // namespace wcdma::sweep
