// The one SimMetrics identity check the tests share.  It walks
// SimMetrics::for_each_field and compares each accumulator's checkpoint
// encoding, so it sees every bit of every accumulator, a new one included
// the moment it gains its row, and names the ones that differ.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/serialize.hpp"
#include "src/sim/metrics.hpp"

namespace wcdma {

/// Names of the accumulators whose encodings differ between `a` and `b`,
/// in list order: each is compared alone, in otherwise default metrics.
inline std::vector<std::string> differing_fields(const sim::SimMetrics& a,
                                                 const sim::SimMetrics& b) {
  const auto encoding = [](const sim::SimMetrics& m) {
    common::BinaryWriter w;
    m.save(w);
    return w.take();
  };
  std::vector<std::string> names;
  sim::SimMetrics::for_each_field([&](const char* name, auto member) {
    sim::SimMetrics only_a, only_b;
    only_a.*member = a.*member;
    only_b.*member = b.*member;
    if (encoding(only_a) != encoding(only_b)) names.push_back(name);
  });
  return names;
}

/// EXPECT_TRUE(metrics_identical(a, b)) fails at the caller, naming every
/// accumulator that differs.
inline ::testing::AssertionResult metrics_identical(const sim::SimMetrics& a,
                                                    const sim::SimMetrics& b) {
  const std::vector<std::string> names = differing_fields(a, b);
  if (names.empty()) return ::testing::AssertionSuccess();
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << "metrics differ in";
  for (const std::string& name : names) failure << ' ' << name;
  return failure;
}

}  // namespace wcdma
