#include "src/runner/fault.hpp"

#include <vector>

#include "src/common/parse.hpp"

namespace wcdma::runner {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

}  // namespace

bool FaultPlan::parse(const std::string& text, FaultPlan* out,
                      std::string* error) {
  FaultPlan plan;
  if (text.empty() || text == "none") {
    *out = plan;
    return true;
  }
  const std::size_t colon = text.find(':');
  const std::string kind_name = text.substr(0, colon);
  if (kind_name == "kill") {
    plan.kind = FaultKind::kKill;
  } else if (kind_name == "stall") {
    plan.kind = FaultKind::kStall;
  } else if (kind_name == "corrupt-checkpoint") {
    plan.kind = FaultKind::kCorruptCheckpoint;
  } else if (kind_name == "drop-result") {
    plan.kind = FaultKind::kDropResult;
  } else {
    return fail(error, "unknown fault kind '" + kind_name +
                           "' (kill|stall|corrupt-checkpoint|drop-result)");
  }

  bool have_shard = false;
  if (colon != std::string::npos) {
    std::string rest = text.substr(colon + 1);
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= rest.size()) {
      const std::size_t comma = rest.find(',', start);
      parts.push_back(rest.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    for (const std::string& part : parts) {
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) {
        return fail(error, "fault option '" + part + "' is not key=value");
      }
      const std::string key = part.substr(0, eq);
      const std::string value = part.substr(eq + 1);
      if (key == "shard") {
        if (!common::parse_count(value.c_str(), &plan.shard)) {
          return fail(error, "bad shard '" + value + "'");
        }
        have_shard = true;
      } else if (key == "frame") {
        if (!common::parse_count(value.c_str(), &plan.frame)) {
          return fail(error, "bad frame '" + value + "'");
        }
      } else if (key == "item") {
        // SIZE_MAX is the "any item" sentinel, not an item.
        if (!common::parse_count(value.c_str(), &plan.item) || plan.item == SIZE_MAX) {
          return fail(error, "bad item '" + value + "'");
        }
      } else if (key == "mode") {
        if (value == "bitflip") {
          plan.mode = CorruptMode::kBitFlip;
        } else if (value == "truncate") {
          plan.mode = CorruptMode::kTruncate;
        } else {
          return fail(error, "bad mode '" + value + "' (bitflip|truncate)");
        }
      } else if (key == "attempts") {
        if (value == "all") {
          plan.every_attempt = true;
        } else if (value == "first") {
          plan.every_attempt = false;
        } else {
          return fail(error, "bad attempts '" + value + "' (first|all)");
        }
      } else {
        return fail(error, "unknown fault option '" + key + "'");
      }
    }
  }
  if (!have_shard) return fail(error, "fault spec needs shard=I");
  *out = plan;
  return true;
}

}  // namespace wcdma::runner
