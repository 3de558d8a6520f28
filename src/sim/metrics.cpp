#include "src/sim/metrics.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"
#include "src/common/table.hpp"

namespace wcdma::sim {

namespace {

// What each kind of accumulator does when the field list is walked to
// merge.  Counters and sums add; StreamingMoments and Histogram merge
// themselves; a vector merges element by element.  The checkpoint walks the
// same list through the archive vocabulary (common/serialize.hpp), where a
// vector is a lane load() takes only at the length the struct was built
// with.

void merge_field(double& a, double b) { a += b; }
void merge_field(std::int64_t& a, std::int64_t b) { a += b; }
template <typename T>
void merge_field(T& a, const T& b) {
  a.merge(b);
}
template <typename T>
void merge_field(std::vector<T>& a, const std::vector<T>& b) {
  WCDMA_ASSERT(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) merge_field(a[i], b[i]);
}

template <typename Self, typename Archive>
void archive_fields(Self& m, Archive& ar) {
  SimMetrics::for_each_field([&](const char*, auto member) { ar.field(m.*member); });
}

std::string f17(double v) { return common::format_double(v, 17); }

std::string json_field(double v) { return f17(v); }
std::string json_field(std::int64_t v) { return std::to_string(v); }
std::string json_field(std::uint64_t v) { return std::to_string(v); }
std::string json_field(const common::StreamingMoments& m) {
  return "{\"n\":" + std::to_string(m.count()) + ",\"mean\":" + f17(m.mean()) +
         ",\"var\":" + f17(m.variance()) + ",\"min\":" + f17(m.min()) +
         ",\"max\":" + f17(m.max()) + "}";
}
template <typename T>
std::string json_field(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? "," : "") + json_field(v[i]);
  }
  return out + "]";
}
std::string json_field(const common::Histogram& h) { return json_field(h.bins()); }

// Every accumulator is 8-byte aligned, so the listed members tile the
// struct exactly: a member left off the list leaves bytes over.
template <typename T>
constexpr std::size_t member_size(T SimMetrics::*) {
  return sizeof(T);
}
constexpr std::size_t listed_bytes() {
  std::size_t bytes = 0;
  SimMetrics::for_each_field(
      [&bytes](const char*, auto member) { bytes += member_size(member); });
  return bytes;
}
static_assert(listed_bytes() == sizeof(SimMetrics),
              "every SimMetrics member must be a row of for_each_field");

}  // namespace

void SimMetrics::merge(const SimMetrics& other) {
  for_each_field(
      [&](const char*, auto member) { merge_field(this->*member, other.*member); });
}

void SimMetrics::save(common::BinaryWriter& w) const { archive_fields(*this, w); }
bool SimMetrics::load(common::BinaryReader& r) { return r.load_whole(*this, archive_fields); }

std::string to_json(const SimMetrics& m) {
  std::string out = "{\"metrics\":{";
  SimMetrics::for_each_field([&](const char* name, auto member) {
    out += std::string("\"") + name + "\":" + json_field(m.*member) + ",";
  });
  return out + "\"p95_delay_s\":" + f17(m.p95_delay_s()) + "}}\n";
}

}  // namespace wcdma::sim
