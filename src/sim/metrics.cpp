#include "src/sim/metrics.hpp"

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"
#include "src/common/table.hpp"

namespace wcdma::sim {

namespace {

// What each kind of accumulator does when the field list is walked.
// Counters and sums add; StreamingMoments and Histogram merge, save and
// load themselves; a vector does each element, behind a u64 length that
// load() takes only at the length the struct was built with.

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

void save_field(common::BinaryWriter& w, double v) { w.f64(v); }
void save_field(common::BinaryWriter& w, std::int64_t v) { w.i64(v); }
template <typename T>
void save_field(common::BinaryWriter& w, const T& v) {
  v.save(w);
}
template <typename T>
void save_field(common::BinaryWriter& w, const std::vector<T>& v) {
  w.u64(v.size());
  for (const T& x : v) save_field(w, x);
}

bool load_field(common::BinaryReader& r, double& v) {
  v = r.f64();
  return true;
}
bool load_field(common::BinaryReader& r, std::int64_t& v) {
  v = r.i64();
  return true;
}
template <typename T>
bool load_field(common::BinaryReader& r, T& v) {
  return v.load(r);
}
template <typename T>
bool load_field(common::BinaryReader& r, std::vector<T>& v) {
  return r.sized_vec(v, [&r](T& x) { return load_field(r, x); });
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

void SimMetrics::save(common::BinaryWriter& w) const {
  for_each_field([&](const char*, auto member) { save_field(w, this->*member); });
}

bool SimMetrics::load(common::BinaryReader& r) {
  bool ok = true;
  for_each_field([&](const char*, auto member) {
    ok = ok && load_field(r, this->*member);
  });
  return ok && r.ok();
}

std::string to_json(const SimMetrics& m) {
  std::string out = "{\"metrics\":{";
  SimMetrics::for_each_field([&](const char* name, auto member) {
    out += std::string("\"") + name + "\":" + json_field(m.*member) + ",";
  });
  return out + "\"p95_delay_s\":" + f17(m.p95_delay_s()) + "}}\n";
}

}  // namespace wcdma::sim
