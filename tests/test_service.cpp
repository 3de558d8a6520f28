// Determinism harness for the message-driven service core (src/service/):
//
//  * compliance-table round-trips: every catalogue event type survives
//    writer -> JSONL -> reader bit-exactly, and table rows stay in enum
//    order with unique names/tags;
//  * replay-vs-live bit-identity: a run recorded from the internal-traffic
//    batch path replays through the AdmissionService to metrics that match
//    the originating run bit for bit, on the shrunk E5 grid point and the
//    hotspot-centre scenario;
//  * checkpoint/restore: snapshot at frame k + resume into a fresh
//    simulator equals the uninterrupted run, as a property across three
//    master seeds; mismatched-config and forged archives (out-of-range
//    indices, a frame clock past the horizon, a delay histogram whose
//    counts do not fit, also in shard result files) are refused with state
//    untouched;
//  * protocol nacks: malformed, duplicate, out-of-order, and
//    unknown-target events nack with the catalogue's result codes and
//    leave all state unchanged, and the trace reader rejects malformed
//    lines with a line number instead of guessing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/serialize.hpp"
#include "src/runner/shard_io.hpp"
#include "src/scenario/experiments.hpp"
#include "src/service/events.hpp"
#include "src/service/service.hpp"
#include "src/service/trace.hpp"
#include "src/sim/simulator.hpp"
#include "tests/metrics_identity.hpp"

namespace wcdma {
namespace {

using service::AdmissionService;
using service::Event;
using service::EventResult;
using service::EventType;
using service::ResultCode;
using service::TraceHeader;
using service::TraceReader;
using service::TraceRecord;
using service::TraceWriter;

std::int64_t frame_count(const sim::SystemConfig& cfg) {
  return static_cast<std::int64_t>(std::llround(cfg.sim_duration_s / cfg.frame_s));
}

/// Shrunk E5 grid point (reverse-link, all-upload): the same base the golden
/// bit-identity tests pin, cut to a test-budget duration.
sim::SystemConfig shrunk_e5_config(std::uint64_t seed) {
  sim::SystemConfig cfg = scenario::e5_delay_rl().base;
  cfg.seed = seed;
  cfg.voice.users = 10;
  cfg.data.users = 6;
  cfg.sim_duration_s = 6.0;
  cfg.warmup_s = 2.0;
  return cfg;
}

sim::SystemConfig hotspot_config(std::uint64_t seed) {
  sim::SystemConfig cfg = scenario::hotspot_cell_config(seed);
  cfg.sim_duration_s = 6.0;
  cfg.warmup_s = 1.0;
  return cfg;
}

// --- Compliance table -----------------------------------------------------

TEST(EventCatalogue, RowsStayInEnumOrderWithUniqueNamesAndTags) {
  const auto& table = service::event_catalogue();
  std::set<std::string> names, tags;
  for (std::size_t i = 0; i < service::kNumEventTypes; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(table[i].type), i);
    EXPECT_TRUE(names.insert(table[i].name).second) << table[i].name;
    EXPECT_TRUE(tags.insert(table[i].tag).second) << table[i].tag;
    // The wire tag must resolve back to the same row.
    EXPECT_EQ(service::event_spec_by_tag(table[i].tag), &table[i]);
  }
  EXPECT_EQ(service::event_spec_by_tag("no-such-tag"), nullptr);
}

TEST(EventCatalogue, OnlyMeasurementReportLeavesStateUntouched) {
  for (const service::EventSpec& spec : service::event_catalogue()) {
    EXPECT_EQ(spec.mutates_state, spec.type != EventType::kMeasurementReport)
        << spec.name;
  }
}

// One writer->reader round-trip per catalogue row, fields driven by the
// row's own needs_* flags so a new event type is covered the moment it
// gains a table entry.
TEST(EventCatalogue, EveryEventTypeRoundTripsThroughTheTraceFormat) {
  TraceHeader header;
  header.policy = "jaba-sd";
  header.provider = "exhaustive";
  for (const service::EventSpec& spec : service::event_catalogue()) {
    SCOPED_TRACE(spec.name);
    Event e;
    e.type = spec.type;
    e.frame = 1234;
    if (spec.needs_user) e.user = 17;
    // An awkward payload: must survive %.17g exactly.
    if (spec.needs_bits) e.bits = 40629.498868052222;
    if (spec.needs_carrier) e.carrier = 2;

    std::stringstream stream;
    TraceWriter writer(stream);
    writer.begin(header);
    writer.event(e);
    writer.finish();

    TraceReader reader(stream);
    TraceHeader parsed;
    ASSERT_TRUE(reader.read_header(&parsed)) << reader.error();
    TraceRecord record;
    ASSERT_TRUE(reader.next(&record)) << reader.error();
    if (spec.type == EventType::kTick) {
      EXPECT_EQ(record.ticks, 1);
    } else {
      EXPECT_EQ(record.ticks, 0);
      EXPECT_EQ(record.event.type, e.type);
      EXPECT_EQ(record.event.frame, e.frame);
      if (spec.needs_user) {
        EXPECT_EQ(record.event.user, e.user);
      }
      if (spec.needs_bits) {
        EXPECT_EQ(record.event.bits, e.bits);
      }
      if (spec.needs_carrier) {
        EXPECT_EQ(record.event.carrier, e.carrier);
      }
    }
    EXPECT_FALSE(reader.next(&record));
    EXPECT_TRUE(reader.ok()) << reader.error();
  }
}

TEST(TraceFormat, HeaderRoundTripsEveryField) {
  TraceHeader header;
  header.seed = 0xDEADBEEFCAFEull;
  header.users = 421;
  header.cells = 19;
  header.carriers = 3;
  header.frame_s = 0.020000000000000004;  // not exactly 0.02: %.17g territory
  header.policy = "hand-down";
  header.provider = "culled";

  std::stringstream stream;
  TraceWriter writer(stream);
  writer.begin(header);
  writer.finish();

  TraceReader reader(stream);
  TraceHeader parsed;
  ASSERT_TRUE(reader.read_header(&parsed)) << reader.error();
  EXPECT_EQ(parsed.version, service::kTraceVersion);
  EXPECT_EQ(parsed.seed, header.seed);
  EXPECT_EQ(parsed.users, header.users);
  EXPECT_EQ(parsed.cells, header.cells);
  EXPECT_EQ(parsed.carriers, header.carriers);
  EXPECT_EQ(parsed.frame_s, header.frame_s);
  EXPECT_EQ(parsed.policy, header.policy);
  EXPECT_EQ(parsed.provider, header.provider);
}

TEST(TraceFormat, ConsecutiveTicksCoalesceAndExpand) {
  TraceHeader header;
  std::stringstream stream;
  TraceWriter writer(stream);
  writer.begin(header);
  for (int i = 0; i < 57; ++i) writer.event(Event::tick());
  writer.event(Event::burst_request(57, 3, 1000.0));
  for (int i = 0; i < 2; ++i) writer.event(Event::tick());
  writer.finish();

  // 1 header + coalesced tick + req + coalesced tick.
  std::string text = stream.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);

  TraceReader reader(stream);
  TraceHeader parsed;
  ASSERT_TRUE(reader.read_header(&parsed));
  TraceRecord record;
  ASSERT_TRUE(reader.next(&record));
  EXPECT_EQ(record.ticks, 57);
  ASSERT_TRUE(reader.next(&record));
  EXPECT_EQ(record.ticks, 0);
  EXPECT_EQ(record.event.type, EventType::kBurstRequest);
  ASSERT_TRUE(reader.next(&record));
  EXPECT_EQ(record.ticks, 2);
  EXPECT_FALSE(reader.next(&record));
  EXPECT_TRUE(reader.ok());
}

TEST(TraceFormat, MalformedLinesFailWithALineNumber) {
  const std::string header =
      "{\"trace\":\"wcdma-burst-events\",\"v\":1,\"seed\":1,\"users\":4,"
      "\"cells\":7,\"carriers\":1,\"frame_s\":0.02,\"policy\":\"jaba-sd\","
      "\"provider\":\"exhaustive\"}\n";
  const struct {
    const char* line;
    const char* why;
  } kCases[] = {
      {"{\"e\":\"warp\",\"f\":1}\n", "unknown tag"},
      {"{\"e\":\"req\",\"u\":3,\"bits\":10}\n", "missing frame"},
      {"{\"e\":\"req\",\"f\":1,\"bits\":10}\n", "missing user"},
      {"{\"e\":\"req\",\"f\":1,\"u\":3}\n", "missing bits"},
      {"{\"e\":\"hd\",\"f\":1,\"u\":3}\n", "missing carrier"},
      {"{\"e\":\"tick\",\"n\":0}\n", "non-positive tick count"},
      {"{\"e\":\"tick\",\"n\":-4}\n", "negative tick count"},
      {"{\"f\":1,\"u\":3}\n", "missing tag"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.why);
    std::stringstream stream(header + c.line);
    TraceReader reader(stream);
    TraceHeader parsed;
    ASSERT_TRUE(reader.read_header(&parsed)) << reader.error();
    TraceRecord record;
    EXPECT_FALSE(reader.next(&record));
    EXPECT_FALSE(reader.ok());
    // Errors carry the 1-based line number of the offending line.
    EXPECT_NE(reader.error().find("line 2"), std::string::npos) << reader.error();
  }
}

TEST(TraceFormat, RejectsForeignAndDownlevelHeaders) {
  {
    std::stringstream stream("{\"trace\":\"other-format\",\"v\":1}\n");
    TraceReader reader(stream);
    TraceHeader parsed;
    EXPECT_FALSE(reader.read_header(&parsed));
    EXPECT_FALSE(reader.ok());
  }
  {
    std::stringstream stream(
        "{\"trace\":\"wcdma-burst-events\",\"v\":2,\"seed\":1,\"users\":4,"
        "\"cells\":7,\"carriers\":1,\"frame_s\":0.02,\"policy\":\"p\","
        "\"provider\":\"q\"}\n");
    TraceReader reader(stream);
    TraceHeader parsed;
    EXPECT_FALSE(reader.read_header(&parsed));
    EXPECT_NE(reader.error().find("version"), std::string::npos);
  }
  {
    std::stringstream stream("");
    TraceReader reader(stream);
    TraceHeader parsed;
    EXPECT_FALSE(reader.read_header(&parsed));
    EXPECT_NE(reader.error().find("empty"), std::string::npos);
  }
}

// --- Replay-vs-live bit-identity -------------------------------------------

void expect_replay_matches_live(const sim::SystemConfig& cfg) {
  std::stringstream trace;
  sim::SimMetrics live;
  {
    sim::Simulator sim(cfg);
    service::TraceRecorder recorder(sim, trace);
    recorder.run_frames(frame_count(cfg));
    recorder.finish();
    live = sim.metrics();
  }
  const service::ReplayResult replayed = service::replay_trace(cfg, trace);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.counters.nacks, 0);
  EXPECT_EQ(replayed.counters.ticks, frame_count(cfg));
  // Every recorded request is an external injection on replay; the live
  // run counted the same arrivals internally (warmup arrivals included:
  // requests_seen is post-warmup only, counters.requests is not).
  EXPECT_GE(replayed.counters.requests, replayed.metrics.requests_seen);
  EXPECT_TRUE(metrics_identical(live, replayed.metrics));
}

TEST(ReplayBitIdentity, ShrunkE5ReverseLink) {
  expect_replay_matches_live(shrunk_e5_config(42));
}

TEST(ReplayBitIdentity, HotspotCenter) {
  expect_replay_matches_live(hotspot_config(7));
}

TEST(ReplayBitIdentity, CulledProviderHotspot) {
  sim::SystemConfig cfg = hotspot_config(11);
  cfg.csi.provider = "culled";
  expect_replay_matches_live(cfg);
}

TEST(Replay, RefusesAForeignHeader) {
  sim::SystemConfig cfg = hotspot_config(7);
  std::stringstream trace;
  {
    sim::Simulator sim(cfg);
    service::TraceRecorder recorder(sim, trace);
    recorder.run_frames(10);
  }
  cfg.seed = 8;  // recorded under seed 7
  const service::ReplayResult replayed = service::replay_trace(cfg, trace);
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(replayed.error.find("does not match"), std::string::npos)
      << replayed.error;
}

// --- Checkpoint / restore ---------------------------------------------------

// Property: for several master seeds and every provider (`culled` with the
// far field live and churning candidate sets), snapshot at frame k
// + restore onto a simulator that has already stepped + run the remaining
// frames == the uninterrupted run, bit for bit (metrics, station powers and
// the final snapshot).  k = 0 and 1 pin the far field's first-frame gate:
// the aggregates must first refresh on the frame after the one that filled
// the candidate sets, whether or not a restore came in between.
TEST(CheckpointRestore, ResumedRunEqualsUninterruptedAcrossSeeds) {
  for (const std::string provider : {"exhaustive", "culled"}) {
    for (const std::uint64_t seed : {3ull, 17ull, 90001ull}) {
      sim::SystemConfig cfg = hotspot_config(seed);
      cfg.csi.provider = provider;
      cfg.csi.refresh_interval_s = 0.2;
      cfg.csi.cull_radius_scale = 2.0;
      const std::int64_t frames = frame_count(cfg);

      sim::Simulator uninterrupted(cfg);
      for (std::int64_t f = 0; f < frames; ++f) uninterrupted.step_frame();
      ASSERT_EQ(uninterrupted.far_field_active(), provider != "exhaustive");

      for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                                   std::int64_t{11}, frames / 3}) {
        SCOPED_TRACE(provider + ", seed " + std::to_string(seed) + ", k " +
                     std::to_string(k));
        std::vector<std::uint8_t> archive;
        {
          sim::Simulator first(cfg);
          for (std::int64_t f = 0; f < k; ++f) first.step_frame();
          archive = first.snapshot();
        }
        sim::Simulator resumed(cfg);
        for (int f = 0; f < 3; ++f) resumed.step_frame();
        ASSERT_TRUE(resumed.restore(archive));
        EXPECT_EQ(resumed.frame_index(), k);
        for (std::int64_t f = k; f < frames; ++f) resumed.step_frame();

        EXPECT_TRUE(metrics_identical(uninterrupted.metrics(), resumed.metrics()));
        for (std::size_t cell = 0; cell < uninterrupted.num_cells(); ++cell) {
          EXPECT_EQ(uninterrupted.forward_power_w(cell), resumed.forward_power_w(cell));
          EXPECT_EQ(uninterrupted.reverse_interference_w(cell),
                    resumed.reverse_interference_w(cell));
        }
        EXPECT_TRUE(uninterrupted.snapshot() == resumed.snapshot());
      }
    }
  }
}

TEST(CheckpointRestore, SnapshotIsStableAcrossIdenticalRuns) {
  const sim::SystemConfig cfg = hotspot_config(5);
  auto snap_at = [&](std::int64_t k) {
    sim::Simulator sim(cfg);
    for (std::int64_t f = 0; f < k; ++f) sim.step_frame();
    return sim.snapshot();
  };
  // The serialized form is deterministic: two identical runs produce
  // byte-identical archives (the property CI's cmp-based smoke rests on).
  EXPECT_EQ(snap_at(50), snap_at(50));
  EXPECT_NE(snap_at(50), snap_at(51));
}

TEST(CheckpointRestore, RefusesMismatchedConfigAndTruncatedArchives) {
  const sim::SystemConfig cfg = hotspot_config(5);
  sim::Simulator sim(cfg);
  for (int f = 0; f < 20; ++f) sim.step_frame();
  const std::vector<std::uint8_t> archive = sim.snapshot();

  {
    sim::SystemConfig other = cfg;
    other.seed = 6;
    sim::Simulator victim(other);
    EXPECT_FALSE(victim.restore(archive));
    EXPECT_EQ(victim.frame_index(), 0);  // state untouched
  }
  {
    sim::SystemConfig other = cfg;
    other.data.users += 1;
    sim::Simulator victim(other);
    EXPECT_FALSE(victim.restore(archive));
  }
  {
    std::vector<std::uint8_t> truncated(archive.begin(),
                                        archive.begin() + archive.size() / 2);
    sim::Simulator victim(cfg);
    EXPECT_FALSE(victim.restore(truncated));
    std::vector<std::uint8_t> garbage(64, 0xAB);
    EXPECT_FALSE(victim.restore(garbage));
    EXPECT_FALSE(victim.restore({}));
  }
}

// The v2 crc32 footer turns silent bit rot into a refused restore: flipping
// any single bit -- payload, header, or the footer itself -- must soft-fail
// and leave the victim untouched.
TEST(CheckpointRestore, SingleBitFlipAnywhereIsRefused) {
  const sim::SystemConfig cfg = hotspot_config(9);
  sim::Simulator donor(cfg);
  for (int f = 0; f < 12; ++f) donor.step_frame();
  const std::vector<std::uint8_t> archive = donor.snapshot();

  sim::Simulator victim(cfg);
  const std::vector<std::uint8_t> before = victim.snapshot();
  std::vector<std::uint8_t> damaged = archive;
  for (std::size_t i = 0; i < archive.size(); i += 97) {
    damaged[i] ^= 0x10;
    ASSERT_FALSE(victim.restore(damaged)) << "flip at byte " << i;
    ASSERT_TRUE(victim.snapshot() == before)
        << "refused restore mutated state (flip at byte " << i << ")";
    damaged[i] = archive[i];
  }
  // Also the very last byte (inside the crc footer itself).
  damaged.back() ^= 0x01;
  EXPECT_FALSE(victim.restore(damaged));
  damaged.back() = archive.back();
  ASSERT_TRUE(victim.restore(damaged));
}

// Transactional restore: an archive truncated at ANY 64-byte boundary must
// soft-fail and leave the victim exactly as it was -- never crash, never
// partially apply.  Pinned by comparing the victim's own snapshot bytes
// before and after each refused restore (snapshots are deterministic).
TEST(CheckpointRestore, TruncationAtEvery64ByteBoundaryLeavesStateUntouched) {
  const sim::SystemConfig cfg = hotspot_config(11);
  sim::Simulator donor(cfg);
  for (int f = 0; f < 15; ++f) donor.step_frame();
  const std::vector<std::uint8_t> archive = donor.snapshot();

  sim::Simulator victim(cfg);
  for (int f = 0; f < 7; ++f) victim.step_frame();
  const std::vector<std::uint8_t> before = victim.snapshot();

  for (std::size_t cut = 0; cut < archive.size(); cut += 64) {
    const std::vector<std::uint8_t> truncated(
        archive.begin(), archive.begin() + static_cast<std::ptrdiff_t>(cut));
    ASSERT_FALSE(victim.restore(truncated)) << "cut at " << cut;
    ASSERT_TRUE(victim.snapshot() == before)
        << "refused restore mutated state (cut at " << cut << ")";
  }
  // The intact archive still restores, and the restored state satisfies the
  // runtime invariant contract.
  ASSERT_TRUE(victim.restore(archive));
  std::string why;
  EXPECT_TRUE(victim.check_invariants(&why)) << why;
  EXPECT_TRUE(victim.snapshot() == archive);
}

// --- Forged archives: CRC-valid, structurally wrong ------------------------

std::uint64_t u64_at(const std::vector<std::uint8_t>& a, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{a[at + i]} << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& a, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) a[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Recomputes the crc32 footer over the edited payload, so the checksum
/// cannot be what refuses a forged archive.
void reseal(std::vector<std::uint8_t>& a) {
  const std::size_t payload = a.size() - 4;
  const std::uint32_t crc = common::crc32(a.data(), payload);
  for (std::size_t i = 0; i < 4; ++i) {
    a[payload + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// restore() reads only its own layout version.  An archive whose version
// word names an older or newer layout is refused even with a valid
// checksum, and the victim keeps its state.
TEST(CheckpointRestore, RefusesOtherSnapshotVersions) {
  const sim::SystemConfig cfg = hotspot_config(15);
  sim::Simulator donor(cfg);
  for (int f = 0; f < 10; ++f) donor.step_frame();
  const std::vector<std::uint8_t> archive = donor.snapshot();

  sim::Simulator victim(cfg);
  for (int f = 0; f < 3; ++f) victim.step_frame();
  const std::vector<std::uint8_t> before = victim.snapshot();

  constexpr std::size_t kVersionAt = 4;  // the u32 after the magic
  std::uint32_t version = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    version |= std::uint32_t{archive[kVersionAt + i]} << (8 * i);
  }
  ASSERT_EQ(version, 8u);
  for (const std::uint32_t other : {version - 1, version + 1}) {
    std::vector<std::uint8_t> forged = archive;
    for (std::size_t i = 0; i < 4; ++i) {
      forged[kVersionAt + i] = static_cast<std::uint8_t>(other >> (8 * i));
    }
    reseal(forged);
    EXPECT_FALSE(victim.restore(forged)) << "version " << other;
    EXPECT_TRUE(victim.snapshot() == before)
        << "refused restore mutated state (version " << other << ")";
  }
  // Resealing alone does not spoil an archive: the real version restores.
  std::vector<std::uint8_t> resealed = archive;
  reseal(resealed);
  ASSERT_TRUE(victim.restore(resealed));
  EXPECT_TRUE(victim.snapshot() == archive);
}

/// Offsets of every user's active-set member list in a snapshot: the places
/// where an ActiveSet checkpoint's layout starts -- an f64 drop-timer lane
/// of `cells` entries, a member count of 1 to 3, that many in-range cells,
/// and a set initialised flag.  Users are serialized in order.
std::vector<std::size_t> member_list_offsets(const std::vector<std::uint8_t>& a,
                                             std::size_t cells) {
  const std::size_t lane = 8 + 8 * cells;
  std::vector<std::size_t> found;
  for (std::size_t at = 0; at + lane + 8 * 5 < a.size(); ++at) {
    if (u64_at(a, at) != cells) continue;
    const std::size_t list = at + lane;
    const std::uint64_t n = u64_at(a, list);
    if (n < 1 || n > 3) continue;
    bool in_range = true;
    for (std::size_t j = 0; j < n; ++j) {
      in_range = in_range && u64_at(a, list + 8 + 8 * j) < cells;
    }
    if (in_range && a[list + 8 + 8 * n] == 1) found.push_back(list);
  }
  return found;
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& a, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{a[at + i]} << (8 * i);
  return v;
}

void put_u32(std::vector<std::uint8_t>& a, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) a[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Restores `forged` onto `victim` and expects a refusal that leaves the
/// victim's own snapshot unchanged.
void expect_refused(sim::Simulator& victim, const std::vector<std::uint8_t>& forged,
                    const std::string& what) {
  const std::vector<std::uint8_t> before = victim.snapshot();
  EXPECT_FALSE(victim.restore(forged)) << what;
  EXPECT_TRUE(victim.snapshot() == before) << what << ": refused restore mutated state";
}

// xoshiro never leaves its all-zero state, where each rejection-sampled
// draw (normal(), uniform_int()) spins forever.  restore() refuses a
// CRC-valid archive holding that state and keeps the victim's own; nothing
// here steps a frame.
TEST(CheckpointRestore, RefusesAnAllZeroRngStream) {
  const sim::SystemConfig cfg = hotspot_config(15);
  sim::Simulator victim(cfg);
  const std::vector<std::uint8_t> archive = victim.snapshot();
  // The master stream follows the header (magic, version, seed, users,
  // cells, carriers, frame_s, policy, provider) and three clocks.
  const std::size_t master = 44 + 8 + cfg.admission.policy.size() + 8 +
                             cfg.csi.provider.size() + 3 * 8;
  const auto with_master_words = [&](std::uint64_t first) {
    std::vector<std::uint8_t> forged = archive;
    for (std::uint64_t w = 0; w < 4; ++w) {
      put_u64(forged, master + 8 * w, first == 0 ? 0 : first + w);
    }
    reseal(forged);
    return forged;
  };
  expect_refused(victim, with_master_words(0), "all-zero master stream");
  // Any other state is a stream: the offset held the master's words.
  EXPECT_TRUE(victim.restore(with_master_words(1)));
}

/// Offset of the request-queue section: it follows the injection lane, a
/// vec_f64 of one -1.0 ("nothing buffered") per user, and opens with the
/// bucket count, two per carrier.
std::vector<std::size_t> queue_section_offsets(const std::vector<std::uint8_t>& a,
                                               std::size_t users, int carriers) {
  constexpr std::uint64_t kMinusOne = 0xBFF0000000000000ull;
  std::vector<std::size_t> found;
  for (std::size_t at = 0; at + 16 + 8 * users < a.size(); ++at) {
    if (u64_at(a, at) != users) continue;
    bool none_buffered = true;
    for (std::size_t i = 0; i < users && none_buffered; ++i) {
      none_buffered = u64_at(a, at + 8 + 8 * i) == kMinusOne;
    }
    const std::size_t queues = at + 8 + 8 * users;
    if (none_buffered && u64_at(a, queues) == 2 * static_cast<std::uint64_t>(carriers)) {
      found.push_back(queues);
    }
  }
  return found;
}

/// Offset of user 0's candidate set in a culling provider's snapshot: the
/// refresh-timer lane (a vec_f64 of one entry per user) followed by one
/// set per user -- a count of 1 to `cells`, then that many ascending
/// in-range u32 cells.
std::vector<std::size_t> candidate_set_offsets(const std::vector<std::uint8_t>& a,
                                               std::size_t users, std::size_t cells) {
  std::vector<std::size_t> found;
  for (std::size_t at = 0; at + 8 + 8 * users < a.size(); ++at) {
    if (u64_at(a, at) != users) continue;
    std::size_t p = at + 8 + 8 * users;
    bool sets = true;
    for (std::size_t u = 0; u < users && sets; ++u) {
      const std::uint64_t n = p + 8 <= a.size() ? u64_at(a, p) : 0;
      sets = n >= 1 && n <= cells && p + 8 + 4 * n <= a.size();
      for (std::size_t j = 0; sets && j < n; ++j) {
        const std::uint32_t k = u32_at(a, p + 8 + 4 * j);
        sets = k < cells && (j == 0 || k > u32_at(a, p + 4 + 4 * j));
      }
      p += 8 + 4 * n;
    }
    if (sets) found.push_back(at + 8 + 8 * users);
  }
  return found;
}

/// Offset of the far-field aggregator's applied-carrier lane: a vec_i32 of
/// one in-range carrier per user, directly followed by the applied-anchor
/// lane, a vec_u32 of one in-range cell per user.
std::vector<std::size_t> far_field_carrier_offsets(const std::vector<std::uint8_t>& a,
                                                   std::size_t users, std::size_t cells,
                                                   int carriers) {
  std::vector<std::size_t> found;
  for (std::size_t at = 0; at + 16 + 8 * users < a.size(); ++at) {
    const std::size_t anchors = at + 8 + 4 * users;
    if (u64_at(a, at) != users || u64_at(a, anchors) != users) continue;
    bool lanes = true;
    for (std::size_t i = 0; i < users && lanes; ++i) {
      lanes = u32_at(a, at + 8 + 4 * i) < static_cast<std::uint32_t>(carriers) &&
              u32_at(a, anchors + 8 + 4 * i) < cells;
    }
    if (lanes) found.push_back(at);
  }
  return found;
}

/// The culled provider's own lanes: candidate sets, and the far-field
/// anchors and carriers that index the TX buckets.
void expect_forged_candidate_state_refused() {
  sim::SystemConfig cfg = hotspot_config(13);
  cfg.csi.provider = "culled";
  cfg.csi.refresh_interval_s = 0.2;
  cfg.csi.cull_radius_scale = 2.0;
  sim::Simulator donor(cfg);
  for (int f = 0; f < 30; ++f) donor.step_frame();
  ASSERT_TRUE(donor.far_field_active());
  const std::vector<std::uint8_t> archive = donor.snapshot();
  const std::size_t users = donor.num_users(), cells = donor.num_cells();

  sim::Simulator victim(cfg);
  for (int f = 0; f < 4; ++f) victim.step_frame();

  // User 0's last candidate cell, so the set stays ascending.
  {
    const std::vector<std::size_t> found = candidate_set_offsets(archive, users, cells);
    ASSERT_EQ(found.size(), 1u);
    const std::size_t set = found.front();
    std::vector<std::uint8_t> forged = archive;
    put_u32(forged, set + 8 + 4 * (u64_at(archive, set) - 1), 100000);
    reseal(forged);
    expect_refused(victim, forged, "candidate cell 100000");
  }

  const std::vector<std::size_t> found =
      far_field_carrier_offsets(archive, users, cells, cfg.placement.carriers);
  ASSERT_EQ(found.size(), 1u);
  {
    std::vector<std::uint8_t> forged = archive;
    put_u32(forged, found.front() + 8 + 4 * users + 8, 100000);  // user 0's anchor
    reseal(forged);
    expect_refused(victim, forged, "far-field anchor 100000");
  }
  {
    ASSERT_EQ(cfg.placement.carriers, 1);
    std::vector<std::uint8_t> forged = archive;
    put_u32(forged, found.front() + 8, 7);  // user 0's carrier
    reseal(forged);
    expect_refused(victim, forged, "far-field carrier 7 of 1");
  }

  ASSERT_TRUE(victim.restore(archive));
  victim.step_frame();
  std::string why;
  EXPECT_TRUE(victim.check_invariants(&why)) << why;
}

// A checksum proves an archive arrived intact, not that it is sane: a forged
// index that would later address past a table, or a forged clock that the
// lazy fading replay would chase, must be refused like any structural
// failure, leaving the victim untouched.
TEST(CheckpointRestore, RefusesCrcValidArchivesWithOutOfRangeIndices) {
  sim::SystemConfig cfg = hotspot_config(13);
  cfg.placement.carriers = 2;
  constexpr int kDonorFrames = 30;
  sim::Simulator donor(cfg);
  for (int f = 0; f < kDonorFrames; ++f) donor.step_frame();
  const std::vector<std::uint8_t> archive = donor.snapshot();
  const std::size_t users = donor.num_users(), cells = donor.num_cells();

  sim::Simulator victim(cfg);
  for (int f = 0; f < 4; ++f) victim.step_frame();

  // The layout scan must find exactly one member list per user.
  const std::vector<std::size_t> lists = member_list_offsets(archive, cells);
  ASSERT_EQ(lists.size(), users);
  {
    std::vector<std::uint8_t> forged = archive;
    put_u64(forged, lists.front() + 8, 100000);  // user 0's first member
    reseal(forged);
    expect_refused(victim, forged, "active-set member 100000");
  }
  const auto pair = std::find_if(lists.begin(), lists.end(), [&](std::size_t at) {
    return u64_at(archive, at) >= 2;
  });
  ASSERT_NE(pair, lists.end());
  {
    std::vector<std::uint8_t> forged = archive;
    put_u64(forged, *pair + 16, u64_at(archive, *pair + 8));
    reseal(forged);
    expect_refused(victim, forged, "repeated active-set member");
  }

  // A user's carrier field, found by moving an idle data user's carrier
  // through the public API and diffing the two snapshots.
  {
    sim::Simulator probe(cfg);
    for (int f = 0; f < kDonorFrames; ++f) probe.step_frame();
    std::size_t user = cfg.voice.users;
    while (probe.user_has_pending(user) || probe.user_burst_active(user)) ++user;
    ASSERT_LT(user, probe.num_users());
    const std::vector<std::uint8_t> moved_from = probe.snapshot();
    probe.set_user_carrier(user, 1 - probe.user_carrier(user));
    const std::vector<std::uint8_t> moved_to = probe.snapshot();
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i + 4 < moved_from.size(); ++i) {
      if (moved_from[i] != moved_to[i]) diff.push_back(i);
    }
    ASSERT_EQ(diff.size(), 1u) << "the carrier is one i32 whose low byte flips";
    std::vector<std::uint8_t> forged = archive;
    forged[diff.front()] = 2;  // carriers are 0 and 1
    reseal(forged);
    expect_refused(victim, forged, "user carrier 2 of 2");
  }

  // The per-user carrier mirror the reverse gather indexes stations by: a
  // vec_i32 of one carrier per user, followed by the next per-user lane.
  {
    std::vector<std::size_t> found;
    for (std::size_t at = 0; at + 16 + 4 * users < archive.size(); ++at) {
      if (u64_at(archive, at) != users || u64_at(archive, at + 8 + 4 * users) != users)
        continue;
      bool carriers = true;
      for (std::size_t i = 0; i < users; ++i) {
        const std::size_t c = at + 8 + 4 * i;
        carriers = carriers && archive[c] <= 1 && archive[c + 1] == 0 &&
                   archive[c + 2] == 0 && archive[c + 3] == 0;
      }
      if (carriers) found.push_back(at);
    }
    ASSERT_EQ(found.size(), 1u);
    std::vector<std::uint8_t> forged = archive;
    put_u32(forged, found.front() + 8, 0xffffffffu);  // user 0's mirrored carrier: -1
    reseal(forged);
    expect_refused(victim, forged, "mirrored carrier -1");
  }

  // A queued request's user id: the last entry of the first non-empty
  // bucket, so the bucket stays ascending and only the range is wrong.
  {
    ASSERT_GT(donor.queued_requests(), 0);
    const std::vector<std::size_t> found =
        queue_section_offsets(archive, users, cfg.placement.carriers);
    ASSERT_EQ(found.size(), 1u);
    std::size_t bucket = found.front() + 8;
    while (u64_at(archive, bucket) == 0) bucket += 8;
    const std::size_t last = bucket + 8 + 4 * (u64_at(archive, bucket) - 1);
    std::vector<std::uint8_t> forged = archive;
    put_u32(forged, last, 100000);
    reseal(forged);
    expect_refused(victim, forged, "request-queue user id 100000");
  }

  // FrameState's frame clock: an i64 directly followed by the shadowing
  // stream count, one stream per link.  Restored at 2^50, the next frame's
  // fading replay would run 2^50 steps.
  {
    std::vector<std::size_t> found;
    for (std::size_t at = 0; at + 16 <= archive.size(); ++at) {
      if (u64_at(archive, at) == kDonorFrames && u64_at(archive, at + 8) == users * cells)
        found.push_back(at);
    }
    ASSERT_EQ(found.size(), 1u);
    std::vector<std::uint8_t> forged = archive;
    put_u64(forged, found.front(), std::uint64_t{1} << 50);
    reseal(forged);
    expect_refused(victim, forged, "FrameState frame clock 2^50");
  }

  // The intact archive restores, and the restored world steps.
  ASSERT_TRUE(victim.restore(archive));
  victim.step_frame();
  std::string why;
  EXPECT_TRUE(victim.check_invariants(&why)) << why;

  expect_forged_candidate_state_refused();
}

// The simulator's and FrameState's frame clocks forged together agree, and
// every link's fading clock stays below them, so no invariant catches the
// pair; the next frame's fading replay would chase the forged clock.  No
// run loop in the repository steps past the config's horizon, so restore()
// refuses a clock beyond total_frames(), while an honest archive taken at
// the horizon itself still restores.
TEST(CheckpointRestore, RefusesAFrameClockPastTheHorizon) {
  const sim::SystemConfig cfg = hotspot_config(13);
  constexpr std::uint64_t kDonorFrames = 30;
  sim::Simulator donor(cfg);
  for (std::uint64_t f = 0; f < kDonorFrames; ++f) donor.step_frame();
  const std::vector<std::uint8_t> archive = donor.snapshot();
  const std::size_t users = donor.num_users(), cells = donor.num_cells();

  // The simulator's clock follows its now_s_ f64; FrameState's is directly
  // followed by the shadowing stream count, one stream per link.
  std::uint64_t now_bits = 0;
  const double now = donor.now_s();
  std::memcpy(&now_bits, &now, sizeof(now));
  std::vector<std::size_t> sim_clock, state_clock;
  for (std::size_t at = 0; at + 16 <= archive.size(); ++at) {
    if (u64_at(archive, at + 8) == kDonorFrames && u64_at(archive, at) == now_bits)
      sim_clock.push_back(at + 8);
    if (u64_at(archive, at) == kDonorFrames && u64_at(archive, at + 8) == users * cells)
      state_clock.push_back(at);
  }
  ASSERT_EQ(sim_clock.size(), 1u);
  ASSERT_EQ(state_clock.size(), 1u);

  sim::Simulator victim(cfg);
  for (int f = 0; f < 4; ++f) victim.step_frame();
  const auto horizon = static_cast<std::uint64_t>(victim.total_frames());
  std::vector<std::uint8_t> forged;
  for (const std::uint64_t clock : {horizon + 1, std::uint64_t{1} << 50}) {
    forged = archive;
    put_u64(forged, sim_clock.front(), clock);
    put_u64(forged, state_clock.front(), clock);
    reseal(forged);
    expect_refused(victim, forged, "both frame clocks at " + std::to_string(clock));
  }

  // step_frame() itself does not stop at the horizon, so a simulator a
  // caller stepped past it must still roll back its own state.
  sim::Simulator finished(cfg);
  finished.run();
  ASSERT_EQ(finished.frame_index(), victim.total_frames());
  const std::vector<std::uint8_t> at_horizon = finished.snapshot();
  finished.step_frame();
  expect_refused(finished, forged, "a forged clock onto a simulator past its horizon");

  ASSERT_TRUE(victim.restore(at_horizon));
  EXPECT_TRUE(victim.snapshot() == at_horizon);
}

/// Steps a hotspot world 600 frames, 200 of them past warm-up, so its delay
/// histogram holds counts.
void step_histogram_donor(sim::Simulator& donor) {
  for (int f = 0; f < 600; ++f) donor.step_frame();
  ASSERT_GT(donor.metrics().delay_hist.count(), 0u);
}

/// Offset of the delay histogram's count vector in `archive`, which ends
/// in the encoding of `metrics` and a crc footer: the vector's size prefix
/// follows the burst-delay moments, 40 bytes into the metrics.
std::size_t delay_counts_offset(const std::vector<std::uint8_t>& archive,
                                const sim::SimMetrics& metrics) {
  common::BinaryWriter w;
  metrics.save(w);
  return archive.size() - common::kSealBytes - w.bytes().size() + 40;
}

/// `archive` resealed with its delay histogram's last bin cut: an empty
/// bin, so the total still equals the sum of the counts and only the
/// vector's length is wrong.
std::vector<std::uint8_t> cut_last_delay_bin(std::vector<std::uint8_t> archive,
                                             const sim::SimMetrics& metrics) {
  const std::size_t counts = delay_counts_offset(archive, metrics);
  const std::uint64_t bins = u64_at(archive, counts);
  EXPECT_EQ(bins, metrics.delay_hist.bins().size());
  const std::size_t last = counts + 8 + 8 * (bins - 1);
  EXPECT_EQ(u64_at(archive, last), 0u);
  put_u64(archive, counts, bins - 1);
  archive.erase(archive.begin() + static_cast<std::ptrdiff_t>(last),
                archive.begin() + static_cast<std::ptrdiff_t>(last + 8));
  reseal(archive);
  return archive;
}

// The delay histogram's load used to keep its own counts when the archive's
// vector had another length, yet still overwrite the total, so a forged
// archive restored with a total that no longer matched its counts.
TEST(CheckpointRestore, RefusesAForgedDelayHistogram) {
  sim::Simulator donor(scenario::hotspot_cell_config(13));
  step_histogram_donor(donor);
  const sim::SimMetrics& metrics = donor.metrics();
  const std::vector<std::uint8_t> archive = donor.snapshot();

  sim::Simulator victim(scenario::hotspot_cell_config(13));
  for (int f = 0; f < 4; ++f) victim.step_frame();
  expect_refused(victim, cut_last_delay_bin(archive, metrics),
                 "a delay histogram one bin short");

  // The total follows the counts; one past their sum is forged too.
  std::vector<std::uint8_t> forged = archive;
  const std::size_t total = delay_counts_offset(archive, metrics) + 8 +
                            8 * metrics.delay_hist.bins().size();
  ASSERT_EQ(u64_at(forged, total), metrics.delay_hist.count());
  put_u64(forged, total, metrics.delay_hist.count() + 1);
  reseal(forged);
  expect_refused(victim, forged, "a delay total one past its counts");

  std::vector<std::uint8_t> resealed = archive;
  reseal(resealed);
  ASSERT_TRUE(victim.restore(resealed));
}

// Shard result files carry the same metrics encoding, so the supervisor
// must refuse the same forgery there.
TEST(CheckpointRestore, ShardResultRefusesAForgedDelayHistogram) {
  sim::Simulator donor(scenario::hotspot_cell_config(13));
  step_histogram_donor(donor);
  const runner::ShardHeader header{0, 1, 0, 1, 13};
  const std::vector<std::uint8_t> file =
      runner::encode_shard_result(header, {donor.metrics()});
  std::vector<sim::SimMetrics> items;
  std::string error;
  ASSERT_TRUE(runner::decode_shard_result(file, header, &items, &error)) << error;

  EXPECT_FALSE(runner::decode_shard_result(cut_last_delay_bin(file, donor.metrics()),
                                           header, &items, &error));
  EXPECT_NE(error.find("item 0 failed to decode"), std::string::npos) << error;
  EXPECT_TRUE(items.empty());
}

TEST(CheckpointRestore, ServiceCheckpointCarriesBufferedInjections) {
  const sim::SystemConfig cfg = hotspot_config(9);
  const int data_user = cfg.voice.users;  // users order: voice, then data

  AdmissionService a(cfg);
  ASSERT_TRUE(a.submit(Event::tick()).ok());
  ASSERT_TRUE(
      a.submit(Event::burst_request(a.frame(), data_user, 5000.0)).ok());
  const std::vector<std::uint8_t> archive = a.checkpoint();

  AdmissionService b(cfg);
  ASSERT_TRUE(b.restore(archive));
  EXPECT_EQ(b.frame(), 1);
  // The buffered injection rode along: a duplicate request nacks...
  EXPECT_EQ(b.submit(Event::burst_request(b.frame(), data_user, 5000.0)).code,
            ResultCode::kNackDuplicate);
  // ...and both services drain it in the same frame to the same state.
  for (int f = 0; f < 10; ++f) {
    ASSERT_TRUE(a.submit(Event::tick()).ok());
    ASSERT_TRUE(b.submit(Event::tick()).ok());
  }
  EXPECT_TRUE(metrics_identical(a.simulator().metrics(), b.simulator().metrics()));
}

// --- Protocol nack paths ----------------------------------------------------

TEST(AdmissionServiceProtocol, NacksMalformedAndOutOfOrderEvents) {
  const sim::SystemConfig cfg = hotspot_config(4);
  const int voice_user = 0;
  const int data_user = cfg.voice.users;
  const auto users = static_cast<int>(cfg.voice.users + cfg.data.users);

  AdmissionService service(cfg);
  ASSERT_TRUE(service.submit(Event::tick()).ok());
  const std::int64_t now = service.frame();

  // Frame discipline: stale and future stamps nack.
  EXPECT_EQ(service.submit(Event::burst_request(now - 1, data_user, 1.0)).code,
            ResultCode::kNackOutOfOrder);
  EXPECT_EQ(service.submit(Event::burst_request(now + 1, data_user, 1.0)).code,
            ResultCode::kNackOutOfOrder);

  // Unknown or wrong-class targets.
  EXPECT_EQ(service.submit(Event::burst_request(now, users, 1.0)).code,
            ResultCode::kNackUnknownUser);
  EXPECT_EQ(service.submit(Event::burst_request(now, -1, 1.0)).code,
            ResultCode::kNackUnknownUser);
  EXPECT_EQ(service.submit(Event::burst_request(now, voice_user, 1.0)).code,
            ResultCode::kNackNotData);
  EXPECT_EQ(service.submit(Event::release(now, voice_user)).code,
            ResultCode::kNackNotData);
  EXPECT_EQ(service.submit(Event::hand_down(now, voice_user, 0)).code,
            ResultCode::kNackNotData);

  // Malformed payloads.
  EXPECT_EQ(service.submit(Event::burst_request(now, data_user, 0.0)).code,
            ResultCode::kNackBadPayload);
  EXPECT_EQ(service.submit(Event::burst_request(now, data_user, -4.0)).code,
            ResultCode::kNackBadPayload);
  EXPECT_EQ(service.submit(Event::burst_request(now, data_user,
                                                std::nan(""))).code,
            ResultCode::kNackBadPayload);
  EXPECT_EQ(service.submit(Event::hand_down(now, data_user,
                                            cfg.placement.carriers)).code,
            ResultCode::kNackBadPayload);
  EXPECT_EQ(service.submit(Event::hand_down(now, data_user, -1)).code,
            ResultCode::kNackBadPayload);

  // Release with nothing in flight.
  EXPECT_EQ(service.submit(Event::release(now, data_user)).code,
            ResultCode::kNackNoPending);

  // Duplicate requests nack while the first stays queued.
  EXPECT_EQ(service.submit(Event::burst_request(now, data_user, 9000.0)).code,
            ResultCode::kAck);
  EXPECT_EQ(service.submit(Event::burst_request(now, data_user, 9000.0)).code,
            ResultCode::kNackDuplicate);

  // Hand-down while a request is buffered nacks busy.
  EXPECT_EQ(service.submit(Event::hand_down(now, data_user, 0)).code,
            ResultCode::kNackBurstActive);

  // A release cancels the buffered request; a second release has nothing.
  EXPECT_EQ(service.submit(Event::release(now, data_user)).code,
            ResultCode::kAck);
  EXPECT_EQ(service.submit(Event::release(now, data_user)).code,
            ResultCode::kNackNoPending);

  // Measurement reports ack for any known user and mutate nothing.
  EXPECT_EQ(service.submit(Event::measurement_report(now, voice_user)).code,
            ResultCode::kAck);

  const service::ServiceCounters& c = service.counters();
  // 2 out-of-order + 2 unknown + 3 not-data + 5 bad-payload + 2 no-pending
  // + 1 duplicate + 1 busy hand-down.
  EXPECT_EQ(c.nacks, 16);
  EXPECT_EQ(c.requests, 1);
  EXPECT_EQ(c.releases, 1);
  EXPECT_EQ(c.reports, 1);
  EXPECT_EQ(c.ticks, 1);
  EXPECT_EQ(c.acks, c.ticks + c.requests + c.releases + c.reports);
}

TEST(AdmissionServiceProtocol, NackedEventsLeaveTheRunBitIdentical) {
  const sim::SystemConfig cfg = hotspot_config(21);
  const int data_user = cfg.voice.users;
  const std::int64_t frames = 100;

  AdmissionService clean(cfg);
  AdmissionService noisy(cfg);
  for (std::int64_t f = 0; f < frames; ++f) {
    // A barrage of invalid traffic every frame must not perturb anything:
    // nacked events touch no simulator state.
    EXPECT_FALSE(noisy.submit(Event::burst_request(f - 1, data_user, 1.0)).ok());
    EXPECT_FALSE(noisy.submit(Event::burst_request(f, data_user, -1.0)).ok());
    EXPECT_FALSE(noisy.submit(Event::release(f, data_user)).ok());
    ASSERT_TRUE(clean.submit(Event::tick()).ok());
    ASSERT_TRUE(noisy.submit(Event::tick()).ok());
  }
  EXPECT_TRUE(metrics_identical(clean.simulator().metrics(),
                                noisy.simulator().metrics()));
}

// The service stops at the config's horizon: a tick there nacks out of
// order and changes nothing, so the checkpoint the service holds is one a
// fresh service's restore() accepts, and a trace with one tick too many
// fails to replay instead of stepping past the horizon.
TEST(AdmissionServiceProtocol, NacksATickPastTheHorizon) {
  sim::SystemConfig cfg = hotspot_config(19);
  cfg.sim_duration_s = 1.0;
  cfg.warmup_s = 0.2;
  AdmissionService service(cfg);
  const std::int64_t horizon = service.simulator().total_frames();
  for (std::int64_t f = 0; f < horizon; ++f) {
    ASSERT_TRUE(service.submit(Event::tick()).ok()) << "frame " << f;
  }
  const std::vector<std::uint8_t> at_horizon = service.checkpoint();
  const service::ServiceCounters before = service.counters();
  EXPECT_EQ(service.submit(Event::tick()).code, ResultCode::kNackOutOfOrder);
  EXPECT_EQ(service.frame(), horizon);
  EXPECT_EQ(service.counters().ticks, before.ticks);
  EXPECT_EQ(service.counters().nacks, before.nacks + 1);
  // The frame, the metrics and every other evolved stream stay put.
  EXPECT_TRUE(service.checkpoint() == at_horizon);

  AdmissionService fresh(cfg);
  ASSERT_TRUE(fresh.restore(service.checkpoint()));
  EXPECT_EQ(fresh.frame(), horizon);
  EXPECT_EQ(fresh.submit(Event::tick()).code, ResultCode::kNackOutOfOrder);

  std::stringstream trace;
  {
    sim::Simulator sim(cfg);
    service::TraceRecorder recorder(sim, trace);
    recorder.run_frames(horizon);
  }
  std::stringstream longer(trace.str() + "{\"e\":\"tick\",\"n\":1}\n");
  const service::ReplayResult replayed = service::replay_trace(cfg, longer);
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(replayed.error.find("nack-out-of-order"), std::string::npos)
      << replayed.error;
  EXPECT_NE(replayed.error.find("frame " + std::to_string(horizon)), std::string::npos)
      << replayed.error;
}

TEST(AdmissionServiceOverload, ShedsRequestsBeyondTheInjectionQueueCap) {
  sim::SystemConfig cfg = hotspot_config(7);
  cfg.service.injection_queue_cap = 2;
  const int d0 = cfg.voice.users;

  AdmissionService service(cfg);
  ASSERT_TRUE(service.submit(Event::tick()).ok());
  const std::int64_t now = service.frame();

  // Two requests fill the queue; the third is shed with the overload nack.
  EXPECT_EQ(service.submit(Event::burst_request(now, d0, 9000.0)).code,
            ResultCode::kAck);
  EXPECT_EQ(service.submit(Event::burst_request(now, d0 + 1, 9000.0)).code,
            ResultCode::kAck);
  EXPECT_EQ(service.submit(Event::burst_request(now, d0 + 2, 9000.0)).code,
            ResultCode::kNackOverload);
  EXPECT_EQ(service.counters().sheds, 1);
  EXPECT_EQ(service.simulator().metrics().overload_sheds, 1);

  // A release frees a slot, so the shed user's retry is admitted: shedding
  // is load-dependent back-pressure, not a ban.
  EXPECT_EQ(service.submit(Event::release(now, d0)).code, ResultCode::kAck);
  EXPECT_EQ(service.submit(Event::burst_request(now, d0 + 2, 9000.0)).code,
            ResultCode::kAck);
  EXPECT_EQ(service.counters().sheds, 1);

  // Shed responses are nacks in the protocol counters too.
  EXPECT_EQ(service.counters().nacks, 1);
}

TEST(AdmissionServiceOverload, ShedEventsLeaveTheRunBitIdentical) {
  sim::SystemConfig cfg = hotspot_config(22);
  cfg.service.injection_queue_cap = 1;
  const int d1 = cfg.voice.users;
  const int d2 = d1 + 1;
  const std::int64_t frames = 100;

  AdmissionService clean(cfg);
  AdmissionService noisy(cfg);
  int sheds_seen = 0;
  for (std::int64_t f = 0; f < frames; ++f) {
    if (f == 5 || f == 20 || f == 40) {
      // Both services carry the same accepted load from d1; only noisy sees
      // d2's surplus.  Right after a fresh ack the queue provably holds
      // d1's injection, so d2's request must shed -- and a shed, like every
      // nack, touches no simulator state.
      const ResultCode c0 = clean.submit(Event::burst_request(f, d1, 9e3)).code;
      const ResultCode c1 = noisy.submit(Event::burst_request(f, d1, 9e3)).code;
      ASSERT_EQ(c0, c1);
      if (c0 == ResultCode::kAck) {
        EXPECT_EQ(noisy.submit(Event::burst_request(f, d2, 9e3)).code,
                  ResultCode::kNackOverload);
        ++sheds_seen;
      }
    }
    ASSERT_TRUE(clean.submit(Event::tick()).ok());
    ASSERT_TRUE(noisy.submit(Event::tick()).ok());
  }
  EXPECT_GE(sheds_seen, 1);
  EXPECT_EQ(noisy.counters().sheds, sheds_seen);
  EXPECT_EQ(noisy.simulator().metrics().overload_sheds, sheds_seen);
  EXPECT_EQ(clean.counters().sheds, 0);
  // The shed counter, asserted above, is the one field the runs differ in.
  sim::SimMetrics shed_free = noisy.simulator().metrics();
  shed_free.overload_sheds = clean.simulator().metrics().overload_sheds;
  EXPECT_TRUE(metrics_identical(clean.simulator().metrics(), shed_free));
}

}  // namespace
}  // namespace wcdma
