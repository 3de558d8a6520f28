// Archive layouts (src/common/serialize.hpp): every checkpointed type lists
// its fields once, in one field function that save() and load() both walk.
// One property runs over every such type, and the CI checkpoint smoke's two
// frame-150 snapshots are pinned, so a layout slip fails here and not only
// in a cmp against an older build.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/admission/schedulers.hpp"
#include "src/cell/active_set.hpp"
#include "src/cell/mobility.hpp"
#include "src/channel/channel.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/stats.hpp"
#include "src/mac/mac_state.hpp"
#include "src/phy/link_adapter.hpp"
#include "src/phy/modes.hpp"
#include "src/power/power_control.hpp"
#include "src/runner/shard_io.hpp"
#include "src/scenario/experiments.hpp"
#include "src/sim/request_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/traffic/data.hpp"
#include "src/traffic/voice.hpp"

namespace wcdma {
namespace {

template <typename T>
std::vector<std::uint8_t> encode(const T& x) {
  common::BinaryWriter w;
  x.save(w);
  return w.take();
}
template <typename T>
bool decode(T& x, const std::vector<std::uint8_t>& bytes) {
  common::BinaryReader r(bytes);
  return x.load(r) && r.at_end();
}
std::vector<std::uint8_t> encode(const sim::Simulator& s) { return s.snapshot(); }
bool decode(sim::Simulator& s, const std::vector<std::uint8_t>& bytes) { return s.restore(bytes); }
std::vector<std::uint8_t> encode(const runner::ShardCheckpoint& ck) {
  return runner::encode_shard_checkpoint(ck);
}
bool decode(runner::ShardCheckpoint& ck, const std::vector<std::uint8_t>& bytes) {
  runner::ShardCheckpoint out;
  std::string why;
  if (!runner::decode_shard_checkpoint(bytes, ck.header, &out, &why)) return false;
  ck = std::move(out);
  return true;
}

/// Saves `donor`, loads the bytes into `twin`, built fresh, and saves it
/// again: the same bytes.  Every cut of the encoding is refused by
/// `victim`, built fresh too, which keeps its state.  A sealed archive's
/// cuts are resealed, so the field walk, not the checksum, must refuse them.
template <typename T>
void expect_round_trip(const char* name, const T& donor, T& twin, T& victim,
                       bool sealed = false) {
  SCOPED_TRACE(name);
  const std::vector<std::uint8_t> bytes = encode(donor);
  ASSERT_NE(encode(twin), bytes) << "the donor's state must have evolved";
  ASSERT_TRUE(decode(twin, bytes));
  EXPECT_EQ(encode(twin), bytes);
  const std::vector<std::uint8_t> before = encode(victim);
  for (std::size_t cut = 0; cut + (sealed ? common::kSealBytes : 0) < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorn(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    const std::uint32_t crc = common::crc32(shorn);
    for (int i = 0; sealed && i < 4; ++i) shorn.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    ASSERT_FALSE(decode(victim, shorn)) << "cut at " << cut;
  }
  EXPECT_EQ(encode(victim), before) << "a refused load changed its object";
}

/// The same for a copyable type: `evolve` moves a copy of `fresh` on.
template <typename T, typename Evolve>
void expect_round_trip(const char* name, const T& fresh, Evolve evolve, bool sealed = false) {
  T donor = fresh, twin = fresh, victim = fresh;
  evolve(donor);
  expect_round_trip(name, donor, twin, victim, sealed);
}

TEST(ArchiveFields, EveryCheckpointedTypeRoundTripsAndRefusesEveryCut) {
  using common::Rng;
  expect_round_trip("Rng", Rng(1), [](Rng& r) { r.normal(); });  // leaves a spare
  common::RngBank bank;
  bank.resize(3);
  for (std::size_t i = 0; i < 3; ++i) bank.set(i, Rng(i + 1));
  expect_round_trip("RngBank", bank, [](common::RngBank& b) {
    const std::size_t streams[] = {0, 2};
    double out[2];
    b.normal(streams, 2, out);
  });
  expect_round_trip("StreamingMoments", common::StreamingMoments(), [](auto& m) { m.add(1.5); });
  expect_round_trip("Histogram", common::Histogram(0.0, 4.0, 4), [](auto& h) { h.add(9.0); });
  expect_round_trip("CsiFeedback", channel::CsiFeedback(2, 1.0, Rng(3)),
                    [](auto& f) { f.push(0.5); });
  const phy::AdaptationPolicy policy(phy::make_vtaoc_modes(), 1e-3);
  expect_round_trip("FixedRateAdapter", phy::FixedRateAdapter(&policy, 2, 1, 1.0, Rng(4)),
                    [](auto& a) { a.on_frame(3.0); });
  expect_round_trip("MacStateMachine", mac::MacStateMachine(), [](auto& m) { m.step(0.5, false); });
  expect_round_trip("ClosedLoopPowerControl", power::ClosedLoopPowerControl(),
                    [](auto& pc) { pc.update(-3.0); });
  expect_round_trip("VoiceSource", traffic::VoiceSource({}, Rng(5)), [](auto& v) { v.step(0.7); });
  expect_round_trip("DataSource", traffic::DataSource({}, Rng(6)), [](auto& d) { d.step(0.5); });
  expect_round_trip("RandomWaypoint", cell::RandomWaypoint({}, Rng(7)),
                    [](auto& m) { m.step(30.0); });
  cell::MobilityConfig corridor;
  corridor.kind = cell::MobilityKind::kCorridor;
  expect_round_trip("CorridorMobility", cell::CorridorMobility(corridor, Rng(8)),
                    [](auto& m) { m.step(3.0); });
  expect_round_trip("ActiveSet", cell::ActiveSet({}, 4),
                    [](auto& as) { as.update({-10.0, -13.0, -20.0, -25.0}, 0.02); });
  sim::RequestQueues queues;
  queues.init(2);
  expect_round_trip("RequestQueues", queues, [](auto& q) { q.add(3, 1, true); });
  const auto evolve_metrics = [](sim::SimMetrics& m) {
    m.delay_hist.add(2.5);
    m.delay_by_distance[3].add(1.25);
    m.mode_frames[2] = 9;
  };
  expect_round_trip("SimMetrics", sim::SimMetrics(), evolve_metrics);
  expect_round_trip("RandomScheduler", admission::RandomScheduler(Rng(1)),
                    [](auto& s) { s = admission::RandomScheduler(Rng(2)); });
  const runner::ShardHeader header{0, 2, 0, 2, 77};
  expect_round_trip("ShardHeader", runner::ShardHeader(), [&](auto& h) { h = header; });
  runner::ShardCheckpoint ck;
  ck.header = header;
  expect_round_trip(
      "ShardCheckpoint", ck,
      [&](runner::ShardCheckpoint& c) {
        c.next_item = 1;
        c.completed.resize(1);
        evolve_metrics(c.completed[0]);
        c.snapshot = {1, 2, 3};
      },
      /*sealed=*/true);
  // FrameState and the far-field aggregator ride in the simulator's
  // snapshot: a culled 19-cell world with few users has candidate sets and
  // far-field state, and is small enough to cut everywhere.
  sim::SystemConfig cfg = scenario::wide_area_config(11);
  cfg.csi.provider = "culled";
  cfg.voice.users = 3;
  cfg.data.users = 3;
  sim::Simulator donor(cfg), twin(cfg), victim(cfg);
  for (int f = 0; f < 60; ++f) donor.step_frame();
  expect_round_trip("Simulator", donor, twin, victim, /*sealed=*/true);
}

// The CI checkpoint smoke's worlds (service_main --seed 7 --duration 6
// --warmup 1 --checkpoint-at 150), pinned by size and by the crc32 of the
// payload, which is the footer: a crc over the sealed archive would be the
// CRC residue, the same for every archive.
TEST(ArchiveLayout, TheCheckpointSmokeSnapshotsKeepTheirBytes) {
  sim::SystemConfig wide = scenario::wide_area_config(7);
  wide.csi.provider = "culled";
  const struct {
    sim::SystemConfig cfg;
    std::size_t bytes;
    std::uint32_t payload_crc;
  } worlds[] = {{scenario::hotspot_cell_config(7), 52149, 0xfdecde2cu},
                {wide, 209559, 0x84e0240cu}};
  for (auto world : worlds) {
    SCOPED_TRACE(world.cfg.csi.provider);
    world.cfg.sim_duration_s = 6.0;
    world.cfg.warmup_s = 1.0;
    sim::Simulator sim(world.cfg);
    for (int f = 0; f < 150; ++f) sim.step_frame();
    const std::vector<std::uint8_t> snapshot = sim.snapshot();
    ASSERT_EQ(snapshot.size(), world.bytes);
    EXPECT_EQ(common::crc32(snapshot.data(), snapshot.size() - common::kSealBytes),
              world.payload_crc);
  }
}

}  // namespace
}  // namespace wcdma
