// Unit tests for the common substrate: PRNG and the stream bank, units,
// matrix, statistics, thread pool, and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
#include "src/common/simd.hpp"
#include "src/common/stats.hpp"
#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/units.hpp"

namespace wcdma::common {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.fork(5);
  // Forking again with the same stream id from the *same* parent state must
  // reproduce the child.
  Rng child2 = parent.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, ForkStreamsDecorrelated) {
  Rng parent(7);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Rng rng(13);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(5)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 5, 5 * std::sqrt(n / 5.0));
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  StreamingMoments m;
  for (int i = 0; i < 200000; ++i) m.add(rng.normal());
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  StreamingMoments m;
  for (int i = 0; i < 200000; ++i) m.add(rng.exponential(3.0));
  EXPECT_NEAR(m.mean(), 3.0, 0.05);
}

TEST(Rng, ParetoTruncatedWithinBounds) {
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.pareto_truncated(1.7, 4096.0, 2.0e6);
    EXPECT_GE(x, 4096.0);
    EXPECT_LE(x, 2.0e6);
  }
}

TEST(Rng, LognormalShadowMedianIsOne) {
  Rng rng(43);
  int above = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) above += rng.lognormal_shadow(8.0) > 1.0 ? 1 : 0;
  EXPECT_NEAR(above, n / 2, 4 * std::sqrt(n / 4.0));
}

std::vector<std::uint8_t> saved(const Rng& rng) {
  BinaryWriter w;
  rng.save(w);
  return w.take();
}

// xoshiro never leaves the all-zero state: every polar pair there is
// (-1, -1) and rejected, so normal() would never return.  A checkpoint
// holding it is refused, by the bank too, and the state stays as it was.
TEST(Rng, LoadRefusesTheAllZeroState) {
  BinaryWriter w;
  for (int word = 0; word < 4; ++word) w.u64(0);
  w.f64(0.0);
  w.boolean(false);
  const std::vector<std::uint8_t> zero = w.take();
  Rng rng(47);
  BinaryReader r(zero);
  EXPECT_FALSE(rng.load(r));
  EXPECT_EQ(saved(rng), saved(Rng(47)));

  RngBank bank;
  bank.resize(2);
  bank.set(0, Rng(1));
  bank.set(1, Rng(2));
  std::vector<std::uint8_t> archive = saved(Rng(3));
  archive.insert(archive.end(), zero.begin(), zero.end());
  BinaryReader rb(archive);
  EXPECT_FALSE(bank.load(rb));
  EXPECT_EQ(saved(bank.get(0)), saved(Rng(1)));
  EXPECT_EQ(saved(bank.get(1)), saved(Rng(2)));
}

// ------------------------------------------------------------- RngBank

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Every dispatch level this host runs, scalar first.
std::vector<SimdLevel> host_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (max_supported_simd_level() == SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// Restores the ambient dispatch level when a test scope ends.
struct SimdLevelGuard {
  SimdLevel saved = active_simd_level();
  ~SimdLevelGuard() { set_simd_level(saved); }
};

/// Pairs rejected before the next pair of a stream holding no spare.
int rejections_before_next_pair(Rng rng) {
  int rejected = 0;
  for (;;) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s < 1.0 && s > 0.0) return rejected;
    ++rejected;
  }
}

/// The bank's draws on `streams`, checked against each stream's own Rng.
void expect_bank_draws_match(RngBank& bank, std::vector<Rng>& ref,
                             const std::vector<std::size_t>& streams) {
  std::vector<double> out(streams.size() + 1, -7.0);
  bank.normal(streams.data(), streams.size(), out.data());
  for (std::size_t j = 0; j < streams.size(); ++j) {
    ASSERT_EQ(bits_of(out[j]), bits_of(ref[streams[j]].normal()))
        << "slot " << j << " stream " << streams[j] << " at "
        << simd_level_name(active_simd_level());
  }
  ASSERT_EQ(out[streams.size()], -7.0) << "wrote past n";
}

/// The bank's streams hold exactly the reference Rngs' states.
void expect_bank_holds(const RngBank& bank, const std::vector<Rng>& ref) {
  BinaryWriter want, got;
  for (const Rng& r : ref) r.save(want);
  bank.save(got);
  ASSERT_EQ(got.bytes(), want.bytes());
}

TEST(RngBank, NormalMatchesEachStreamsOwnNormalBitForBit) {
  SimdLevelGuard guard;
  for (const SimdLevel level : host_levels()) {
    ASSERT_TRUE(set_simd_level(level));
    const std::size_t n = 300;
    const Rng root(0xba4c);
    RngBank bank;
    bank.resize(n);
    std::vector<Rng> ref;
    for (std::size_t i = 0; i < n; ++i) {
      Rng r = root.fork(i);
      if (i % 3 == 0) r.normal();  // leaves a spare: mixed spare states
      ref.push_back(r);
      bank.set(i, r);
    }
    std::vector<std::size_t> contiguous(n), every_seventh, scattered;
    for (std::size_t i = 0; i < n; ++i) contiguous[i] = i;
    for (std::size_t i = 3; i < n; i += 7) every_seventh.push_back(i);
    // Distinct streams in a random order: ranked by one uniform draw each.
    Rng order(91);
    std::vector<std::pair<double, std::size_t>> keyed;
    for (std::size_t i = 0; i < n; ++i) {
      if (order.bernoulli(0.4)) keyed.push_back({order.uniform(), i});
    }
    std::sort(keyed.begin(), keyed.end());
    for (const auto& [key, i] : keyed) scattered.push_back(i);
    // Several rounds, so every stream moves through both spare states and
    // some calls span more than one internal batch.
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      expect_bank_draws_match(bank, ref, contiguous);
      expect_bank_draws_match(bank, ref, scattered);
      expect_bank_draws_match(bank, ref, every_seventh);
      expect_bank_draws_match(bank, ref, {});
      expect_bank_holds(bank, ref);
    }
  }
}

TEST(RngBank, StreamsThatRejectThreeTimesInARowDrawTheirOwnPairs) {
  SimdLevelGuard guard;
  // Streams whose next pair comes after three or more rejected pairs, mixed
  // with streams that accept at once.
  const Rng root(0x5eed);
  std::vector<Rng> picked;
  std::size_t stubborn = 0;
  for (std::uint64_t i = 0; stubborn < 6 || picked.size() < 40; ++i) {
    ASSERT_LT(i, 100000u) << "no stream rejects three pairs in a row";
    const Rng r = root.fork(i);
    const int rejected = rejections_before_next_pair(r);
    if (rejected >= 3 && stubborn < 6) {
      ++stubborn;
      picked.push_back(r);
    } else if (rejected == 0 && picked.size() < 40) {
      picked.push_back(r);
    }
  }
  for (const SimdLevel level : host_levels()) {
    ASSERT_TRUE(set_simd_level(level));
    RngBank bank;
    bank.resize(picked.size());
    std::vector<Rng> ref = picked;
    for (std::size_t i = 0; i < ref.size(); ++i) bank.set(i, ref[i]);
    std::vector<std::size_t> all(ref.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    for (int round = 0; round < 4; ++round) expect_bank_draws_match(bank, ref, all);
    expect_bank_holds(bank, ref);
  }
}

TEST(RngBank, SavesTheBytesOfOneRngSavePerStreamAndLoadsThemBack) {
  const std::size_t n = 37;
  const Rng root(17);
  RngBank bank;
  bank.resize(n);
  std::vector<Rng> ref;
  for (std::size_t i = 0; i < n; ++i) {
    Rng r = root.fork(i);
    for (std::size_t k = 0; k < i % 4; ++k) r.normal();
    ref.push_back(r);
    bank.set(i, r);
  }
  expect_bank_holds(bank, ref);
  BinaryWriter w;
  bank.save(w);
  RngBank loaded;
  loaded.resize(n);
  BinaryReader r(w.bytes());
  ASSERT_TRUE(loaded.load(r));
  EXPECT_TRUE(r.at_end());
  expect_bank_holds(loaded, ref);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits_of(loaded.get(i).normal()), bits_of(ref[i].normal())) << i;
  }
}

// ---------------------------------------------------------------- units

TEST(Units, DbRoundTrip) {
  for (double db : {-20.0, -3.0, 0.0, 3.0, 10.0, 30.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-12);
  }
}

TEST(Units, KnownValues) {
  EXPECT_NEAR(db_to_linear(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(dbm_to_watt(30.0), 1.0, 1e-12);
}

TEST(Units, ThermalNoise) {
  // -174 dBm/Hz over 3.6864 MHz ~= -108.3 dBm, i.e. -138.3 dBW.
  const double n = thermal_noise_watt(3.6864e6);
  EXPECT_NEAR(linear_to_db(n), -138.33, 0.05);
  // Noise figure adds straight dB.
  EXPECT_NEAR(linear_to_db(thermal_noise_watt(3.6864e6, 5.0)), -133.33, 0.05);
}

TEST(Units, Doppler) {
  // 16.67 m/s (60 km/h) at 2 GHz ~= 111 Hz.
  EXPECT_NEAR(doppler_hz(16.67, 2.0e9), 111.2, 0.5);
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, Multiply) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, Satisfies) {
  Matrix a{{1.0, 1.0}};
  EXPECT_TRUE(satisfies(a, {1.0, 1.0}, {2.0}));
  EXPECT_TRUE(satisfies(a, {1.0, 1.0}, {2.0 - 1e-12}));
  EXPECT_FALSE(satisfies(a, {1.0, 1.5}, {2.0}));
}

TEST(Matrix, VectorHelpers) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_DOUBLE_EQ(sum({1.0, 2.0, 3.0}), 6.0);
}

// ---------------------------------------------------------------- stats

TEST(StreamingMoments, MatchesDirectComputation) {
  StreamingMoments m;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) m.add(x);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_DOUBLE_EQ(m.mean(), 3.75);
  EXPECT_NEAR(m.variance(), 9.583333333, 1e-9);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 8.0);
}

TEST(StreamingMoments, MergeEqualsConcatenation) {
  StreamingMoments a, b, whole;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i < 400 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(StreamingMoments, MergeWithEmpty) {
  StreamingMoments a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Histogram, PercentileUniform) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(25.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(1.0);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

/// A histogram checkpoint as Histogram::save() lays it out.
std::vector<std::uint8_t> histogram_archive(const std::vector<std::uint64_t>& counts,
                                            std::uint64_t total) {
  BinaryWriter w;
  w.vec_u64(counts);
  w.u64(total);
  return w.take();
}

// A restore must not accept counts the bin geometry cannot hold, or a total
// the counts do not add up to (summed without wrapping), and a refused load
// leaves the histogram as it was.
TEST(Histogram, LoadRefusesForgedCounts) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5);
  {
    Histogram copy(0.0, 4.0, 4);
    BinaryWriter w;
    h.save(w);
    BinaryReader r(w.bytes());
    ASSERT_TRUE(copy.load(r));
    EXPECT_EQ(copy.bins(), h.bins());
    EXPECT_EQ(copy.count(), 1u);
  }
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint8_t> forged[] = {
      histogram_archive({0, 1, 0}, 1),           // a bin short
      histogram_archive({0, 1, 0, 0, 0}, 1),     // a bin over
      histogram_archive({0, 1, 0, 0}, 2),        // total past the counts
      histogram_archive({max, 2, 0, 0}, 1),      // the sum wraps to the total
  };
  for (std::size_t i = 0; i < std::size(forged); ++i) {
    SCOPED_TRACE(i);
    BinaryReader r(forged[i]);
    EXPECT_FALSE(h.load(r));
    EXPECT_EQ(h.bins(), (std::vector<std::uint64_t>{0, 1, 0, 0}));
    EXPECT_EQ(h.count(), 1u);
  }
}

TEST(ConfidenceInterval, KnownSmallSample) {
  // n=5, data 1..5: mean 3, sd sqrt(2.5); t(4, .975) = 2.776.
  const auto ci = confidence_interval_95({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half_width, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-3);
}

TEST(ConfidenceInterval, DegenerateSizes) {
  EXPECT_EQ(confidence_interval_95({}).n, 0u);
  const auto one = confidence_interval_95({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.half_width, 0.0);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {0u, 1u, 2u, 7u, 500u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << workers << " workers, n=" << n << ", i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ZeroWorkersRunInlineInIndexOrder) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  pool.parallel_for(16, [&](std::size_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ResultDoesNotDependOnTheWorkerCount) {
  // Work whose result depends only on the index must merge identically.
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> out(64);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      Rng rng(Rng(1234).fork(i)());
      out[i] = rng.uniform();
    });
    return out;
  };
  const std::vector<double> inline_run = run(0);
  EXPECT_EQ(run(1), inline_run);
  EXPECT_EQ(run(4), inline_run);
}

TEST(ThreadPool, RethrowsTheFirstExceptionOnceEveryThreadIsDone) {
  for (const std::size_t workers : {0u, 3u}) {
    ThreadPool pool(workers);
    std::atomic<int> inside{0};  // threads currently inside fn
    const auto fn = [&](std::size_t i) {
      inside.fetch_add(1);
      std::this_thread::yield();
      inside.fetch_sub(1);
      if (i == 5) throw std::runtime_error("item 5");
    };
    EXPECT_THROW(pool.parallel_for(64, fn), std::runtime_error);
    EXPECT_EQ(inside.load(), 0) << workers << " workers";
    // The pool stays usable after a failed loop.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10) << workers << " workers";
  }
}

// Repeated loops of 0 to 8 items on one pool, then teardown, many times
// over: this drives the start/join handoff (including workers that wake
// only after a loop has ended) and the shutdown path under the TSan CI
// config, even on hosts where the simulator's pool gets no workers.
TEST(ThreadPool, StressRepeatedLoopsAndTeardown) {
  for (int cycle = 0; cycle < 20; ++cycle) {
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
      const std::size_t n = static_cast<std::size_t>(round % 9);  // incl. 0
      std::atomic<std::uint64_t> sum{0};
      pool.parallel_for(n, [&](std::size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "cycle " << cycle << " round " << round;
    }
  }
}

// ------------------------------------------------------------- serialize

TEST(BinaryReader, SoftFailsAtEveryTruncationPoint) {
  const std::vector<std::uint8_t> blob = {0x00, 0xFF, 0x7E, 0x81, 0x10};
  BinaryWriter w;
  w.u32(0xDEADBEEF);
  w.str("fingerprint");
  w.vec_f64({1.0, -2.5, 3.25});
  w.blob(blob);
  w.boolean(true);
  w.i64(-42);
  const std::vector<std::uint8_t> bytes = w.take();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<long>(cut));
    BinaryReader r(trunc);
    r.u32();
    r.str();
    std::vector<double> v;
    r.vec_f64(v);
    std::vector<std::uint8_t> b = {0xAA};
    r.blob(b);
    // A failed bulk read hands back nothing, never a partial copy.
    EXPECT_TRUE(b.empty() || b == blob) << "cut at " << cut;
    r.boolean();
    r.i64();
    // Every prefix-truncated archive must clear ok() -- never throw, abort,
    // or read out of bounds (ASan/TSan configs run this test too).
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  BinaryReader full(bytes);
  EXPECT_EQ(full.u32(), 0xDEADBEEFu);
  EXPECT_EQ(full.str(), "fingerprint");
  std::vector<double> v;
  full.vec_f64(v);
  EXPECT_EQ(v, (std::vector<double>{1.0, -2.5, 3.25}));
  std::vector<std::uint8_t> b;
  full.blob(b);
  EXPECT_EQ(b, blob);
  EXPECT_TRUE(full.boolean());
  EXPECT_EQ(full.i64(), -42);
  EXPECT_TRUE(full.ok() && full.at_end());
}

/// Little-endian reference encoder: every field spelled out byte by byte,
/// independent of BinaryWriter's implementation.
struct ReferenceEncoder {
  std::vector<std::uint8_t> bytes;
  void le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
    }
  }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    le(bits, 8);
  }
  template <typename V>
  void seq(const V& v, int width) {
    le(v.size(), 8);
    for (const auto x : v) le(static_cast<std::uint64_t>(x), width);
  }
};

TEST(BinaryWriter, MatchesALittleEndianReferenceEncoderByteForByte) {
  Rng rng(20260501);
  // Integers of every magnitude, and doubles that hit the awkward bit
  // patterns: -0.0, infinities, a denormal, NaNs with random payloads.
  const auto any_u64 = [&] { return rng.next_u64() >> rng.uniform_int(64); };
  const auto any_f64 = [&] {
    switch (rng.uniform_int(6)) {
      case 0: return -0.0;
      case 1: return rng.uniform_int(2) ? HUGE_VAL : -HUGE_VAL;
      case 2: return 4.9e-324;
      case 3: {
        const std::uint64_t bits = 0x7FF0000000000000ull |
                                   (rng.uniform_int(2) << 63) |
                                   (1 + rng.uniform_int(0xFFFFFFFFFFFFFull));
        double nan;
        std::memcpy(&nan, &bits, sizeof(nan));
        return nan;
      }
      default: return rng.normal(0.0, 1e6);
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    BinaryWriter w;
    ReferenceEncoder ref;
    for (std::uint64_t f = rng.uniform_int(40); f > 0; --f) {
      const std::uint64_t x = any_u64();
      const double d = any_f64();
      const std::size_t n = rng.uniform_int(5);
      std::vector<std::uint8_t> raw(n * 7);
      for (std::uint8_t& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
      std::vector<double> doubles(n);
      for (double& v : doubles) v = any_f64();
      std::vector<std::uint64_t> wide(n);
      for (std::uint64_t& v : wide) v = any_u64();
      const std::vector<std::uint32_t> narrow(wide.begin(), wide.end());
      const std::vector<int> ints(wide.begin(), wide.end());
      const std::vector<std::int64_t> longs(wide.begin(), wide.end());
      switch (rng.uniform_int(14)) {
        case 0: w.u8(static_cast<std::uint8_t>(x)); ref.le(x, 1); break;
        case 1: w.u32(static_cast<std::uint32_t>(x)); ref.le(x, 4); break;
        case 2: w.u64(x); ref.le(x, 8); break;
        case 3: w.i32(static_cast<std::int32_t>(x)); ref.le(x, 4); break;
        case 4: w.i64(static_cast<std::int64_t>(x)); ref.le(x, 8); break;
        case 5: w.boolean(x & 1u); ref.le(x & 1u, 1); break;
        case 6: w.f64(d); ref.f64(d); break;
        case 7: w.str(std::string(raw.begin(), raw.end())); ref.seq(raw, 1); break;
        case 8: w.blob(raw); ref.seq(raw, 1); break;
        case 9:
          w.vec_f64(doubles);
          ref.le(n, 8);
          for (const double v : doubles) ref.f64(v);
          break;
        case 10: w.vec_u32(narrow); ref.seq(narrow, 4); break;
        case 11: w.vec_u64(wide); ref.seq(wide, 8); break;
        case 12: w.vec_i32(ints); ref.seq(ints, 4); break;
        default: w.vec_i64(longs); ref.seq(longs, 8); break;
      }
    }
    ASSERT_EQ(w.bytes(), ref.bytes) << "trial " << trial;
  }
}

/// The plain bytewise CRC-32 that crc32() must reproduce for every input.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size,
                              std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, SlicingBy8MatchesTheBytewiseReference) {
  Rng rng(8);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // Every length and alignment: the 8-byte stride, its bytewise tail, and
  // buffers that start mid-word.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(common::crc32(p, len), reference_crc32(p, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
  // Chaining: a checksum extended piece by piece equals the one-shot
  // checksum, for random cut points and a nonzero starting seed.
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.uniform_int(301);
    const std::size_t cut = rng.uniform_int(len + 1);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t head = common::crc32(buf.data(), cut, seed);
    EXPECT_EQ(common::crc32(buf.data() + cut, len - cut, head),
              reference_crc32(buf.data(), len, seed))
        << "length " << len << " cut " << cut;
  }
}

TEST(Crc32, MatchesTheIeeeCheckValueAndSeesEveryBit) {
  // "123456789" -> 0xCBF43926 is THE published check value for CRC-32/IEEE
  // (reflected poly 0xEDB88320); matching it pins polynomial, reflection,
  // init, and final xor all at once.
  const char* check = "123456789";
  EXPECT_EQ(common::crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(common::crc32(nullptr, 0), 0u);

  std::vector<std::uint8_t> bytes(257);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::uint32_t base = common::crc32(bytes);
  for (std::size_t i = 0; i < bytes.size(); i += 19) {
    for (int bit : {0, 7}) {
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(common::crc32(bytes), base) << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(common::crc32(bytes), base);
}

// sized_vec() takes a lane only at the destination's length, and a
// refused lane (another length, a short read, a refused element) leaves
// the destination as it was.
TEST(BinaryReader, SizedVecTakesOnlyALaneOfTheDestinationsLength) {
  BinaryWriter w;
  w.vec_i64({5, -6});
  const std::vector<std::uint8_t> bytes = w.take();
  std::vector<std::int64_t> v = {1, 2};
  BinaryReader whole(bytes);
  EXPECT_TRUE(whole.sized_vec(v));
  EXPECT_TRUE(whole.at_end());
  EXPECT_EQ(v, (std::vector<std::int64_t>{5, -6}));
  for (const std::size_t n : {1u, 3u}) {
    std::vector<std::int64_t> other(n, 7);
    BinaryReader r(bytes);
    EXPECT_FALSE(r.sized_vec(other));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(other, std::vector<std::int64_t>(n, 7));
  }
  v = {1, 2};
  BinaryReader shorn(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(shorn.sized_vec(v));
  BinaryReader refusing(bytes);
  EXPECT_FALSE(refusing.sized_vec(v, [&refusing](std::int64_t& x) {
    x = refusing.i64();
    return x > 0;
  }));
  EXPECT_FALSE(refusing.ok());
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2}));
}

TEST(BinaryReader, ImplausibleSizePrefixFailsInsteadOfAllocating) {
  BinaryWriter w;
  w.u64(~std::uint64_t{0});  // absurd element count for any payload
  const std::vector<std::uint8_t> bytes = w.take();
  BinaryReader r(bytes);
  std::vector<double> v;
  r.vec_f64(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "bee"});
  t.add_row({"1", "2"});
  t.add_numeric_row({3.14159, 2.0});
  const std::string s = t.render("title");
  EXPECT_NE(s.find("# title"), std::string::npos);
  EXPECT_NE(s.find("bee"), std::string::npos);
  EXPECT_NE(s.find("3.1416"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RendersCsvWithEscaping) {
  Table t({"name", "value"});
  t.add_row({"plain", "1.5"});
  t.add_row({"with,comma", "say \"hi\""});
  EXPECT_EQ(t.render_csv(),
            "name,value\n"
            "plain,1.5\n"
            "\"with,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, RendersJsonWithBareNumbers) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "not-a-number"});
  // strtod would accept these, but the JSON grammar does not: keep quoted.
  t.add_row({".5", "0x1F"});
  t.add_row({"-2.5e-3", "1."});
  const std::string json = t.render_json();
  EXPECT_NE(json.find("{\"name\": \"alpha\", \"value\": 1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"value\": \"not-a-number\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \".5\", \"value\": \"0x1F\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": -2.5e-3, \"value\": \"1.\"}"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(123456.789, 4), "1.235e+05");
}

}  // namespace
}  // namespace wcdma::common
