// Unit tests for the common substrate: PRNG, units, matrix, statistics,
// thread pool, and table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"
#include "src/common/serialize.hpp"
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

TEST(Rng, ParetoRespectsMinimumAndShape) {
  Rng rng(23);
  StreamingMoments m;
  const double alpha = 1.7, xm = 2.0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.pareto(alpha, xm);
    EXPECT_GE(x, xm);
    m.add(x);
  }
  // E[X] = alpha xm / (alpha - 1); heavy tail -> generous tolerance.
  EXPECT_NEAR(m.mean(), alpha * xm / (alpha - 1.0), 0.3);
}

TEST(Rng, ParetoTruncatedWithinBounds) {
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.pareto_truncated(1.7, 4096.0, 2.0e6);
    EXPECT_GE(x, 4096.0);
    EXPECT_LE(x, 2.0e6);
  }
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(31);
  StreamingMoments m;
  for (int i = 0; i < 100000; ++i) m.add(rng.poisson(2.5));
  EXPECT_NEAR(m.mean(), 2.5, 0.05);
  EXPECT_NEAR(m.variance(), 2.5, 0.1);
}

TEST(Rng, PoissonLargeMeanNormalApprox) {
  Rng rng(37);
  StreamingMoments m;
  for (int i = 0; i < 50000; ++i) m.add(rng.poisson(100.0));
  EXPECT_NEAR(m.mean(), 100.0, 0.5);
}

TEST(Rng, RayleighPowerIsExponential) {
  Rng rng(41);
  StreamingMoments m;
  // sigma = sqrt(1/2) gives unit mean power.
  const double sigma = std::sqrt(0.5);
  for (int i = 0; i < 200000; ++i) {
    const double r = rng.rayleigh(sigma);
    m.add(r * r);
  }
  EXPECT_NEAR(m.mean(), 1.0, 0.02);
  EXPECT_NEAR(m.variance(), 1.0, 0.05);
}

TEST(Rng, LognormalShadowMedianIsOne) {
  Rng rng(43);
  int above = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) above += rng.lognormal_shadow(8.0) > 1.0 ? 1 : 0;
  EXPECT_NEAR(above, n / 2, 4 * std::sqrt(n / 4.0));
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
  EXPECT_NEAR(watt_to_dbm(0.001), 0.0, 1e-9);
}

TEST(Units, ThermalNoise) {
  // -174 dBm/Hz over 3.6864 MHz ~= -108.3 dBm.
  const double n = thermal_noise_watt(3.6864e6);
  EXPECT_NEAR(watt_to_dbm(n), -108.33, 0.05);
  // Noise figure adds straight dB.
  EXPECT_NEAR(watt_to_dbm(thermal_noise_watt(3.6864e6, 5.0)), -103.33, 0.05);
}

TEST(Units, Doppler) {
  // 60 km/h at 2 GHz ~= 111 Hz.
  EXPECT_NEAR(doppler_hz(kmh_to_mps(60.0), 2.0e9), 111.2, 0.5);
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

TEST(Matrix, AppendRow) {
  Matrix m;
  m.append_row({1.0, 2.0});
  m.append_row({3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
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
  const Vector v = axpy({1.0, 1.0}, 2.0, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(v[1], 5.0);
  EXPECT_DOUBLE_EQ(linf_distance({0.0, 0.0}, {1.0, -3.0}), 3.0);
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
  EXPECT_NEAR(h.mean_estimate(), 50.0, 0.5);
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

TEST(JainFairness, Extremes) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineWhenZeroWorkers) {
  ThreadPool pool(0);
  int count = 0;
  pool.submit([&] { ++count; });
  EXPECT_EQ(count, 1);  // executed synchronously
}

TEST(ParallelForIndex, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_index(500, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndex, ThreadCountInvariantResult) {
  // Work whose result depends only on the index must merge identically.
  auto run = [](std::size_t threads) {
    std::vector<double> out(64);
    parallel_for_index(64, threads, [&](std::size_t i) {
      Rng rng(Rng(1234).fork(i)());
      out[i] = rng.uniform();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// Startup/shutdown churn with concurrent submitters: the Simulator's
// persistent pool spawns no workers on single-core hosts, so this test is
// what actually drives the pool's handoff paths under the TSan CI config.
TEST(ThreadPool, StressSubmitAndTeardown) {
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(4);
      std::vector<std::thread> submitters;
      for (int s = 0; s < 3; ++s) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 50; ++i) pool.submit([&] { count.fetch_add(1); });
        });
      }
      for (auto& t : submitters) t.join();
      pool.wait_idle();
      EXPECT_EQ(count.load(), 150);
      // Destructor joins workers with tasks already drained.
    }
  }
}

TEST(ParallelForIndex, StressRepeatedLaunches) {
  // parallel_for_index spawns fresh threads per call; hammer the spawn/join
  // and work-stealing paths so TSan sees them even on one-core hosts.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    parallel_for_index(256, 4, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 256u * 255u / 2);
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
