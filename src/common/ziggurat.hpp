// Ziggurat standard-normal sampler (Marsaglia & Tsang, 256 layers, 64-bit).
//
// The reference draw path, common::Rng::normal(), is a polar Box-Muller:
// an acceptance loop of ~1.27 uniform pairs plus a log and a sqrt per pair.
// The ziggurat replaces that with one 64-bit draw, a table compare, and one
// multiply for ~99% of samples; the tail and wedge corrections keep the
// OUTPUT DISTRIBUTION exactly N(0, 1), so only the mapping from RNG stream
// to sample sequence changes, never the statistics.  This is what the
// `fast` channel-state provider uses for shadowing/fading innovations --
// deterministic for a given stream, but a different sequence than normal(),
// hence validated at the distribution level (moment and KS property tests
// in tests/test_statcheck.cpp) instead of against bit-exact goldens.
//
// The 256-layer tables are built once (thread-safe magic static) from libm;
// draw() itself touches no libm in the common case.  Instances are
// stateless handles onto the shared tables, so embedding one per FrameState
// costs a pointer and no setup.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/rng.hpp"

namespace wcdma::common {

class ZigguratNormal {
 public:
  /// Binds to the process-wide tables (built on first use).
  ZigguratNormal();

  /// One standard-normal sample from `rng`'s stream.
  double draw(Rng& rng) const {
    for (;;) {
      const std::uint64_t u = rng.next_u64();
      const std::size_t layer = u & 0xff;
      const std::uint64_t magnitude = u >> 11;  // 53 bits
      const double x = static_cast<double>(magnitude) * tables_->w[layer];
      if (magnitude < tables_->k[layer]) return (u & 0x100) ? -x : x;
      const double slow = draw_slow(rng, layer, x);
      if (slow == slow) return (u & 0x100) ? -slow : slow;  // NaN = rejected
    }
  }

  /// Batched draws: fills out[0..n) from one stream (the SoA-lane batch API
  /// the fast provider and the property tests share) and returns the number
  /// of raw 64-bit RNG words consumed (next_u64 and uniform each cost one).
  ///
  /// STREAM CONTRACT (pinned by the draw-count property test in
  /// tests/test_statcheck.cpp): fill() produces exactly the sample sequence
  /// of n successive draw() calls, consuming exactly the same words --
  ///   * n == 0 consumes nothing and leaves `rng` untouched;
  ///   * an accepted fast-path sample costs exactly 1 word;
  ///   * a wedge test costs 1 extra word, accept or reject; each rejection
  ///     restarts the sample with a fresh 1-word fast-path attempt;
  ///   * a tail excursion (layer 0) costs 2 words per acceptance-loop
  ///     iteration on top of the triggering word.
  /// The SIMD block path (dispatched on common::active_simd_level())
  /// vectorizes the ~99% accept path and rolls back to a scalar replay on
  /// the first rejected lane, so scalar and SIMD fills are element-wise
  /// identical AND stream-position identical -- certified, not assumed, by
  /// tests/test_kernels.cpp.
  std::size_t fill(Rng& rng, double* out, std::size_t n) const;

 private:
  struct Tables {
    std::uint64_t k[256];
    double kd[256];  // k as doubles (exact: k < 2^53) for packed compares
    double w[256];
    double f[256];
  };

  static const Tables& shared_tables();
  /// Tail (layer 0) and wedge acceptance; returns the positive sample or
  /// NaN when the wedge rejects (caller redraws).
  double draw_slow(Rng& rng, std::size_t layer, double x) const;
  /// draw()/draw_slow() twins that also count consumed RNG words.
  double draw_counted(Rng& rng, std::size_t* words) const;
  double draw_slow_counted(Rng& rng, std::size_t layer, double x,
                           std::size_t* words) const;
  std::size_t fill_scalar(Rng& rng, double* out, std::size_t n) const;
  std::size_t fill_block_avx2(Rng& rng, double* out, std::size_t n) const;

  const Tables* tables_;
};

}  // namespace wcdma::common
