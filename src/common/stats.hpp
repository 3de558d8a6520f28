// Streaming statistics used by the simulator's metric pipeline and the
// benchmark harnesses: Welford moments, fixed-bin histograms with percentile
// queries, and batch-mean confidence intervals for Monte-Carlo replication
// merging.
//
// The statistical-equivalence toolkit at the bottom (Welch mean-difference
// interval, per-metric tolerance specs) is the acceptance machinery for
// every optimisation that gives up bit-identity: tests/test_statcheck.cpp
// runs paired common-random-number sweeps of the reference and the
// approximating implementation and asserts the paper's headline metrics
// agree under these tests.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wcdma::common {

class BinaryWriter;
class BinaryReader;

/// Numerically-stable streaming mean/variance (Welford).  Mergeable, so
/// per-thread accumulators can be combined deterministically.
class StreamingMoments {
 public:
  void add(double x);
  void merge(const StreamingMoments& other);
  void save(BinaryWriter& w) const;
  bool load(BinaryReader& r);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double total() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi); samples outside are clamped into
/// the first/last bin so percentile queries remain defined.  Mergeable.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);
  /// Bin geometry is fixed by the constructor; only counts round-trip.
  /// load() refuses, leaving the histogram as it was, a count vector of
  /// another length or a total other than the counts' sum.
  void save(BinaryWriter& w) const;
  bool load(BinaryReader& r);

  std::size_t count() const { return total_; }
  /// Value at quantile q in [0,1], linearly interpolated within the bin.
  double percentile(double q) const;
  const std::vector<std::uint64_t>& bins() const { return counts_; }
  double bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
};

/// Mean with a Student-t confidence interval over independent replications.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  // mean +/- half_width
  std::size_t n = 0;
};

/// 95% CI from independent per-replication means (n >= 2); for n < 2 the
/// half-width is reported as 0.
ConfidenceInterval confidence_interval_95(const std::vector<double>& replication_means);

// --- Statistical-equivalence toolkit ---------------------------------------

/// Welch (unequal-variance) 95% confidence interval on mean(a) - mean(b),
/// with the Welch-Satterthwaite degrees of freedom.
struct WelchInterval {
  double mean_diff = 0.0;
  double half_width = 0.0;  // 95% CI: mean_diff +/- half_width
  double df = 0.0;
  bool contains_zero() const {
    return mean_diff - half_width <= 0.0 && 0.0 <= mean_diff + half_width;
  }
  /// TOST-style equivalence: the whole 95% interval of the difference lies
  /// inside [-margin, +margin] (|diff| + half_width <= margin).  This gets
  /// HARDER to pass as the data gets noisier -- an under-powered comparison
  /// fails instead of passing vacuously, which is the property an
  /// acceptance gate needs.
  bool within(double margin) const {
    return std::abs(mean_diff) + half_width <= margin;
  }
};
WelchInterval welch_difference_95(const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Declared per-metric agreement bound: |a - b| must not exceed
/// max(abs_tol, rel_tol * max(|a|, |b|)).  The specs live next to the
/// equivalence tests so every non-bit-identical acceptance documents its
/// tolerances explicitly.
struct MetricTolerance {
  const char* metric = "";
  double rel_tol = 0.0;
  double abs_tol = 0.0;
};
bool within_tolerance(double a, double b, const MetricTolerance& tol);
/// Human-readable pass/fail line for test diagnostics.
std::string tolerance_report(double a, double b, const MetricTolerance& tol);

}  // namespace wcdma::common
