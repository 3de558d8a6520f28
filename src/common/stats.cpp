#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"

namespace wcdma::common {

void StreamingMoments::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingMoments::merge(const StreamingMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingMoments::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingMoments::stddev() const { return std::sqrt(variance()); }

void StreamingMoments::save(BinaryWriter& w) const {
  w.u64(static_cast<std::uint64_t>(n_));
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
}

bool StreamingMoments::load(BinaryReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  mean_ = r.f64();
  m2_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
  return r.ok();
}

void Histogram::save(BinaryWriter& w) const {
  w.vec_u64(counts_);
  w.u64(static_cast<std::uint64_t>(total_));
}

bool Histogram::load(BinaryReader& r) {
  std::vector<std::uint64_t> counts;
  r.vec_u64(counts);
  const std::uint64_t total = r.u64();
  if (!r.ok() || counts.size() != counts_.size()) return false;
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) {
    if (c > std::numeric_limits<std::uint64_t>::max() - sum) return false;
    sum += c;
  }
  if (sum != total) return false;
  counts_ = std::move(counts);
  total_ = static_cast<std::size_t>(total);
  return true;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  WCDMA_ASSERT(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  ++counts_[idx];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  WCDMA_ASSERT(counts_.size() == other.counts_.size() && lo_ == other.lo_ && hi_ == other.hi_);
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::percentile(double q) const {
  WCDMA_ASSERT(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

namespace {

// Two-sided 97.5% Student-t quantiles for small df; 1.96 beyond the table.
double t_quantile_975(std::size_t df) {
  static constexpr double kTable[] = {
      0,     12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228, 2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086, 2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (df == 0) return 0.0;
  if (df < sizeof(kTable) / sizeof(kTable[0])) return kTable[df];
  return 1.96;
}

}  // namespace

ConfidenceInterval confidence_interval_95(const std::vector<double>& replication_means) {
  ConfidenceInterval ci;
  ci.n = replication_means.size();
  if (ci.n == 0) return ci;
  StreamingMoments m;
  for (double x : replication_means) m.add(x);
  ci.mean = m.mean();
  if (ci.n >= 2) {
    ci.half_width = t_quantile_975(ci.n - 1) * m.stddev() / std::sqrt(static_cast<double>(ci.n));
  }
  return ci;
}

WelchInterval welch_difference_95(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  WCDMA_ASSERT(a.size() >= 2 && b.size() >= 2);
  StreamingMoments ma, mb;
  for (double x : a) ma.add(x);
  for (double x : b) mb.add(x);
  WelchInterval w;
  w.mean_diff = ma.mean() - mb.mean();
  const double va = ma.variance() / static_cast<double>(a.size());
  const double vb = mb.variance() / static_cast<double>(b.size());
  const double se_sq = va + vb;
  if (se_sq <= 0.0) {
    w.df = static_cast<double>(a.size() + b.size() - 2);
    w.half_width = 0.0;
    return w;
  }
  // Welch-Satterthwaite degrees of freedom.
  w.df = se_sq * se_sq /
         (va * va / static_cast<double>(a.size() - 1) +
          vb * vb / static_cast<double>(b.size() - 1));
  const std::size_t df_floor = w.df < 1.0 ? 1 : static_cast<std::size_t>(w.df);
  w.half_width = t_quantile_975(df_floor) * std::sqrt(se_sq);
  return w;
}

bool within_tolerance(double a, double b, const MetricTolerance& tol) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= std::max(tol.abs_tol, tol.rel_tol * scale);
}

std::string tolerance_report(double a, double b, const MetricTolerance& tol) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  const double bound = std::max(tol.abs_tol, tol.rel_tol * scale);
  std::string line = tol.metric;
  line += ": |" + std::to_string(a) + " - " + std::to_string(b) +
          "| = " + std::to_string(std::fabs(a - b)) + " vs bound " +
          std::to_string(bound) +
          (within_tolerance(a, b, tol) ? " (ok)" : " (VIOLATED)");
  return line;
}

}  // namespace wcdma::common
