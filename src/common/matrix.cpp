#include "src/common/matrix.hpp"

#include <cmath>
#include <cstdio>

#include "src/common/assert.hpp"

namespace wcdma::common {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    WCDMA_ASSERT(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  WCDMA_DEBUG_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  WCDMA_DEBUG_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double* Matrix::row(std::size_t r) {
  WCDMA_DEBUG_ASSERT(r < rows_);
  return data_.data() + r * cols_;
}

const double* Matrix::row(std::size_t r) const {
  WCDMA_DEBUG_ASSERT(r < rows_);
  return data_.data() + r * cols_;
}

Vector Matrix::multiply(const Vector& x) const {
  WCDMA_ASSERT(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::string Matrix::to_string(int precision) const {
  std::string out;
  char buf[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    out += "[ ";
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%.*g ", precision, (*this)(r, c));
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

double dot(const Vector& a, const Vector& b) {
  WCDMA_ASSERT(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double sum(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

bool satisfies(const Matrix& a, const Vector& x, const Vector& b, double tol) {
  WCDMA_ASSERT(a.rows() == b.size());
  const Vector y = a.multiply(x);
  for (std::size_t r = 0; r < y.size(); ++r) {
    if (y[r] > b[r] + tol) return false;
  }
  return true;
}

}  // namespace wcdma::common
