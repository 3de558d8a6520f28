// Small dense row-major matrix and vector helpers.
//
// The admissible regions (Eq. 7 / Eq. 17 of the paper) are K x Nd matrices
// with K ~ tens and Nd ~ tens, and the simplex solver works on tableaux of
// similar size, so a simple contiguous double matrix is the right tool; no
// expression templates, no BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace wcdma::common {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-major construction from nested initializer lists; all rows must
  /// have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Pointer to the start of row r (contiguous cols_ doubles).
  double* row(std::size_t r);
  const double* row(std::size_t r) const;

  /// y = A x.  x.size() must equal cols().
  Vector multiply(const Vector& x) const;

  /// Human-readable dump for debugging / logging.
  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

/// Sum of elements.
double sum(const Vector& v);

/// True iff A x <= b + tol element-wise.
bool satisfies(const Matrix& a, const Vector& x, const Vector& b, double tol);

}  // namespace wcdma::common
