#include "src/admission/region.hpp"

#include "src/common/assert.hpp"

namespace wcdma::admission {

bool Region::admits(const std::vector<int>& m, double tol) const {
  WCDMA_ASSERT(m.size() == a.cols() || a.rows() == 0);
  if (a.rows() == 0) return true;
  common::Vector x(m.size());
  for (std::size_t j = 0; j < m.size(); ++j) {
    if (m[j] < 0) return false;
    x[j] = static_cast<double>(m[j]);
  }
  return common::satisfies(a, x, b, tol);
}

}  // namespace wcdma::admission
