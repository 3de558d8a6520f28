// Linear admissible regions produced by the measurement sub-layer
// (Section 3.1).  A region is the constraint set  A m <= b  over the
// spreading-gain-ratio vector m of the Nd concurrent burst requests.  The
// forward-link (Eq. 7) and reverse-link (Eq. 17) regions stay separate:
// each direction's round is scheduled on its own region.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace wcdma::admission {

struct Region {
  common::Matrix a;  // K x Nd, nonnegative coefficients
  common::Vector b;  // K, clamped >= 0 so m = 0 (reject all) stays feasible

  bool empty() const { return a.rows() == 0; }

  /// True iff the integer assignment m satisfies A m <= b (+tol).
  bool admits(const std::vector<int>& m, double tol = 1e-9) const;
};

}  // namespace wcdma::admission
