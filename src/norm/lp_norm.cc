#include "src/norm/lp_norm.h"

#include <algorithm>
#include <cmath>

#include "src/util/bits.h"

namespace lps::norm {

LpNormEstimator::LpNormEstimator(double p, int rows, uint64_t seed)
    : sketch_(p, rows, seed) {}

void LpNormEstimator::Update(uint64_t i, double delta) {
  sketch_.Update(i, delta);
}

void LpNormEstimator::UpdateBatch(const stream::ScaledUpdate* updates,
                                  size_t count) {
  sketch_.UpdateBatch(updates, count);
}

void LpNormEstimator::UpdateBatch(const stream::Update* updates,
                                  size_t count) {
  sketch_.UpdateBatch(updates, count);
}

double LpNormEstimator::Estimate2Approx() const {
  return std::sqrt(2.0) * sketch_.EstimateNorm();
}

int LpNormEstimator::DefaultRows(uint64_t n) {
  // ~97% coverage needs ~100 rows at n = 2^10 (see bench_norms); scale with
  // log n to keep the failure probability polynomially small.
  return std::max(96, 8 * CeilLog2(std::max<uint64_t>(n, 2)));
}

}  // namespace lps::norm
