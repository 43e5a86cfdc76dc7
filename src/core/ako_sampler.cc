#include "src/core/ako_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/util/bits.h"

namespace lps::core {

LpSamplerParams AkoSampler::AkoResolve(LpSamplerParams params) {
  params.k = 2;  // pairwise independent scaling factors
  if (params.m == 0) {
    const int log_n = std::max(1, CeilLog2(std::max<uint64_t>(params.n, 2)));
    params.m = std::max(
        4, static_cast<int>(std::ceil(2.0 * std::pow(params.eps, -params.p) *
                                      static_cast<double>(log_n))));
  }
  return params;
}

AkoSampler::AkoSampler(LpSamplerParams params)
    : inner_(AkoResolve(std::move(params))) {}

}  // namespace lps::core
