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

void AkoSampler::MergeSigned(const LinearSketch& other, int sign) {
  const auto* o = dynamic_cast<const AkoSampler*>(&other);
  LPS_CHECK(o != nullptr);
  inner_.MergeSigned(o->inner_, sign);
}

void AkoSampler::Serialize(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  inner_.Serialize(writer);
}

void AkoSampler::Deserialize(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  inner_.Deserialize(reader);
}

}  // namespace lps::core
