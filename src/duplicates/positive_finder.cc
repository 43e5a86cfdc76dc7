#include "src/duplicates/positive_finder.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::duplicates {

namespace {

core::LpSamplerParams SamplerParams(const PositiveFinder::Params& p) {
  core::LpSamplerParams params;
  params.n = p.n;
  params.p = 1.0;
  params.eps = 0.5;
  // As in SparseDuplicateFinder: the dense path's positive fraction can be
  // as low as 2/5, so give the sampler a halved delta budget.
  params.delta = p.delta / 2;
  params.repetitions = p.repetitions;
  params.seed = Mix64(p.seed ^ 0x90f1ULL);
  return params;
}

}  // namespace

PositiveFinder::PositiveFinder(Params params)
    : params_(params),
      recovery_(params.n, std::max<uint64_t>(2, 5 * params.s_budget),
                Mix64(params.seed ^ 0x90f0ULL)),
      sampler_(SamplerParams(params)) {}

void PositiveFinder::Update(uint64_t i, int64_t delta) {
  total_ += delta;
  recovery_.Update(i, delta);
  sampler_.Update(i, delta);
}

void PositiveFinder::UpdateBatch(const stream::Update* updates, size_t count) {
  for (size_t t = 0; t < count; ++t) total_ += updates[t].delta;
  recovery_.UpdateBatch(updates, count);
  sampler_.UpdateBatch(updates, count);
}

void PositiveFinder::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteU64(params_.s_budget);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteU64(params_.seed);
}

void PositiveFinder::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.s_budget = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  *this = PositiveFinder(params);
}

PositiveFinder::Outcome PositiveFinder::Find() const {
  // Exact path first: if x is within the recovery budget we answer
  // deterministically (this also certifies kNone).
  auto recovered = recovery_.Recover();
  if (recovered.ok()) {
    for (const auto& entry : recovered.value()) {
      if (entry.value > 0) return {Kind::kFound, entry.index};
    }
    return {Kind::kNone, 0};
  }
  // Dense: sample. When Deficit() < 0 a positive coordinate carries more
  // than half the L1 mass; when Deficit() >= 0 density still guarantees a
  // >= 2/5 positive fraction (Theorem 4's argument).
  const double r = sampler_.NormEstimate();
  if (r > 0) {
    for (int v = 0; v < sampler_.repetitions(); ++v) {
      auto res = sampler_.round(v).Recover(r);
      if (res.ok() && res.value().estimate > 0) {
        return {Kind::kFound, res.value().index};
      }
    }
  }
  return {Kind::kFail, 0};
}

size_t PositiveFinder::SpaceBits(int bits_per_counter) const {
  return 64 + recovery_.SpaceBits() + sampler_.SpaceBits(bits_per_counter);
}

}  // namespace lps::duplicates
