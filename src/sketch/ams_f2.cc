#include "src/sketch/ams_f2.h"

#include <algorithm>
#include <cmath>

#include "src/kernels/kernels.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

AmsF2::AmsF2(int groups, int per_group, uint64_t seed)
    : groups_(groups), per_group_(per_group), seed_(seed),
      counters_(static_cast<size_t>(groups) * static_cast<size_t>(per_group),
                0.0) {
  LPS_CHECK(groups >= 1 && per_group >= 1);
  signs_.reserve(counters_.size());
  for (size_t c = 0; c < counters_.size(); ++c) {
    signs_.emplace_back(4, Mix64(seed ^ (0xa3a3ULL + c)));
  }
}

void AmsF2::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

template <typename U>
void AmsF2::ApplyBatch(const U* updates, size_t count) {
  // Batch scratch, chunk-sized and per thread: keys mod 2^61 - 1, deltas
  // widened, sign hash values.
  thread_local std::vector<uint64_t> reduced_keys;
  thread_local std::vector<double> deltas;
  thread_local std::vector<uint64_t> evals;
  const kernels::KernelTable& kernel = kernels::Active();
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    reduced_keys.resize(chunk);
    deltas.resize(chunk);
    evals.resize(chunk);
    for (size_t t = 0; t < chunk; ++t) {
      reduced_keys[t] = gf61::Reduce(updates[start + t].index);
      deltas[t] = static_cast<double>(updates[start + t].delta);
    }
    for (size_t c = 0; c < counters_.size(); ++c) {
      // The degree-3 sign hash dominates this loop; it runs on the
      // dispatched Horner kernel. The +-1 accumulation stays scalar and in
      // stream order, so counters are bit-identical on every backend.
      const auto& coeffs = signs_[c].coefficients();
      kernel.kwise_horner_batch(coeffs.data(), coeffs.size(),
                                reduced_keys.data(), chunk, evals.data());
      double acc = counters_[c];
      for (size_t t = 0; t < chunk; ++t) {
        const int64_t bit = static_cast<int64_t>(evals[t] & 1);
        acc += static_cast<double>(2 * bit - 1) * deltas[t];
      }
      counters_[c] = acc;
    }
  }
}

void AmsF2::UpdateBatch(const stream::ScaledUpdate* updates, size_t count) {
  ApplyBatch(updates, count);
}

void AmsF2::UpdateBatch(const stream::Update* updates, size_t count) {
  ApplyBatch(updates, count);
}

double AmsF2::EstimateF2From(const std::vector<double>& counters) const {
  std::vector<double> group_means(static_cast<size_t>(groups_));
  for (int g = 0; g < groups_; ++g) {
    double sum = 0;
    for (int c = 0; c < per_group_; ++c) {
      const double v =
          counters[static_cast<size_t>(g) * static_cast<size_t>(per_group_) +
                   static_cast<size_t>(c)];
      sum += v * v;
    }
    group_means[static_cast<size_t>(g)] = sum / per_group_;
  }
  const size_t mid = group_means.size() / 2;
  std::nth_element(group_means.begin(),
                   group_means.begin() + static_cast<int64_t>(mid),
                   group_means.end());
  return group_means[mid];
}

double AmsF2::EstimateF2() const { return EstimateF2From(counters_); }

double AmsF2::EstimateL2() const { return std::sqrt(EstimateF2()); }

double AmsF2::EstimateResidualL2(
    const std::vector<std::pair<uint64_t, double>>& v) const {
  std::vector<double> shadow = counters_;
  for (const auto& [i, value] : v) {
    for (size_t c = 0; c < shadow.size(); ++c) {
      shadow[c] -= static_cast<double>(signs_[c].Sign(i)) * value;
    }
  }
  return std::sqrt(EstimateF2From(shadow));
}

void AmsF2::WriteParams(BitWriter* writer) const {
  writer->WriteBits(static_cast<uint64_t>(groups_), 32);
  writer->WriteBits(static_cast<uint64_t>(per_group_), 32);
  writer->WriteU64(seed_);
}

void AmsF2::ReadParams(BitReader* reader) {
  const int groups = static_cast<int>(reader->ReadBits(32));
  const int per_group = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = AmsF2(groups, per_group, seed);
}

size_t AmsF2::SpaceBits(int bits_per_counter) const {
  size_t bits = counters_.size() * static_cast<size_t>(bits_per_counter);
  for (const auto& h : signs_) bits += h.SeedBits();
  return bits;
}

}  // namespace lps::sketch
