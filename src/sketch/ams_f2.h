// The AMS / tug-of-war F2 sketch (Alon-Matias-Szegedy), used by the Lp
// sampler's recovery stage to estimate ||z - \hat{z}||_2 (Figure 1, step 3
// of the recovery stage).
//
// Layout: `groups` independent groups of `per_group` counters; counter c
// maintains sum_i s_c(i) x_i with a 4-wise independent sign hash s_c. Each
// counter's square is an unbiased F2 estimate with bounded variance
// (4-wise independence suffices); the estimator is the median over groups
// of the mean within a group. Because the sketch is linear, the residual
// z - \hat{z} is estimated by cloning the counters and subtracting the
// m-sparse \hat{z} at query time — this is exactly how the paper computes
// L'(z - \hat{z}) = L'(z) - L'(\hat{z}).
#pragma once

#include <cstdint>
#include <vector>

#include "src/hash/kwise.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"

namespace lps::sketch {

class AmsF2 : public LinearSketch {
 public:
  AmsF2(int groups, int per_group, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion, counter-major: each counter's 4-wise sign
  /// polynomial is hoisted out of the inner loop and the counter accumulates
  /// in a register. Bit-identical to per-update processing.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Median-of-means estimate of F2 = ||x||_2^2.
  double EstimateF2() const;

  /// sqrt of EstimateF2.
  double EstimateL2() const;

  /// Estimate of ||x - v||_2 where v is the given sparse vector; the sketch
  /// itself is unchanged.
  double EstimateResidualL2(
      const std::vector<std::pair<uint64_t, double>>& v) const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override { list->Real(&counters_); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kAmsF2; }

  int groups() const { return groups_; }
  int per_group() const { return per_group_; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  double EstimateF2From(const std::vector<double>& counters) const;

  template <typename U>
  void ApplyBatch(const U* updates, size_t count);

  int groups_;
  int per_group_;
  uint64_t seed_;
  std::vector<double> counters_;        // groups_ x per_group_
  std::vector<hash::KWiseHash> signs_;  // one 4-wise sign hash per counter
};

}  // namespace lps::sketch
