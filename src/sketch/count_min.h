// The count-min sketch of Cormode and Muthukrishnan [8], plus the
// count-median estimator, used by the heavy-hitters module (Section 4.4).
//
//   - QueryMin: the classic min-over-rows estimate; an overestimate that is
//     within ||x||_1 / buckets of the truth w.h.p. in the strict turnstile
//     model (all x_i >= 0 at query time).
//   - QueryMedian: median-over-rows; works under general updates with
//     error 3 ||x||_1 / buckets w.h.p. (the count-median of [8]).
#pragma once

#include <cstdint>
#include <vector>

#include "src/hash/kwise.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps::sketch {

class CountMin : public LinearSketch {
 public:
  CountMin(int rows, int buckets, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion, row-major, a chunk at a time; bit-identical to
  /// per-update processing.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// The row sweep UpdateBatch runs after filling its scratch. Same
  /// contract as CountSketch::UpdateReduced: keys[t] < 2^61 - 1 (already
  /// reduced into the field), deltas already widened to double, no scratch
  /// touched, state bit-identical to UpdateBatch over the same updates.
  void UpdateReduced(const uint64_t* keys, const double* deltas, size_t count);

  /// Strict-turnstile estimate (upper bound on x_i w.h.p. of construction).
  double QueryMin(uint64_t i) const;

  /// General-update estimate (count-median).
  double QueryMedian(uint64_t i) const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override { list->Real(&table_); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kCountMin; }

  int rows() const { return rows_; }
  int buckets() const { return buckets_; }
  uint64_t seed() const { return seed_; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  template <typename U>
  void ApplyBatch(const U* updates, size_t count);

  int rows_;
  int buckets_;
  uint64_t seed_;
  std::vector<double> table_;
  std::vector<hash::KWiseHash> bucket_;
};

}  // namespace lps::sketch
