// The generalized form of Theorems 3 and 4 (remark at the end of
// Section 3): given an arbitrary update stream for x in Z^n, find an index
// with x_i > 0.
//
// Let s = -sum_i x_i (maintained exactly in one counter). If s < 0 a
// positive coordinate must exist and the Theorem 3 sampler finds one; if
// s >= 0 one does not necessarily exist and the Theorem 4 combination of
// exact sparse recovery (budgeted by the caller) and sampling either finds
// one, certifies none exists, or fails with probability <= delta.
#pragma once

#include <cstdint>

#include "src/core/lp_sampler.h"
#include "src/recovery/sparse_recovery.h"
#include "src/stream/linear_sketch.h"

namespace lps::duplicates {

class PositiveFinder : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    uint64_t s_budget = 4;  ///< sparse recovery handles up to 5*s_budget
    double delta = 0.25;
    int repetitions = 0;
    uint64_t seed = 0;
  };

  enum class Kind { kFound, kNone, kFail };
  struct Outcome {
    Kind kind;
    uint64_t index = 0;  ///< valid when kind == kFound
  };

  explicit PositiveFinder(Params params);

  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion (exact total plus both sub-sketches' fast paths).
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  Outcome Find() const;

  /// s = -sum_i x_i, known exactly.
  int64_t Deficit() const { return -total_; }

  // LinearSketch contract: parameters, counters (the exact total, then
  // both sub-sketches), space.
  void Counters(CounterList* list) override {
    list->Integer(&total_, 1);
    recovery_.Counters(list);
    sampler_.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kPositiveFinder; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  Params params_;
  int64_t total_ = 0;
  recovery::SparseRecovery recovery_;
  core::LpSampler sampler_;
};

}  // namespace lps::duplicates
