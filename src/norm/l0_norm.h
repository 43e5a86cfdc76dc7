// Turnstile L0 (distinct non-zero count) estimation via level fingerprints.
//
// For each of `reps` repetitions, coordinates are subsampled at rates
// 2^-level (nested: coordinate i survives to every level below
// floor(-log2 U_i)), and a GF(2^61-1) linear fingerprint of the surviving
// sub-vector is kept per level. A level's fingerprint is zero iff the
// sub-vector is zero (up to a 2^-61-scale collision probability), so the
// deepest non-zero level of a repetition concentrates around
// log2(L0 / ln 2); the estimator is ln 2 * 2^median(deepest level).
//
// This gives a constant-factor approximation — precisely what its two
// consumers need: choosing the subsampling level in the two-round universal
// relation protocol (Proposition 5) and sizing checks in the generalized
// duplicates algorithms. It is fully linear (supports deletions) and
// serializable for protocol messages.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hash/kwise.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps::norm {

class L0Estimator : public LinearSketch {
 public:
  /// Universe [0, n); `reps` independent repetitions (the estimate is a
  /// median over them).
  L0Estimator(uint64_t n, int reps, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion, a chunk at a time and repetition-major within it:
  /// per repetition, the subsampling and fingerprint polynomials are
  /// hoisted and the chunk is applied in one pass. Bit-identical to
  /// per-update processing.
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Constant-factor estimate of the number of non-zero coordinates;
  /// 0 iff the vector is (whp) zero.
  double Estimate() const;

  /// The deepest level with a non-zero fingerprint, per repetition
  /// (-1 if all levels are zero). Exposed for the two-round UR protocol,
  /// which needs the level itself.
  std::vector<int> DeepestNonZeroLevels() const;

  int levels() const { return levels_; }
  int reps() const { return reps_; }

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override { list->Field(&fingerprints_); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  SketchKind kind() const override { return SketchKind::kL0Estimator; }

  size_t SpaceBits() const override;

 private:
  uint64_t n_;
  uint64_t seed_;
  int reps_;
  int levels_;  // levels 0 .. levels_-1; level 0 keeps everything
  std::vector<uint64_t> fingerprints_;   // reps_ x levels_, field elements
  std::vector<hash::KWiseHash> level_hash_;  // per rep: subsampling hash
  std::vector<hash::KWiseHash> fp_hash_;     // per rep: fingerprint weights
};

}  // namespace lps::norm
