// Indyk's p-stable sketch for Lp norm estimation, p in (0, 2].
//
// Row j maintains y_j = sum_i s_{ij} x_i where the s_{ij} are i.i.d.
// standard p-stable variables; then |y_j| is distributed as ||x||_p times
// the absolute value of a standard p-stable variable, and
//
//   median_j |y_j| / median(|Stable(p)|)
//
// is a constant-factor estimator of ||x||_p with O(log n) rows (Lemma 2 /
// [17] provide the derandomized version). Instead of that derandomization,
// stable variables are generated on the fly from a seeded hash of (row,
// coordinate): the sketch stays linear and mergeable without storing any
// per-coordinate state, and replicas with one seed agree bit for bit.
//
// General-p variables use the Chambers-Mallows-Stuck transform; p = 1
// (Cauchy) and p = 2 (Gaussian) use their closed forms. All three live in
// the kernel layer (src/kernels/stable_transform.h), whose portable
// general-p body every backend reproduces bit for bit. The normalizing
// constant median(|Stable(p)|) is computed once per p by a deterministic
// offline simulation over that same transform and cached.
#pragma once

#include <cstdint>
#include <vector>

#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps::sketch {

/// Median of |X| for X standard p-stable (beta = 0, unit scale). Exact for
/// p = 1 and p = 2; computed by a seeded 2e5-sample simulation otherwise
/// (cached per p).
double StableMedianAbs(double p);

/// Draws the standard p-stable value determined by two uniforms
/// u1, u2 in (0,1]; deterministic in its inputs, and the very variate the
/// sketch rows accumulate (kernels::StableFromUniformsImpl).
double StableFromUniforms(double p, double u1, double u2);

class StableSketch : public LinearSketch {
 public:
  StableSketch(double p, int rows, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion, row-major: each row's counter accumulates the whole
  /// batch in a register, and the per-item half of the (row, i) hash — the
  /// key product and the delta widening — is hoisted out of the row sweep
  /// and computed once per batch. Bit-identical to per-update processing
  /// on every backend at p != 1 and on the scalar one at p = 1. The SIMD
  /// p = 1 rows sum a batch quad by quad and its tail one by one, so
  /// their counters depend on where batches start and match per-update
  /// processing only to rounding (query-equivalent).
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Constant-factor estimate of ||x||_p (median / normalizer).
  double EstimateNorm() const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override { list->Real(&y_); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kStableSketch; }

  double p() const { return p_; }
  int rows() const { return rows_; }
  uint64_t seed() const { return seed_; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  template <typename U>
  void ApplyBatch(const U* updates, size_t count);

  double p_;
  int rows_;
  uint64_t seed_;
  double normalizer_;
  std::vector<double> y_;
};

}  // namespace lps::sketch
