// Dyadic count-min tree for sublinear heavy-hitter extraction in the strict
// turnstile model.
//
// The flat count-sketch heavy hitter of Section 4.4 answers point queries
// and extracts the heavy set by scanning [n] — the right cost model for the
// paper's space bounds, but linear-time at query. Production systems use
// the standard dyadic decomposition instead: level l aggregates x over
// aligned blocks of size 2^l and keeps its own count-min sketch; the heavy
// set is found by descending from the root, expanding only blocks whose
// estimated mass clears the threshold. Query cost is O(#heavy * log n *
// rows) instead of O(n * rows).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"

namespace lps::sketch {

/// An integer batch with the deltas of each index summed: every distinct
/// index once, in first-appearance order, with the sum of its deltas;
/// indices whose deltas cancel are dropped. The arrays are this thread's
/// scratch, valid until its next CombineRepeats.
struct CombinedBatch {
  const uint64_t* index;
  const double* sum;
  size_t count;
};

/// Combines at most stream::kBatchChunk updates, after checking that every
/// index is below 2^log_n. The sums accumulate in double (an int64_t sum
/// of wire deltas could overflow) and are exact while they stay below
/// 2^53, so counters that only ever hold integers end bit-identical
/// whether they are fed the batch or its combination.
CombinedBatch CombineRepeats(const stream::Update* updates, size_t count,
                             int log_n);

class DyadicCountMin : public LinearSketch {
 public:
  /// Universe [0, 2^log_n); each level gets a CountMin(rows, buckets).
  DyadicCountMin(int log_n, int rows, int buckets, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion, a chunk at a time. Real deltas go in stream order:
  /// per level the block ids are written into this thread's one key buffer
  /// and the level's count-min sweeps the chunk from it. Integer deltas are
  /// combined first (CombineRepeats) and fed as UpdateCombined does.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Feeds a batch CombineRepeats made for this tree's log_n. The levels
  /// below the first one with no more blocks than the batch has leaves
  /// hash each leaf's block id; from that level up, each level's block
  /// sums come from the level below without hashing, and only non-zero
  /// blocks are swept. Integer sums add exactly in any order, so the
  /// counters are bit-identical to the stream-order feed.
  void UpdateCombined(const CombinedBatch& batch);

  /// Point estimate at the leaf level (strict turnstile overestimate).
  double Query(uint64_t i) const;

  /// All leaves whose estimate is >= threshold. Correct in the strict
  /// turnstile model because block masses upper-bound leaf masses.
  std::vector<uint64_t> HeavyLeaves(double threshold) const;

  /// Unverified candidate leaves: the leaf frontier of the same top-down
  /// descent, *without* the leaf-level estimate filter. Consumers that own
  /// a more accurate point-query structure (e.g. the flat count-min of
  /// CmHeavyHitters) verify candidates there instead, so tree noise
  /// affects neither precision nor the verdict. Ascending order.
  std::vector<uint64_t> Candidates(double threshold) const;

  // LinearSketch contract: parameters, counters (all levels, in order),
  // space.
  void Counters(CounterList* list) override {
    for (auto& level : levels_) level.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kDyadicCountMin; }

  int log_n() const { return log_n_; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  int log_n_;
  int rows_;
  int buckets_;
  uint64_t seed_;
  std::vector<CountMin> levels_;  // levels_[l] sketches blocks of size 2^l
};

/// Dyadic count-sketch: the general-update analogue of the tree above.
///
/// Under general updates the sum of a block can cancel even when it
/// contains heavy leaves of opposite signs, so a descent from the root is
/// unsound. This structure makes the engineering trade-off explicit: the
/// descent starts from a wide level (>= 2^6 blocks), where co-location of
/// cancelling heavy coordinates requires adversarial placement, expands
/// blocks whose |estimated block sum| clears threshold / 2, and verifies
/// candidates at the leaf level. For adversarial inputs that cancel inside
/// a starting block, the flat CsHeavyHitters scan (heavy/heavy_hitters.h)
/// is the sound tool — see the unit test documenting exactly this miss.
///
/// Because no descent reads above the starting level, the tree keeps only
/// levels 0..start_level(): at log n = 20 that is 15 of the 21 levels a
/// full tree would co-update. Each kept level has the seed it would have
/// in the full tree, so every answer is the full tree's answer.
class DyadicCountSketch : public LinearSketch {
 public:
  DyadicCountSketch(int log_n, int rows, int buckets, uint64_t seed);

  void Update(uint64_t i, double delta);

  /// Batched ingestion, as DyadicCountMin's: real deltas in stream order
  /// (the Lp sampler rounds' path, whose rounding depends on order),
  /// integer deltas combined first and summed up the upper levels.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Leaf-level point estimate (median over rows).
  double Query(uint64_t i) const;

  /// Leaves whose |leaf estimate| >= threshold, found by descending from
  /// the starting level. Candidates are re-verified at level 0, so block
  /// noise produces no false positives.
  std::vector<uint64_t> HeavyLeaves(double threshold) const;

  /// Unverified candidate leaves: the leaf frontier of the threshold
  /// descent, without the leaf-level verification. For consumers (the
  /// heavy-hitter classes) that point-estimate candidates in their own,
  /// wider flat count-sketch. Ascending order.
  std::vector<uint64_t> Candidates(double threshold) const;

  /// Threshold-free candidate generation for top-m recovery: a beam-search
  /// descent that keeps the `beam = max(4m, 64)` blocks of largest
  /// |estimated block sum| per level and returns the surviving leaves
  /// (ascending, at most `beam` of them). Cost O(log n * beam * rows) —
  /// independent of the universe size. When the universe's m heaviest
  /// coordinates dominate their blocks (no adversarial in-block
  /// cancellation), the result contains the true top m; the caller
  /// re-ranks candidates in its flat count-sketch, so extras are harmless.
  std::vector<uint64_t> TopCandidates(uint64_t m) const;

  /// The level every descent starts from (all its blocks are scanned):
  /// max(0, log n - 6), so at most 2^6 starting blocks. It is also the
  /// top of the tree — the structure holds levels 0..start_level() only.
  int start_level() const;

  // LinearSketch contract: parameters, counters (levels
  // 0..start_level(), in order), space.
  void Counters(CounterList* list) override {
    for (auto& level : levels_) level.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kDyadicCountSketch; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  int log_n_;
  int rows_;
  int buckets_;
  uint64_t seed_;
  // levels_[l] sketches blocks of size 2^l, for l <= start_level().
  std::vector<CountSketch> levels_;
};

}  // namespace lps::sketch
