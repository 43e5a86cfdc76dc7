// The count-sketch of Charikar, Chen and Farach-Colton [6], exactly as
// defined in Section 2 of the paper: for parameter m it keeps l = O(log n)
// rows of 6m counters; row j uses pairwise-independent hashes
// h_j : [n] -> [6m] and g_j : [n] -> {-1, +1} and maintains
//
//   y_{k,j} = sum_{i : h_j(i) = k} g_j(i) * x_i.
//
// The point estimate is x*_i = median_j g_j(i) * y_{h_j(i), j}, and Lemma 1
// guarantees |x_i - x*_i| <= Err_2^m(x) / sqrt(m) for all i w.h.p.
//
// Counters are doubles because the Lp sampler feeds the *scaled* vector
// z_i = x_i / t_i^{1/p}; the space accounting methods report the paper's
// O(m log n)-counter model.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hash/kwise.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps::sketch {

class CountSketch : public LinearSketch {
 public:
  /// `rows` is l = O(log n); `buckets` is the row width (the paper uses 6m).
  CountSketch(int rows, int buckets, uint64_t seed);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion: the key is reduced into the field once per update,
  /// then each row applies the whole batch in one tight loop with its hash
  /// coefficients held in registers. State is bit-identical to calling
  /// Update once per element in stream order.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// The row sweep UpdateBatch runs after filling its scratch, for callers
  /// that hold the batch in that form already. Precondition: every key is
  /// reduced into the field, keys[t] < 2^61 - 1 (gf61::Reduce of the
  /// index); deltas[t] is the update's delta as a double. Touches no
  /// scratch, so a DyadicCountSketch feeds all its levels from one buffer.
  /// State is bit-identical to UpdateBatch over the same updates.
  void UpdateReduced(const uint64_t* keys, const double* deltas, size_t count);

  /// Point estimate x*_i (median over rows).
  double Query(uint64_t i) const;

  /// All point estimates for coordinates [0, n): O(n * rows). REFERENCE
  /// ORACLE: a full-universe scan kept only so tests and benches can check
  /// the candidate-driven query engine against the exhaustive answer. No
  /// production Sample()/Query()/Recover() chain may call it.
  std::vector<double> EstimateAll(uint64_t n) const;

  /// The m coordinates of [0, n) with largest |x*_i|, with their estimates,
  /// sorted by decreasing |estimate| (ties broken by ascending index).
  /// This is the best m-sparse approximation \hat{x} of x* from Lemma 1.
  /// REFERENCE ORACLE, same caveat as EstimateAll: O(n * rows).
  std::vector<std::pair<uint64_t, double>> TopM(uint64_t n, uint64_t m) const;

  /// Candidate-driven TopM: point-estimates only the given candidates and
  /// returns the m with largest |x*_i|, ordered exactly like the oracle
  /// overload (|estimate| desc, index asc; duplicates ignored). When
  /// `candidates` contains the true top m of [0, n), the result equals
  /// TopM(n, m) — the equivalence the query-engine tests assert. Cost is
  /// O(|candidates| * rows), independent of the universe size.
  std::vector<std::pair<uint64_t, double>> TopM(
      const std::vector<uint64_t>& candidates, uint64_t m) const;

  /// Estimates ||x - v||_2 for a sparse vector v by subtracting v from the
  /// counters in place (saving the few affected buckets and restoring them
  /// bit-exactly afterwards — no O(rows * buckets) clone) and taking the
  /// median over rows of the row's sum of squared buckets (each row is an
  /// unbiased F2 estimator with relative standard deviation
  /// ~ sqrt(2 / buckets), since bucket and sign hashes are pairwise
  /// independent). This realizes the paper's L'(z - zhat) = L'(z) - L'(zhat)
  /// with the count-sketch itself playing the role of the linear map L'.
  /// Logically const, but the in-place subtract/restore makes concurrent
  /// queries on the same object unsafe.
  double EstimateResidualL2(
      const std::vector<std::pair<uint64_t, double>>& v) const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override { list->Real(&table_); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kCountSketch; }

  int rows() const { return rows_; }
  int buckets() const { return buckets_; }
  uint64_t seed() const { return seed_; }

  /// Paper-model space: counters * bits_per_counter plus the pairwise hash
  /// seeds (O(log n) bits each).
  size_t SpaceBits(int bits_per_counter) const;

 private:
  template <typename U>
  void ApplyBatch(const U* updates, size_t count);

  int rows_;
  int buckets_;
  uint64_t seed_;
  // Mutable only for EstimateResidualL2's exact subtract/restore; every
  // other method treats const as read-only.
  mutable std::vector<double> table_;    // rows_ x buckets_
  std::vector<hash::KWiseHash> bucket_;  // one pairwise hash per row
  std::vector<hash::KWiseHash> sign_;    // one pairwise sign hash per row
};

}  // namespace lps::sketch
