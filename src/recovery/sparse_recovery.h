// Exact s-sparse recovery (Lemma 5): a random linear function
// L : R^n -> R^k with k = O(s), generated from O(k log n) random bits,
// such that for any s-sparse x the recovery procedure outputs x with
// probability 1, and otherwise outputs DENSE with high probability.
//
// Construction (Prony / Reed-Solomon syndromes over GF(2^61 - 1)):
//   measurements   T_r = sum_i x_i * a_i^r,  r = 0 .. 2s-1,  a_i = i + 1,
//   plus two fingerprints F_t = sum_i x_i * rho_t^{a_i} with random rho_t.
//
// Recovery runs Berlekamp-Massey on the syndromes, which for a genuinely
// <= s-sparse x provably yields the connection polynomial
// prod_j (1 - a_j x); the locator's roots are found by Cantor-Zassenhaus
// in O(s^2 log p) field operations (no O(n s) Chien search — see
// field/roots.h), values are recovered with a transposed-Vandermonde solve,
// and the fingerprints certify the result. Any inconsistency (locator does
// not split, roots outside [1, n], fingerprint mismatch) reports DENSE; a
// false accept requires both random fingerprints to collide, probability
// <= (n/p)^2 < 2^-80.
//
// Space: 2s + 2 field elements of 61 bits plus two 64-bit seeds —
// O(s log n) bits, matching Lemma 5.
#pragma once

#include <cstdint>
#include <vector>

#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps::recovery {

class SparseRecovery : public LinearSketch {
 public:
  struct Entry {
    uint64_t index;
    int64_t value;
  };
  using SparseVector = std::vector<Entry>;

  /// Universe [0, n); recovers any vector with at most `s` non-zero
  /// coordinates exactly.
  SparseRecovery(uint64_t n, uint64_t s, uint64_t seed);

  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion. Each update's syndrome contribution is a serial
  /// geometric chain in its own base a = i + 1 (a multiply-add per
  /// syndrome, 2s deep) — there is nothing to hoist across items, but the
  /// chains of different items are independent, so the batch kernel
  /// interleaves four of them and hides the field-multiply latency the
  /// scalar path is stuck serializing. GF(2^61 - 1) addition is exact and
  /// commutative, so the state is bit-identical to per-update processing.
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// The exact sparse vector (possibly empty, for x == 0), or
  /// Status::Dense when x is not s-sparse (w.h.p.). Entries are sorted by
  /// index. Recovery is non-destructive and costs O(s^2 log p) field ops.
  Result<SparseVector> Recover() const;

  /// True iff all measurements are zero (x == 0 w.h.p.).
  bool IsZero() const;

  uint64_t s() const { return s_; }
  uint64_t n() const { return n_; }

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override {
    list->Field(&syndromes_);
    list->Field(fingerprints_, 2);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  SketchKind kind() const override { return SketchKind::kSparseRecovery; }

  /// Paper-model space: (2s + 2) * 61 measurement bits + seed bits.
  size_t SpaceBits() const override {
    return syndromes_.size() * 61 + 2 * 61 + 2 * 64;
  }

 private:
  uint64_t n_;
  uint64_t s_;
  uint64_t seed_;
  uint64_t rho_[2];                  // fingerprint bases
  std::vector<uint64_t> syndromes_;  // T_0 .. T_{2s-1}
  uint64_t fingerprints_[2] = {0, 0};
};

}  // namespace lps::recovery
