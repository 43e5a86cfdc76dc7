// 1-sparse detector over GF(2^61 - 1): the classic (sum, weighted-sum,
// fingerprint) triple. Maintains
//
//   s0 = sum_i x_i,   s1 = sum_i x_i * a_i,   f = sum_i x_i * rho^{a_i}
//
// with nodes a_i = i + 1 and a random rho. If x is exactly 1-sparse with
// support {i}, then s1 / s0 = a_i recovers the index and s0 the value; the
// fingerprint check f == value * rho^{a_i} rejects non-1-sparse vectors
// except with probability <= n / p < 2^-40 (polynomial identity testing:
// f - value * rho^{a_i} is a non-zero polynomial of degree <= n in rho).
//
// Used as the bucket primitive of the Frahling-Indyk-Sohler-style baseline
// L0 sampler [12] and tested independently.
#pragma once

#include <cstdint>

#include "src/stream/linear_sketch.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps::recovery {

class OneSparse : public LinearSketch {
 public:
  struct Entry {
    uint64_t index;
    int64_t value;
  };

  /// Universe [0, n). The fingerprint base rho derives from `seed`.
  OneSparse(uint64_t n, uint64_t seed);

  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion (plain loop — three counters, nothing to hoist).
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// True iff every counter is zero (x == 0 w.h.p.).
  bool IsZero() const;

  /// Returns the unique entry if x is exactly 1-sparse; Status::Dense
  /// otherwise (including the zero vector, which is reported as Dense by
  /// this query — callers check IsZero first).
  Result<Entry> Recover() const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override {
    list->Field(&s0_, 1);
    list->Field(&s1_, 1);
    list->Field(&f_, 1);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  SketchKind kind() const override { return SketchKind::kOneSparse; }

  size_t SpaceBits() const override { return 3 * 61 + 64; }

 private:
  uint64_t n_;
  uint64_t seed_;
  uint64_t rho_;
  uint64_t s0_ = 0;  // field elements
  uint64_t s1_ = 0;
  uint64_t f_ = 0;
};

}  // namespace lps::recovery
