// Baseline: a Frahling-Indyk-Sohler-style L0 sampler [12] with the
// O(log^3 n)-bit space shape the paper's Theorem 2 improves to O(log^2 n).
//
// Structure: log n + 1 subsampling levels (level l keeps coordinates at
// rate 2^-l); each level hashes survivors into Theta(log n) buckets, each
// bucket a 1-sparse detector of O(log n) bits. Sampling scans levels from
// the *sparsest* down and returns a uniform choice among the valid 1-sparse
// buckets of the first productive level. Space: log n levels x log n
// buckets x O(log n) bits = O(log^3 n).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/sampler.h"
#include "src/hash/kwise.h"
#include "src/stream/linear_sketch.h"
#include "src/util/status.h"

#include "src/recovery/one_sparse.h"

namespace lps::core {

class FisL0Sampler : public LinearSketch {
 public:
  /// Universe [0, n); `buckets` = 0 picks Theta(log n).
  FisL0Sampler(uint64_t n, uint64_t seed, int buckets = 0);

  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion (plain per-update loop: each update touches a
  /// different bucket chain, so there is nothing to hoist).
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  Result<SampleResult> Sample() const;

  // LinearSketch contract: parameters, counters (bucket by bucket, level
  // by level), space.
  void Counters(CounterList* list) override {
    for (auto& row : table_) {
      for (auto& bucket : row) bucket.Counters(list);
    }
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  SketchKind kind() const override { return SketchKind::kFisL0Sampler; }

  size_t SpaceBits() const override;

 private:
  int DeepestLevel(uint64_t i) const;

  uint64_t n_;
  int levels_;
  int buckets_;
  uint64_t seed_;
  hash::KWiseHash level_hash_;
  std::vector<hash::KWiseHash> bucket_hash_;         // per level
  std::vector<std::vector<recovery::OneSparse>> table_;  // [level][bucket]
};

}  // namespace lps::core
