// The zero-relative-error L0 sampler of Theorem 2.
//
// Level sets: I_0 = [n]; for k = 1 .. floor(log2 n), I_k keeps each
// coordinate independently with probability 2^k / n (expected size 2^k,
// the paper's "random subsets of size 2^k"). Each level runs the exact
// s-sparse recovery of Lemma 5 with s = ceil(4 log2(1/delta)) on the
// restriction of x to I_k. Sampling scans k = 0, 1, ... and returns a
// uniformly random non-zero coordinate of the first recovery that yields a
// non-zero s-sparse vector; it FAILs if every level reports zero or DENSE.
//
// Conditioned on success the output is *exactly* uniform on the support
// (zero relative error): I_k is an exchangeable random subset, so given
// |I_k cap supp(x)| = c every c-subset is equally likely.
//
// Randomness: all membership bits and the final uniform choice are read
// from a RandomSource. The default is a seeded random oracle; passing
// use_nisan = true reads them from Nisan's PRG instead (O(log^2 n) true
// random bits), which is the derandomization step of Theorem 2.
//
// Space: (log n + 1) levels x O(s log n) recovery bits = O(log^2 n) for
// constant delta, plus the O(log^2 n)-bit PRG seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/sampler.h"
#include "src/prg/random_source.h"
#include "src/recovery/sparse_recovery.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace lps::core {

struct L0SamplerParams {
  uint64_t n = 0;
  double delta = 0.25;  ///< failure probability target
  uint64_t s = 0;       ///< sparsity per level; 0 => ceil(4 log2(1/delta))
  uint64_t seed = 0;
  bool use_nisan = false;  ///< Theorem 2's PRG derandomization
};

class L0Sampler : public LinearSketch {
 public:
  explicit L0Sampler(L0SamplerParams params);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion, a chunk at a time and level-major within it: each
  /// level filters the chunk through its membership test into this
  /// thread's survivor buffer, then feeds the whole buffer to its sparse
  /// recovery's interleaved batch kernel while that level's measurements
  /// are hot. State is identical to per-update processing (field
  /// arithmetic is exact).
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// A uniform non-zero coordinate and its exact value, or Status::Failed.
  Result<SampleResult> Sample() const;

  /// As Sample, but also reports the level that produced the sample.
  Result<SampleResult> SampleWithLevel(int* level_out) const;

  uint64_t s() const { return s_; }
  int levels() const { return static_cast<int>(levels_.size()); }

  /// Paper-model space: recovery measurements plus the randomness-source
  /// seed (64 bits for the oracle model, O(log^2 n) for Nisan mode).
  size_t SpaceBits() const override;

  // LinearSketch contract: parameters, counters (the levels'
  // measurements, which the one-round universal relation protocol of
  // Proposition 5 sends), space.
  void Counters(CounterList* list) override {
    for (auto& level : levels_) level.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  SketchKind kind() const override { return SketchKind::kL0Sampler; }

 private:
  bool InLevel(int k, uint64_t i) const;

  L0SamplerParams params_;  // with s resolved into params_.s
  uint64_t n_;
  uint64_t s_;
  std::unique_ptr<prg::RandomSource> source_;
  std::vector<recovery::SparseRecovery> levels_;  // levels_[k] sketches I_k
  std::vector<double> rates_;  // rates_[k]: the chance that i is in I_k
};

}  // namespace lps::core
