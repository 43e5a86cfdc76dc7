// Baseline: an Andoni-Krauthgamer-Onak-flavored precision-sampling Lp
// sampler [1], the algorithm the paper improves on.
//
// AKO's sampler differs from Figure 1 in two ways that cost a log factor:
// the scaling factors are only pairwise independent, and the count-sketch
// is sized Theta(eps^{-p} log n) — their analysis only guarantees the
// maximum of z carries an Omega(1/log n) fraction of ||z||, so the sketch
// must be a log factor wider to isolate it. Total space
// O(eps^{-p} log^3 n) bits versus the paper's O(eps^{-max(1,p)} log^2 n).
//
// We reproduce exactly those two structural choices on top of the shared
// precision-sampling machinery (recovery logic is shared; the comparison
// in claim C2 is about the space *shape*, which these choices determine).
#pragma once

#include "src/core/lp_sampler.h"

namespace lps::core {

class AkoSampler : public LinearSketch {
 public:
  /// Accepts the same parameters as LpSampler; k and m are overridden with
  /// AKO's choices (pairwise independence, m = Theta(eps^{-p} log n)).
  explicit AkoSampler(LpSamplerParams params);

  void Update(uint64_t i, double delta) { inner_.Update(i, delta); }
  void UpdateBatch(const stream::Update* updates, size_t count) override {
    inner_.UpdateBatch(updates, count);
  }
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count) {
    inner_.UpdateBatch(updates, count);
  }
  Result<SampleResult> Sample() const { return inner_.Sample(); }

  // LinearSketch contract: the inner sampler's prefix (its own header and
  // parameters) and counters, under this baseline's header.
  void Counters(CounterList* list) override { inner_.Counters(list); }
  void WriteParams(BitWriter* writer) const override {
    inner_.WritePrefix(writer);
  }
  void ReadParams(BitReader* reader) override { inner_.ReadPrefix(reader); }
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kAkoSampler; }

  size_t SpaceBits(int bits_per_counter) const {
    return inner_.SpaceBits(bits_per_counter);
  }
  /// The query engine's dyadic share of SpaceBits (see LpSampler) — the C2
  /// space-shape comparison subtracts it from both sides.
  size_t DyadicSpaceBits(int bits_per_counter = 64) const {
    return inner_.DyadicSpaceBits(bits_per_counter);
  }
  const LpSamplerParams& params() const { return inner_.params(); }

 private:
  static LpSamplerParams AkoResolve(LpSamplerParams params);
  LpSampler inner_;
};

}  // namespace lps::core
