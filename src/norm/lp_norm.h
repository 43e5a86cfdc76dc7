// Constant-factor Lp norm estimation (Lemma 2 / [17]): a streaming
// algorithm based on a random linear map L with O(log n) rows whose output
// r satisfies ||x||_p <= r <= 2 ||x||_p with high probability.
//
// Implementation: Indyk's p-stable median sketch (sketch/stable_sketch.h)
// with the median inflated by sqrt(2), centering the 2-approximation window
// [||x||_p, 2||x||_p] on the estimator. The failure probability decays as
// exp(-Theta(rows)); rows = Theta(log n) gives the paper's high-probability
// guarantee, and claim C10's bench measures the coverage-vs-rows curve.
#pragma once

#include <cstdint>

#include "src/sketch/stable_sketch.h"
#include "src/stream/linear_sketch.h"

namespace lps::norm {

class LpNormEstimator : public LinearSketch {
 public:
  /// rows = Theta(log n); see DefaultRows.
  LpNormEstimator(double p, int rows, uint64_t seed);

  void Update(uint64_t i, double delta);

  /// Batched ingestion (delegates to the underlying stable sketch).
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// r with ||x||_p <= r <= 2 ||x||_p w.h.p.
  double Estimate2Approx() const;

  /// The raw (uninflated) median estimate, approximately ||x||_p.
  double EstimateRaw() const { return sketch_.EstimateNorm(); }

  /// Enough rows for ~97%+ coverage of the [N, 2N] window at typical n;
  /// grows logarithmically as the paper requires.
  static int DefaultRows(uint64_t n);

  // LinearSketch contract: the underlying stable sketch's prefix (its own
  // header and parameters) and counters, under this estimator's header.
  void Counters(CounterList* list) override { sketch_.Counters(list); }
  void WriteParams(BitWriter* writer) const override {
    sketch_.WritePrefix(writer);
  }
  void ReadParams(BitReader* reader) override { sketch_.ReadPrefix(reader); }
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kLpNormEstimator; }

  size_t SpaceBits(int bits_per_counter) const {
    return sketch_.SpaceBits(bits_per_counter);
  }
  int rows() const { return sketch_.rows(); }

  /// The underlying linear sketch.
  const sketch::StableSketch& sketch() const { return sketch_; }

 private:
  sketch::StableSketch sketch_;
};

}  // namespace lps::norm
