// Sampler-as-black-box application (Section 1 / [23]): estimating the
// frequency moment F_p = ||x||_p^p for p > 2, where linear sketching alone
// needs polynomial space but Lp-sampling gives the classical
// sample-and-reweight estimator:
//
//   draw i ~ L2 distribution (probability |x_i|^2 / F_2),
//   output  F_2 * |x_i|^{p-2},
//
// which is unbiased for F_p: E = sum_i (x_i^2/F_2) F_2 |x_i|^{p-2} = F_p.
// Variance is bounded by F_2 F_{2p-2} / F_p^2 * F_p^2 ... <= n^{1-2/p} after
// standard calculations, so averaging over many samples concentrates.
//
// Our L2-style sampler covers p in (0,2); we instantiate it at p = 1.9
// (close to L2) and correct the sampling weights by importance reweighting
// with the sampler's own x_i estimates:
//
//   i ~ |x_i|^q / ||x||_q^q  (q = 1.9),
//   estimate = ||x||_q^q * |x_i|^{p-q} ... using the sampler's x_i estimate
//
// — also unbiased for F_p up to the sampler's O(eps) distribution error,
// demonstrating the black-box reduction the paper's introduction motivates.
#pragma once

#include <cstdint>

#include "src/core/lp_sampler.h"
#include "src/norm/lp_norm.h"
#include "src/stream/linear_sketch.h"
#include "src/util/status.h"

namespace lps::apps {

/// One-shot F_p estimator for p > 2 built from `samples` independent
/// Lq samplers (q just below 2) plus one Lq norm estimator.
class MomentEstimator : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    double p = 3.0;      ///< target moment, p > 2
    int samples = 64;    ///< independent sampler instances to average
    double q = 1.9;      ///< inner sampling exponent, in (1, 2)
    uint64_t seed = 0;
  };

  explicit MomentEstimator(Params params);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, int64_t delta);

  /// Batched ingestion: the norm sketch and every sampler consume the
  /// batch through their own fast paths.
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Estimate of F_p = ||x||_p^p, or Failed if no sampler produced output.
  Result<double> Estimate() const;

  // LinearSketch contract: parameters, counters (the norm sketch, then
  // every sampler), space.
  void Counters(CounterList* list) override {
    q_norm_.Counters(list);
    for (auto& sampler : samplers_) sampler.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kMomentEstimator; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  Params params_;
  norm::LpNormEstimator q_norm_;
  std::vector<core::LpSampler> samplers_;
};

}  // namespace lps::apps
