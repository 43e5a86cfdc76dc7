// The paper's Lp sampler for p in (0, 2): Figure 1, Lemmas 3-4, Theorem 1.
//
// One *round* is exactly the algorithm of Figure 1:
//
//   Initialization:
//     k-wise independent scaling factors t_i in (0, 1]
//       (k = 10 ceil(1/|p-1|), or O(log 1/eps) for p = 1);
//     count-sketch with parameter m (6m buckets x l = O(log n) rows)
//       for the scaled vector z_i = x_i / t_i^{1/p};
//     linear sketches for ||x||_p (Lemma 2) and ||z - zhat||_2.
//   Processing: every update (i, u) feeds the count-sketch with
//     (i, u / t_i^{1/p}) and the norm sketches.
//   Recovery:
//     z* = count-sketch estimates, zhat = best m-sparse approximation;
//     r in [||x||_p, 2||x||_p]; s in [||z - zhat||_2, 2||z - zhat||_2];
//     i = argmax |z*_i|;
//     FAIL if s > beta m^{1/2} r or |z*_i| < eps^{-1/p} r, where
//     beta = eps^{1 - 1/p}; else output i and x_i ~= z*_i t_i^{1/p}.
//
// A round succeeds with probability Theta(eps) and, conditioned on success,
// outputs i with probability (1 +- O(eps)) |x_i|^p / ||x||_p^p (Lemma 4).
// The full sampler runs v = O(log(1/delta)/eps) rounds in parallel and
// returns the first non-failing output (Theorem 1), sharing a single
// ||x||_p estimator across rounds (the estimate depends only on x).
//
// Space: O(eps^{-max(1,p)} log^2 n log(1/delta)) bits for p != 1 and an
// extra log(1/eps) for p = 1, under the paper's counter model
// (SpaceBits(bits_per_counter)).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/core/sampler.h"
#include "src/hash/kwise.h"
#include "src/norm/lp_norm.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace lps::core {

struct LpSamplerParams {
  uint64_t n = 0;       ///< universe size (required)
  double p = 1.0;       ///< in (0, 2)
  double eps = 0.5;     ///< relative error target, in (0, 1)
  double delta = 0.25;  ///< overall failure probability target

  /// 0 means "derive from the paper's formulas with calibrated constants":
  int repetitions = 0;  ///< v = O(log(1/delta)/eps)
  int cs_rows = 0;      ///< l = O(log n)
  int m = 0;            ///< count-sketch parameter (Figure 1 step 1/2)
  int k = 0;            ///< independence of the scaling factors
  int norm_rows = 0;    ///< rows of the Lemma 2 estimator
  /// Rows of the per-round dyadic candidate generator (the query engine's
  /// O(m log n) replacement for the full-universe recovery scan); 0 picks
  /// a small constant — candidates only need to *contain* the heavy
  /// coordinates, the flat count-sketch does the accurate ranking. The
  /// generator keeps the levels its beam descent reads, 0..max(0,
  /// log n - 6): 15 levels of 6m buckets per round at n = 2^20.
  int dyadic_rows = 0;

  uint64_t seed = 0;

  /// Experiment hook for Lemma 3 (claim C4): if override_index >= 0, the
  /// scaling factor of that coordinate is pinned to override_t in every
  /// round, reproducing the lemma's conditioning on t_i = t.
  int64_t override_index = -1;
  double override_t = 0.0;
};

/// A single round of Figure 1. Exposed publicly because the distribution
/// experiments measure the *conditional* output law of one round, and the
/// Lemma 3 experiment pins scaling factors round-by-round.
class LpSamplerRound {
 public:
  LpSamplerRound(const LpSamplerParams& params, int round_index);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion: scaling factors t_i are drawn and applied for the
  /// whole batch, then the count-sketch ingests the scaled batch through
  /// its own fast path. Bit-identical to per-update processing. Its batch
  /// scratch is per thread, so rounds may ingest on several threads at once.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);

  /// Runs the recovery stage of Figure 1 against a norm estimate r
  /// (Lemma 2 output, supplied by the owning sampler). Sub-linear: the
  /// co-updated dyadic tree yields O(m log n) candidates, the flat
  /// count-sketch point-estimates only those — no universe scan.
  /// NOTE: logically const but NOT safe to call concurrently on the same
  /// round — it fills the cached recovery snapshot and the residual
  /// estimate temporarily subtracts from the count-sketch table in place
  /// (exactly restored before returning). Same caveat for
  /// WouldAbortOnTail, RecoverReference, and the owning Sample().
  Result<SampleResult> Recover(double r) const;

  /// Reference-oracle recovery: identical decision logic driven by the
  /// O(n * rows) full-universe TopM scan. Kept ONLY so tests and benches
  /// can assert/measure the candidate engine against the exhaustive
  /// answer; no production path calls it.
  Result<SampleResult> RecoverReference(double r) const;

  /// The scaling factor t_i used by this round.
  double ScalingFactor(uint64_t i) const;

  /// Abort diagnostics for the Lemma 3 experiment: returns true iff the
  /// round would abort with s > beta m^{1/2} r. Shares the cached
  /// candidate computation with Recover — calling both costs one TopM +
  /// one residual estimate, not two.
  bool WouldAbortOnTail(double r) const;

  size_t SpaceBits(int bits_per_counter = 64) const;

  /// The candidate generator's share of SpaceBits, reported separately so
  /// the paper-exact accounting of the Figure 1 structures stays visible.
  size_t DyadicSpaceBits(int bits_per_counter = 64) const;

  /// The round's counters: the flat count-sketch, then the dyadic
  /// candidate levels — part of the round's memory, since the receiving
  /// party needs them to keep streaming and to recover sub-linearly.
  /// Listing them for writing drops the cached recovery snapshot.
  void Counters(CounterList* list) {
    if (list->writes()) snapshot_.reset();
    cs_.Counters(list);
    dyadic_.Counters(list);
  }

  int m() const { return m_; }
  double beta() const { return beta_; }

 private:
  /// One recovery's shared intermediates: the m-sparse approximation and
  /// the (inflated) residual estimate s. Computed once per sketch state
  /// and cached; every ingest/merge/reset invalidates.
  struct RecoverySnapshot {
    std::vector<std::pair<uint64_t, double>> zhat;
    double s = 0;
  };
  const RecoverySnapshot& Snapshot() const;
  Result<SampleResult> Decide(const RecoverySnapshot& snap, double r) const;

  uint64_t n_;
  double p_;
  double eps_;
  int m_;
  double beta_;
  int64_t override_index_;
  double override_t_;
  hash::KWiseHash t_hash_;
  sketch::CountSketch cs_;
  sketch::DyadicCountSketch dyadic_;  // candidate generator
  mutable std::optional<RecoverySnapshot> snapshot_;  // query cache
};

class LpSampler : public LinearSketch {
 public:
  explicit LpSampler(LpSamplerParams params);

  /// Processes one stream update (i, u); delegates to the batch path.
  void Update(uint64_t i, double delta);

  /// Processes a batch of updates in fixed-size chunks: the shared norm
  /// sketch and every round consume each chunk through their own fast
  /// paths, so batch scratch stays bounded by the chunk, not the batch.
  /// Every round lands where per-update ingestion puts it. So does the
  /// norm sketch, except at p = 1 on a SIMD backend, whose Cauchy rows sum
  /// each chunk quad by quad with a scalar tail: there its counters depend
  /// on where chunks start, and agree with the per-update path only to
  /// rounding (query-equivalent).
  void UpdateBatch(const stream::Update* updates, size_t count) override;
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);

  /// Writes the stream's updates at positions [start, start + length) to
  /// `out`. FeedGenerated calls it from several threads at once, and for
  /// each position once per part, so it must be a pure function.
  using UpdateSource = std::function<void(uint64_t start, size_t length,
                                          stream::ScaledUpdate* out)>;

  /// Bulk feed: the state UpdateBatch reaches over the `count` updates
  /// `source` generates, bit for bit, built on every CPU the caller may
  /// run on. The norm sketch and each round are separate linear maps, so
  /// each of these parts walks the whole stream on one thread, in the
  /// chunks UpdateBatch makes from position 0. The caller and one helper
  /// per other CPU in its affinity mask (no more helpers than parts
  /// beyond the caller's), each pinned to its CPU, take parts from one
  /// counter; with one allowed CPU the caller feeds every part. Returns
  /// once every helper is joined. CHECKs every index against n.
  void FeedGenerated(uint64_t count, const UpdateSource& source);

  /// Theorem 1: the first non-failing round's output, or Status::Failed.
  /// Logically const but NOT safe to call concurrently on the same object
  /// (per-round snapshot caching + in-place residual estimation; see
  /// LpSamplerRound::Recover). Concurrent deployments query disjoint
  /// replicas — one per shard — or serialize queries.
  Result<SampleResult> Sample() const;

  /// The shared Lemma 2 estimate r (exposed for experiments).
  double NormEstimate() const;

  int repetitions() const { return static_cast<int>(rounds_.size()); }
  const LpSamplerRound& round(int i) const {
    return rounds_[static_cast<size_t>(i)];
  }
  const LpSamplerParams& params() const { return params_; }

  /// Total space under the paper's counter model, including the dyadic
  /// candidate generators.
  size_t SpaceBits(int bits_per_counter) const;

  /// The dyadic candidate generators' share of SpaceBits — the query
  /// engine's overhead on top of the paper-exact Figure 1 accounting.
  size_t DyadicSpaceBits(int bits_per_counter = 64) const;

  // LinearSketch contract: parameters, counters (the norm sketch, then
  // every round: what SerializeCounters sends so another party holding
  // the same seeds can continue the stream — the "send the memory
  // contents" step of the reductions in Section 4), space.
  void Counters(CounterList* list) override;
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kLpSampler; }

  /// The derived parameters actually in use (after 0 -> auto resolution).
  static LpSamplerParams Resolve(LpSamplerParams params);

 private:
  LpSamplerParams params_;  // resolved
  norm::LpNormEstimator norm_;
  std::vector<LpSamplerRound> rounds_;
};

}  // namespace lps::core
