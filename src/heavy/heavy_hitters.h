// Heavy hitters in update streams (Section 4.4).
//
// A heavy hitters algorithm with parameters p > 0 and phi > 0 must output a
// set S containing every i with |x_i| >= phi ||x||_p and no i with
// |x_i| <= (phi/2) ||x||_p (a "valid heavy hitter set").
//
// Upper bounds implemented (all matched by the paper's Theorem 9 lower
// bound of Omega(phi^-p log^2 n)):
//   - CsHeavyHitters: the paper's observation that count-sketch with
//     m = Theta(phi^-p) works for every p in (0, 2], because the point
//     error d = Err_2^m(x)/sqrt(m) obeys d <= ||x||_p / m^{1/p}
//     (the chain of inequalities proved in Section 4.4). Space
//     O(phi^-p log^2 n).
//   - CmHeavyHitters: count-min in the strict turnstile model for p = 1
//     (the count-median variant of [8] handles general updates), where
//     ||x||_1 = sum of all deltas is known exactly.
//   - DyadicHeavyHitters: the engineering variant with O(#heavy log n)
//     query time (strict turnstile, p = 1), built on DyadicCountMin.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/norm/lp_norm.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/stream/exact_vector.h"
#include "src/stream/linear_sketch.h"
#include "src/util/serialize.h"

namespace lps::heavy {

class CsHeavyHitters : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    double p = 1.0;       ///< in (0, 2]
    double phi = 0.1;     ///< heaviness threshold
    int rows = 0;         ///< 0 => Theta(log n)
    /// Rows of the (1 +- 0.1) norm estimator for p not in {2} and
    /// non-strict streams; 0 => 1200, because a median estimator's
    /// relative error shrinks only as 1/sqrt(rows), so a tight one is
    /// costly. Ignored when an exact/cheap norm is available.
    int norm_rows = 0;
    /// Strict turnstile promise: for p == 1 the norm is then the exact
    /// running sum instead of a sketch.
    bool strict_turnstile = false;
    /// Rows of the co-updated dyadic candidate generator behind the
    /// sub-linear Query; 0 picks a small constant (candidates are verified
    /// in the flat count-sketch, so the tree only has to *find* them).
    int dyadic_rows = 0;
    uint64_t seed = 0;
  };

  explicit CsHeavyHitters(Params params);

  /// Single-update path; delegates to UpdateBatch with a batch of one.
  void Update(uint64_t i, double delta);

  /// Batched ingestion through the count-sketch and norm fast paths.
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// A valid heavy hitter set w.h.p., sorted ascending. Sub-linear: the
  /// dyadic tree descends to O(#heavy log n) candidate leaves and only
  /// those are point-estimated in the count-sketch — no universe scan.
  /// NOTE: for p == 2 the norm estimate runs through the count-sketch's
  /// in-place residual estimator (exactly restored), so Query is
  /// logically const but not safe to call concurrently on one object.
  std::vector<uint64_t> Query() const;

  /// Reference oracle: the full-universe O(n * rows) scan Query replaced.
  /// Kept ONLY so tests and benches can check/measure the candidate
  /// engine against the exhaustive answer.
  std::vector<uint64_t> QueryOracle() const;

  /// The norm estimate used by Query (exposed for tests).
  double NormEstimate() const;

  /// Total space including the candidate generator; DyadicSpaceBits is
  /// the generator's share, reported separately so the Section 4.4
  /// paper-exact accounting stays visible.
  size_t SpaceBits(int bits_per_counter) const;
  size_t DyadicSpaceBits(int bits_per_counter = 64) const;

  // LinearSketch contract: parameters, counters (what the Theorem 9
  // reduction transfers), space.
  void Counters(CounterList* list) override;
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kCsHeavyHitters; }

  int m() const { return m_; }

 private:
  Params params_;
  int m_;
  sketch::CountSketch cs_;
  sketch::DyadicCountSketch dyadic_;             // candidate generator
  std::unique_ptr<norm::LpNormEstimator> norm_;  // null if exact L1 is used
  double running_sum_ = 0;                       // strict turnstile L1
  std::vector<stream::ScaledUpdate> scaled_;     // batch scratch
};

class CmHeavyHitters : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    double phi = 0.1;
    int rows = 0;  ///< 0 => Theta(log n)
    uint64_t seed = 0;
    bool use_median = false;  ///< count-median (general updates) variant
  };

  explicit CmHeavyHitters(Params params);

  void Update(uint64_t i, double delta);
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  /// Sub-linear: candidates come from a co-updated DyadicCountMin descent
  /// and are verified against the flat count-min, so the answer matches
  /// the old universe scan in the strict turnstile model (block sums
  /// upper-bound leaf sums; the median variant inherits the same
  /// strict-turnstile assumption for its candidate descent).
  std::vector<uint64_t> Query() const;

  /// Reference oracle: the old full-universe scan, kept for tests/benches.
  std::vector<uint64_t> QueryOracle() const;

  // LinearSketch contract: parameters, counters, space.
  void Counters(CounterList* list) override {
    cm_.Counters(list);
    tree_.Counters(list);
    list->Real(&running_sum_, 1);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kCmHeavyHitters; }

  size_t SpaceBits(int bits_per_counter) const;
  size_t DyadicSpaceBits(int bits_per_counter = 64) const;

 private:
  Params params_;
  sketch::CountMin cm_;
  sketch::DyadicCountMin tree_;  // candidate generator
  double running_sum_ = 0;
};

class DyadicHeavyHitters : public LinearSketch {
 public:
  DyadicHeavyHitters(int log_n, double phi, uint64_t seed);

  void Update(uint64_t i, double delta);
  void UpdateBatch(const stream::ScaledUpdate* updates, size_t count);
  void UpdateBatch(const stream::Update* updates, size_t count) override;
  std::vector<uint64_t> Query() const;

  // LinearSketch contract: parameters (the tree's shape derives from them,
  // so only its counters travel), counters, space.
  void Counters(CounterList* list) override {
    tree_.Counters(list);
    list->Real(&running_sum_, 1);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kDyadicHeavyHitters; }

  size_t SpaceBits(int bits_per_counter) const;

 private:
  int log_n_;
  double phi_;
  uint64_t seed_;
  sketch::DyadicCountMin tree_;
  double running_sum_ = 0;
};

/// Checks S against the Section 4.4 definition on the exact vector.
struct HeavyValidation {
  bool valid = true;
  int missing_heavy = 0;    ///< heavy coordinates absent from S
  int included_light = 0;   ///< <= phi/2 coordinates present in S
};
HeavyValidation ValidateHeavySet(const stream::ExactVector& x, double p,
                                 double phi, const std::vector<uint64_t>& set);

}  // namespace lps::heavy
