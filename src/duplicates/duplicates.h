// Finding duplicates in data streams (Section 3).
//
// All three algorithms view the letter stream over alphabet [n] through the
// reduction of Theorem 3: x_i = (#occurrences of i) - 1, materialized by
// updates (i, -1) for every i followed by (letter, +1) per stream item.
//
// The sketch of that all-(-1) vector — the *init sketch* — depends only on
// the parameters and seed, so it is built once per parameter set (and
// kernel backend) and shared, immutable, by every live finder with those
// parameters. Construction and Reset are zeroed counters plus init;
// MergeSigned folds sign x other, then -sign x init (Merge is add(other)
// minus init, MergeNegated subtract(other) plus init) — each O(state),
// never O(n). Like the hash coefficients, the init sketch
// is derived from the seed, so SpaceBits does not count it.
//
//   - DuplicateFinder (Theorem 3): stream length n+1. sum_i x_i = 1, so a
//     perfect L1 sample is positive with probability > 1/2; an L1 sampler
//     round with constant relative error that returns a positive estimate
//     exposes a duplicate. O(log^2 n log(1/delta)) bits.
//   - SparseDuplicateFinder (Theorem 4): stream length n-s. Runs an exact
//     5s-sparse recovery in parallel with the sampler; if recovery
//     succeeds the answer is exact (in particular NO-DUPLICATE is certified
//     with probability 1), otherwise ||x||_1^+ > 2s and the sampler path
//     fires. O(s log n + log^2 n log(1/delta)) bits.
//   - OversampledDuplicateFinder (Section 3, length n+s): samples
//     4*ceil(n/s) uniform stream positions and watches for re-appearances
//     when n/s < log2 n (space (n/s) log n), otherwise delegates to
//     Theorem 3 (space log^2 n) — O(min{log^2 n, (n/s) log n}) bits.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/recovery/sparse_recovery.h"
#include "src/stream/linear_sketch.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps::duplicates {

/// Theorem 3. The alphabet is [0, n); the stream should have length >= n+1
/// (more precisely: any length making sum_i x_i > 0 biases the sampler
/// toward duplicates; see also PositiveFinder for the general form).
class DuplicateFinder : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    double delta = 0.25;   ///< FAIL probability target
    int repetitions = 0;   ///< underlying L1 sampler rounds; 0 => auto
    uint64_t seed = 0;
  };

  explicit DuplicateFinder(Params params);

  /// Processes one stream letter.
  void ProcessItem(uint64_t letter) { sampler_.Update(letter, +1); }

  /// Raw vector-level ingestion (the reduction's x view); letters are
  /// (letter, +1) updates on top of the built-in (i, -1) initialization.
  void UpdateBatch(const stream::Update* updates, size_t count) override {
    sampler_.UpdateBatch(updates, count);
  }

  /// A letter that appears at least twice, or Status::Failed. Wrong answers
  /// have low probability (the sampled estimate would need the wrong sign).
  Result<uint64_t> Find() const;

  /// The sampler's counters; the shared init sketch is seed-derived state
  /// (like the hash coefficients) and is not counted.
  size_t SpaceBits(int bits_per_counter) const {
    return sampler_.SpaceBits(bits_per_counter);
  }

  // LinearSketch contract. The counters are the sampler's; sending them
  // is the memory-content transfer of Theorem 7's reduction (Alice
  // serializes after her half of the stream, Bob, constructed with the
  // same params, deserializes and continues feeding items). Both replicas
  // hold the (i, -1) initialization, so MergeSigned folds sign x the
  // replica's state and then -sign x the shared init sketch: a merge
  // holds exactly init + lettersA + lettersB (up to floating-point
  // reassociation in the scaled counters), a subtraction init + lettersA
  // - lettersB. Reset is zeroed counters plus init. Deserialize stays
  // O(state): it fetches the init sketch only when a later MergeSigned or
  // Reset first needs it.
  void Counters(CounterList* list) override { sampler_.Counters(list); }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  void MergeSigned(const LinearSketch& other, int sign) override;
  void Reset() override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override { return SketchKind::kDuplicateFinder; }

 private:
  /// The shared init sketch, fetched on first use after Deserialize.
  const core::LpSampler& Init();

  Params params_;
  core::LpSampler sampler_;
  std::shared_ptr<const core::LpSampler> init_;  // null until needed
};

/// Theorem 4: stream of length n - s.
class SparseDuplicateFinder : public LinearSketch {
 public:
  struct Params {
    uint64_t n = 0;
    uint64_t s = 0;       ///< n minus the stream length
    double delta = 0.25;
    int repetitions = 0;
    uint64_t seed = 0;
  };

  enum class Kind { kDuplicate, kNoDuplicate, kFail };
  struct Outcome {
    Kind kind;
    uint64_t duplicate = 0;  ///< valid when kind == kDuplicate
    bool exact = false;      ///< true when decided by sparse recovery
  };

  explicit SparseDuplicateFinder(Params params);

  void ProcessItem(uint64_t letter);

  /// Raw vector-level ingestion (both the recovery and the sampler).
  void UpdateBatch(const stream::Update* updates, size_t count) override;

  Outcome Find() const;

  /// Recovery plus sampler counters; the init sketches are not counted.
  size_t SpaceBits(int bits_per_counter) const;

  /// The two halves, read-only.
  const recovery::SparseRecovery& recovery() const { return recovery_; }
  const core::LpSampler& sampler() const { return sampler_; }

  // LinearSketch contract; MergeSigned, Reset and Deserialize
  // handle the shared init sketch exactly as in DuplicateFinder, with a
  // field-exact SparseRecovery half next to the sampler half.
  void Counters(CounterList* list) override {
    recovery_.Counters(list);
    sampler_.Counters(list);
  }
  void WriteParams(BitWriter* writer) const override;
  void ReadParams(BitReader* reader) override;
  void MergeSigned(const LinearSketch& other, int sign) override;
  void Reset() override;
  size_t SpaceBits() const override { return SpaceBits(64); }
  SketchKind kind() const override {
    return SketchKind::kSparseDuplicateFinder;
  }

 private:
  /// The shared init sketches, fetched on first use after Deserialize.
  const recovery::SparseRecovery& RecoveryInit();
  const core::LpSampler& SamplerInit();

  Params params_;
  recovery::SparseRecovery recovery_;
  core::LpSampler sampler_;
  std::shared_ptr<const recovery::SparseRecovery> recovery_init_;
  std::shared_ptr<const core::LpSampler> sampler_init_;
};

/// Section 3, stream length n + s (s >= 1): strategy auto-selection between
/// position sampling and Theorem 3 at the n/s = log2 n crossover.
class OversampledDuplicateFinder {
 public:
  struct Params {
    uint64_t n = 0;
    uint64_t s = 1;        ///< stream length is n + s
    double delta = 0.25;
    int repetitions = 0;   ///< only used by the Theorem 3 strategy
    uint64_t seed = 0;
    /// Force a strategy for ablation benches: 0 = auto, 1 = sampling,
    /// 2 = Theorem 3.
    int force_strategy = 0;
  };

  enum class Strategy { kPositionSampling, kL1Sampler };

  explicit OversampledDuplicateFinder(Params params);

  void ProcessItem(uint64_t letter);

  Result<uint64_t> Find() const;

  Strategy strategy() const { return strategy_; }
  size_t SpaceBits(int bits_per_counter = 64) const;

 private:
  uint64_t n_;
  Strategy strategy_;
  // Position-sampling state.
  std::vector<uint64_t> positions_;  // sorted sampled positions
  size_t next_position_ = 0;
  uint64_t clock_ = 0;
  std::unordered_map<uint64_t, int> watched_;
  Result<uint64_t> found_ = Status::Failed("no duplicate seen");
  // Theorem 3 state.
  std::unique_ptr<DuplicateFinder> finder_;
};

}  // namespace lps::duplicates
