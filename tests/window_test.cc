// Sketch subtraction and sliding windows.
//
// Part 1 — MergeNegated algebra, for every LinearSketch implementer:
// (A + B) - B == A. For the exact-arithmetic families (GF(2^61-1)
// fingerprints/syndromes, integer-valued double counters) the identity
// must hold BIT-IDENTICALLY on the serialized state, including when the
// subtrahend or the result round-trips through Serialize/Deserialize.
// For the genuinely real-scaled families ((A + B) - B re-rounds, so
// state agrees only to ULPs) the query/sample outcomes must agree.
//
// Part 2 — WindowManager: a checkpoint ring over prefix sketches makes
// WindowSketch(w) = S(now) - S(expired) materialize any trailing window
// in O(sketch size). For exact structures the materialized window is
// bit-identical to a sketch fed only the window's updates, across
// checkpoint intervals {1, 64, 4096}, through pipeline epoch alignment,
// and under ring eviction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/moment_estimation.h"
#include "src/core/ako_sampler.h"
#include "src/core/fis_l0_sampler.h"
#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/duplicates/positive_finder.h"
#include "src/heavy/heavy_hitters.h"
#include "src/norm/l0_norm.h"
#include "src/norm/lp_norm.h"
#include "src/recovery/one_sparse.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/window_manager.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

using stream::ParallelPipeline;
using stream::UpdateStream;
using stream::WindowManager;

constexpr uint64_t kN = 2048;
constexpr int kLogN = 11;

struct SerializedState {
  std::vector<uint64_t> words;
  size_t bits;
  bool operator==(const SerializedState& other) const {
    return bits == other.bits && words == other.words;
  }
};

SerializedState StateOf(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

/// Serialize -> fresh instance -> Deserialize; the canonical state copy.
std::unique_ptr<LinearSketch> RoundTrip(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  BitReader reader(writer);
  auto copy = DeserializeAnySketch(&reader);
  EXPECT_NE(copy, nullptr);
  return copy;
}

UpdateStream PrefixStream() {
  return stream::UniformTurnstile(kN, 3000, 100, 51);
}

UpdateStream SuffixStream() {
  return stream::UniformTurnstile(kN, 2000, 100, 52);
}

/// The exact-family property: (A + B) - B == A bit-identically, with and
/// without serialize round-trips on the subtrahend and the difference.
template <typename T, typename MakeFn>
void ExpectSubtractionBitIdentical(MakeFn make, const UpdateStream& s1,
                                   const UpdateStream& s2) {
  T a = make();
  a.UpdateBatch(s1.data(), s1.size());
  const SerializedState want = StateOf(a);

  T b = make();
  b.UpdateBatch(s2.data(), s2.size());

  // Live subtrahend.
  T ab = make();
  ab.UpdateBatch(s1.data(), s1.size());
  ab.UpdateBatch(s2.data(), s2.size());
  ab.MergeNegated(b);
  EXPECT_TRUE(StateOf(ab) == want) << "live subtrahend";

  // The difference round-trips through the wire format.
  auto reloaded = RoundTrip(ab);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_TRUE(StateOf(*reloaded) == want) << "difference round-trip";

  // Deserialized subtrahend (the WindowManager path: checkpoints are
  // serialized prefixes).
  T ab2 = make();
  ab2.UpdateBatch(s1.data(), s1.size());
  ab2.UpdateBatch(s2.data(), s2.size());
  auto b_reloaded = RoundTrip(b);
  ASSERT_NE(b_reloaded, nullptr);
  ab2.MergeNegated(*b_reloaded);
  EXPECT_TRUE(StateOf(ab2) == want) << "deserialized subtrahend";
}

/// The FP-family property: build (prefix + suffix) - prefix and compare
/// its queries against a sketch fed only the suffix. `query` receives
/// (windowed, solo).
template <typename T, typename MakeFn, typename QueryFn>
void ExpectSubtractionQueryIdentical(MakeFn make, QueryFn query) {
  const UpdateStream prefix = PrefixStream();
  const UpdateStream suffix = SuffixStream();
  T solo = make();
  solo.UpdateBatch(suffix.data(), suffix.size());

  T windowed = make();
  windowed.UpdateBatch(prefix.data(), prefix.size());
  windowed.UpdateBatch(suffix.data(), suffix.size());
  T expired = make();
  expired.UpdateBatch(prefix.data(), prefix.size());
  windowed.MergeNegated(expired);
  query(windowed, solo);

  // And through a serialize round-trip of the difference.
  auto reloaded = RoundTrip(windowed);
  ASSERT_NE(reloaded, nullptr);
  query(*dynamic_cast<T*>(reloaded.get()), solo);
}

// ------------------------------------------------ exact-arithmetic kinds --

TEST(SubtractionAlgebra, CountSketchBitIdentical) {
  ExpectSubtractionBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(9, 48, 61); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, CountMinBitIdentical) {
  ExpectSubtractionBitIdentical<sketch::CountMin>(
      [] { return sketch::CountMin(9, 48, 62); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, AmsF2BitIdentical) {
  ExpectSubtractionBitIdentical<sketch::AmsF2>(
      [] { return sketch::AmsF2(9, 16, 63); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, DyadicCountMinBitIdentical) {
  ExpectSubtractionBitIdentical<sketch::DyadicCountMin>(
      [] { return sketch::DyadicCountMin(kLogN, 5, 32, 64); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, DyadicCountSketchBitIdentical) {
  ExpectSubtractionBitIdentical<sketch::DyadicCountSketch>(
      [] { return sketch::DyadicCountSketch(kLogN, 5, 32, 65); },
      PrefixStream(), SuffixStream());
}

TEST(SubtractionAlgebra, L0EstimatorBitIdentical) {
  ExpectSubtractionBitIdentical<norm::L0Estimator>(
      [] { return norm::L0Estimator(kN, 9, 66); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, OneSparseBitIdentical) {
  ExpectSubtractionBitIdentical<recovery::OneSparse>(
      [] { return recovery::OneSparse(kN, 67); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, SparseRecoveryBitIdentical) {
  ExpectSubtractionBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 8, 68); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, L0SamplerBitIdentical) {
  ExpectSubtractionBitIdentical<core::L0Sampler>(
      [] {
        return core::L0Sampler(core::L0SamplerParams{kN, 0.25, 0, 69, false});
      },
      PrefixStream(), SuffixStream());
}

TEST(SubtractionAlgebra, FisL0SamplerBitIdentical) {
  ExpectSubtractionBitIdentical<core::FisL0Sampler>(
      [] { return core::FisL0Sampler(kN, 70); }, PrefixStream(),
      SuffixStream());
}

TEST(SubtractionAlgebra, CmHeavyHittersBitIdentical) {
  ExpectSubtractionBitIdentical<heavy::CmHeavyHitters>(
      [] {
        heavy::CmHeavyHitters::Params params;
        params.n = kN;
        params.phi = 0.1;
        params.seed = 71;
        return heavy::CmHeavyHitters(params);
      },
      PrefixStream(), SuffixStream());
}

TEST(SubtractionAlgebra, DyadicHeavyHittersBitIdentical) {
  ExpectSubtractionBitIdentical<heavy::DyadicHeavyHitters>(
      [] { return heavy::DyadicHeavyHitters(kLogN, 0.1, 72); },
      PrefixStream(), SuffixStream());
}

TEST(SubtractionAlgebra, CsHeavyHittersStrictTurnstileBitIdentical) {
  // Strict turnstile at p = 1: every counter is integer-valued, so even
  // this composite (count-sketch + dyadic tree + running sum) subtracts
  // bit-exactly. Positive deltas only.
  UpdateStream s1 = PrefixStream();
  UpdateStream s2 = SuffixStream();
  for (auto* s : {&s1, &s2}) {
    for (auto& u : *s) {
      if (u.delta < 0) u.delta = -u.delta;
      if (u.delta == 0) u.delta = 1;
    }
  }
  ExpectSubtractionBitIdentical<heavy::CsHeavyHitters>(
      [] {
        heavy::CsHeavyHitters::Params params;
        params.n = kN;
        params.p = 1.0;
        params.phi = 0.1;
        params.strict_turnstile = true;
        params.seed = 73;
        return heavy::CsHeavyHitters(params);
      },
      s1, s2);
}

// ---------------------------------------------------------- FP-scaled kinds --

TEST(SubtractionAlgebra, StableSketchQueryAgreement) {
  ExpectSubtractionQueryIdentical<sketch::StableSketch>(
      [] { return sketch::StableSketch(1.0, 48, 74); },
      [](const sketch::StableSketch& windowed,
         const sketch::StableSketch& solo) {
        EXPECT_NEAR(windowed.EstimateNorm(), solo.EstimateNorm(),
                    1e-6 * std::abs(solo.EstimateNorm()));
      });
}

TEST(SubtractionAlgebra, LpNormEstimatorQueryAgreement) {
  ExpectSubtractionQueryIdentical<norm::LpNormEstimator>(
      [] { return norm::LpNormEstimator(1.0, 64, 75); },
      [](const norm::LpNormEstimator& windowed,
         const norm::LpNormEstimator& solo) {
        EXPECT_NEAR(windowed.Estimate2Approx(), solo.Estimate2Approx(),
                    1e-6 * solo.Estimate2Approx());
      });
}

TEST(SubtractionAlgebra, LpSamplerSampleAgreement) {
  ExpectSubtractionQueryIdentical<core::LpSampler>(
      [] {
        core::LpSamplerParams params;
        params.n = kN;
        params.p = 1.0;
        params.eps = 0.25;
        params.repetitions = 8;
        params.seed = 76;
        return core::LpSampler(params);
      },
      [](const core::LpSampler& windowed, const core::LpSampler& solo) {
        const auto want = solo.Sample();
        const auto got = windowed.Sample();
        ASSERT_EQ(want.ok(), got.ok());
        if (want.ok()) {
          EXPECT_EQ(want.value().index, got.value().index);
          EXPECT_NEAR(want.value().estimate, got.value().estimate,
                      1e-6 * std::abs(want.value().estimate));
        }
      });
}

TEST(SubtractionAlgebra, AkoSamplerSampleAgreement) {
  ExpectSubtractionQueryIdentical<core::AkoSampler>(
      [] {
        core::LpSamplerParams params;
        params.n = kN;
        params.p = 1.0;
        params.eps = 0.5;
        params.repetitions = 4;
        params.seed = 77;
        return core::AkoSampler(params);
      },
      [](const core::AkoSampler& windowed, const core::AkoSampler& solo) {
        const auto want = solo.Sample();
        const auto got = windowed.Sample();
        ASSERT_EQ(want.ok(), got.ok());
        if (want.ok()) {
          EXPECT_EQ(want.value().index, got.value().index);
        }
      });
}

TEST(SubtractionAlgebra, CsHeavyHittersGeneralQueryAgreement) {
  ExpectSubtractionQueryIdentical<heavy::CsHeavyHitters>(
      [] {
        heavy::CsHeavyHitters::Params params;
        params.n = kN;
        params.p = 1.5;
        params.phi = 0.2;
        params.norm_rows = 96;
        params.seed = 78;
        return heavy::CsHeavyHitters(params);
      },
      [](const heavy::CsHeavyHitters& windowed,
         const heavy::CsHeavyHitters& solo) {
        EXPECT_EQ(windowed.Query(), solo.Query());
      });
}

TEST(SubtractionAlgebra, MomentEstimatorQueryAgreement) {
  ExpectSubtractionQueryIdentical<apps::MomentEstimator>(
      [] {
        apps::MomentEstimator::Params params;
        params.n = kN;
        params.p = 3.0;
        params.samples = 8;
        params.seed = 79;
        return apps::MomentEstimator(params);
      },
      [](const apps::MomentEstimator& windowed,
         const apps::MomentEstimator& solo) {
        const auto want = solo.Estimate();
        const auto got = windowed.Estimate();
        ASSERT_EQ(want.ok(), got.ok());
        if (want.ok()) {
          EXPECT_NEAR(want.value(), got.value(),
                      1e-6 * std::abs(want.value()));
        }
      });
}

TEST(SubtractionAlgebra, PositiveFinderFindAgreement) {
  ExpectSubtractionQueryIdentical<duplicates::PositiveFinder>(
      [] {
        return duplicates::PositiveFinder(
            duplicates::PositiveFinder::Params{kN, 4, 0.2, 8, 80});
      },
      [](const duplicates::PositiveFinder& windowed,
         const duplicates::PositiveFinder& solo) {
        EXPECT_EQ(windowed.Deficit(), solo.Deficit());
        const auto want = solo.Find();
        const auto got = windowed.Find();
        EXPECT_EQ(static_cast<int>(want.kind), static_cast<int>(got.kind));
        if (want.kind == duplicates::PositiveFinder::Kind::kFound) {
          EXPECT_EQ(want.index, got.index);
        }
      });
}

/// Letter streams for the duplicates finders: (letter, +1) updates.
UpdateStream LetterStream(uint64_t n, uint64_t extras, uint64_t seed) {
  UpdateStream stream;
  for (uint64_t l : stream::DuplicateStream(n, extras, seed)) {
    stream.push_back({l, +1});
  }
  return stream;
}

TEST(SubtractionAlgebra, DuplicateFinderWindowedFindAgreement) {
  // (init + P + S) - (init + P) + re-fed init == init + S: a finder that
  // saw exactly the suffix letters. Compare against that finder directly.
  const uint64_t n = 512;
  const UpdateStream prefix = LetterStream(n, 5, 81);
  const UpdateStream suffix = LetterStream(n, 7, 82);
  auto make = [n] {
    return duplicates::DuplicateFinder(
        duplicates::DuplicateFinder::Params{n, 0.2, 8, 83});
  };
  auto solo = make();
  solo.UpdateBatch(suffix.data(), suffix.size());

  auto windowed = make();
  windowed.UpdateBatch(prefix.data(), prefix.size());
  windowed.UpdateBatch(suffix.data(), suffix.size());
  auto expired = make();
  expired.UpdateBatch(prefix.data(), prefix.size());
  windowed.MergeNegated(expired);

  const auto want = solo.Find();
  const auto got = windowed.Find();
  ASSERT_EQ(want.ok(), got.ok());
  if (want.ok()) {
    EXPECT_EQ(want.value(), got.value());
  }
}

TEST(SubtractionAlgebra, SparseDuplicateFinderWindowedFindAgreement) {
  const uint64_t n = 512;
  const UpdateStream prefix = LetterStream(n, 2, 84);
  const UpdateStream suffix = LetterStream(n, 3, 85);
  auto make = [n] {
    duplicates::SparseDuplicateFinder::Params params;
    params.n = n;
    params.s = 4;
    params.delta = 0.2;
    params.repetitions = 8;
    params.seed = 86;
    return duplicates::SparseDuplicateFinder(params);
  };
  auto solo = make();
  solo.UpdateBatch(suffix.data(), suffix.size());

  auto windowed = make();
  windowed.UpdateBatch(prefix.data(), prefix.size());
  windowed.UpdateBatch(suffix.data(), suffix.size());
  auto expired = make();
  expired.UpdateBatch(prefix.data(), prefix.size());
  windowed.MergeNegated(expired);

  const auto want = solo.Find();
  const auto got = windowed.Find();
  EXPECT_EQ(static_cast<int>(want.kind), static_cast<int>(got.kind));
  if (want.kind == duplicates::SparseDuplicateFinder::Kind::kDuplicate) {
    EXPECT_EQ(want.duplicate, got.duplicate);
  }
}

// ------------------------------------------------------- window manager --

/// Feeds `stream` through a WindowManager over a `make()` sketch at the
/// given checkpoint interval, then checks that every window whose start
/// lands on a checkpoint is bit-identical to a sketch fed only the
/// window's updates — and that off-boundary requests round the start
/// DOWN (windows contain at least the last w updates).
template <typename T, typename MakeFn>
void ExpectWindowedBitIdentical(MakeFn make, const UpdateStream& stream,
                                uint64_t interval,
                                const std::vector<uint64_t>& widths) {
  T live = make();
  WindowManager::Options options;
  options.checkpoint_interval = interval;
  WindowManager wm(&live, options);
  wm.Drive(stream);
  ASSERT_EQ(wm.updates_seen(), stream.size());

  for (uint64_t w : widths) {
    const auto window = wm.WindowSketch(w);
    ASSERT_NE(window.sketch, nullptr);
    // Start rounds down to a checkpoint boundary and covers >= w updates.
    EXPECT_EQ(window.start % interval, 0u) << "w=" << w;
    EXPECT_GE(window.length, std::min<uint64_t>(w, stream.size()));
    EXPECT_EQ(window.start + window.length, stream.size());

    T solo = make();
    solo.UpdateBatch(stream.data() + window.start,
                     static_cast<size_t>(window.length));
    EXPECT_TRUE(StateOf(*window.sketch) == StateOf(solo))
        << "interval=" << interval << " w=" << w;
  }
}

TEST(WindowManagerTest, ExactWindowsAcrossCheckpointIntervals) {
  // The acceptance grid: intervals {1, 64, 4096}, exact-arithmetic kinds
  // from all three counter families (integer-double tables, GF
  // fingerprints, GF syndromes). Stream of 8192 so interval 4096 seals
  // two interior checkpoints; widths hit boundaries, off-boundary
  // values (start rounds down), zero, and the full stream.
  const auto stream = stream::UniformTurnstile(kN, 8192, 100, 90);
  const std::vector<uint64_t> widths = {0,    1,    64,   1000, 4096,
                                        5000, 8192, 9999};
  for (uint64_t interval : {uint64_t{1}, uint64_t{64}, uint64_t{4096}}) {
    ExpectWindowedBitIdentical<sketch::CountSketch>(
        [] { return sketch::CountSketch(5, 24, 91); }, stream, interval,
        widths);
  }
  // The GF families, at one representative interval each (the ring logic
  // is type-independent; the arithmetic is what differs).
  ExpectWindowedBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 8, 92); }, stream, 64,
      widths);
  ExpectWindowedBitIdentical<norm::L0Estimator>(
      [] { return norm::L0Estimator(kN, 7, 93); }, stream, 64, widths);
  ExpectWindowedBitIdentical<core::L0Sampler>(
      [] {
        return core::L0Sampler(core::L0SamplerParams{kN, 0.25, 0, 94, false});
      },
      stream, 4096, {4096, 8192});
}

TEST(WindowManagerTest, WindowZeroIsTailSinceLastCheckpoint) {
  sketch::CountSketch live(5, 24, 95);
  WindowManager::Options options;
  options.checkpoint_interval = 100;
  WindowManager wm(&live, options);
  const auto stream = stream::UniformTurnstile(kN, 1050, 100, 96);
  wm.Drive(stream);
  const auto window = wm.WindowSketch(0);
  EXPECT_EQ(window.start, 1000u);
  EXPECT_EQ(window.length, 50u);
}

TEST(WindowManagerTest, EpochAlignmentWithParallelPipeline) {
  // Checkpoints sealed at MergeShards() epochs: replica 0 holds the full
  // prefix exactly at epoch boundaries, so trailing runs of epochs
  // materialize bit-identically — for every thread count.
  const auto stream = stream::UniformTurnstile(kN, 4000, 100, 97);
  constexpr uint64_t kEpoch = 1000;
  for (int threads : {0, 2}) {
    std::vector<sketch::CountSketch> replicas;
    for (int s = 0; s < 4; ++s) replicas.emplace_back(5, 24, 98);
    std::vector<LinearSketch*> raw;
    for (auto& replica : replicas) raw.push_back(&replica);

    ParallelPipeline::Options popts;
    popts.shards = 4;
    popts.threads = threads;
    ParallelPipeline pipeline(popts);
    pipeline.Add("cs", raw);

    WindowManager::Options wopts;
    wopts.checkpoint_interval = kEpoch;  // irrelevant in epoch mode
    WindowManager wm(&replicas[0], wopts);

    for (uint64_t e = 0; e < 4; ++e) {
      pipeline.Drive(stream.data() + e * kEpoch, kEpoch);
      pipeline.MergeShards();
      wm.SealEpoch(kEpoch);
    }

    for (uint64_t w : {kEpoch, 2 * kEpoch}) {
      const auto window = wm.WindowSketch(w);
      EXPECT_EQ(window.length, w);
      sketch::CountSketch solo(5, 24, 98);
      solo.UpdateBatch(stream.data() + (stream.size() - w),
                       static_cast<size_t>(w));
      EXPECT_TRUE(StateOf(*window.sketch) == StateOf(solo))
          << "threads=" << threads << " w=" << w;
    }
  }
}

TEST(WindowManagerTest, DuplicateFinderWindowMatchesWindowLetters) {
  // Materializing a finder window subtracts a checkpoint and adds the
  // shared init sketch back: the window is a finder over exactly the
  // window's letters, with the same Find answer as one fed only those.
  const uint64_t n = 512;
  const UpdateStream letters = LetterStream(n, 400, 105);
  const duplicates::DuplicateFinder::Params params{n, 0.2, 8, 106};
  duplicates::DuplicateFinder live(params);
  WindowManager::Options options;
  options.checkpoint_interval = 128;
  WindowManager wm(&live, options);
  wm.Drive(letters);
  int found = 0;  // the comparison must not be FAIL == FAIL throughout
  for (uint64_t w : {128u, 384u, 640u}) {
    const auto window = wm.WindowSketch(w);
    ASSERT_GE(window.length, w);
    duplicates::DuplicateFinder solo(params);
    solo.UpdateBatch(letters.data() + window.start,
                     static_cast<size_t>(window.length));
    const auto want = solo.Find();
    const auto got =
        dynamic_cast<const duplicates::DuplicateFinder&>(*window.sketch)
            .Find();
    ASSERT_EQ(want.ok(), got.ok()) << "w=" << w;
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value()) << "w=" << w;
      ++found;
    }
  }
  EXPECT_GT(found, 0);
}

TEST(WindowManagerTest, SparseDuplicateFinderWindowMatchesWindowLetters) {
  // As above; the recovery half is field-exact, so it is bit-identical to
  // the solo finder's.
  const uint64_t n = 512;
  const UpdateStream letters = LetterStream(n, 400, 107);
  duplicates::SparseDuplicateFinder::Params params;
  params.n = n;
  params.s = 4;
  params.delta = 0.2;
  params.repetitions = 8;
  params.seed = 108;
  duplicates::SparseDuplicateFinder live(params);
  WindowManager::Options options;
  options.checkpoint_interval = 128;
  WindowManager wm(&live, options);
  wm.Drive(letters);
  int found = 0;
  for (uint64_t w : {128u, 384u, 640u}) {
    const auto window = wm.WindowSketch(w);
    ASSERT_GE(window.length, w);
    duplicates::SparseDuplicateFinder solo(params);
    solo.UpdateBatch(letters.data() + window.start,
                     static_cast<size_t>(window.length));
    const auto& got =
        dynamic_cast<const duplicates::SparseDuplicateFinder&>(*window.sketch);
    EXPECT_TRUE(StateOf(got.recovery()) == StateOf(solo.recovery()))
        << "w=" << w;
    const auto want_outcome = solo.Find();
    const auto got_outcome = got.Find();
    EXPECT_EQ(static_cast<int>(want_outcome.kind),
              static_cast<int>(got_outcome.kind))
        << "w=" << w;
    EXPECT_EQ(want_outcome.duplicate, got_outcome.duplicate) << "w=" << w;
    if (want_outcome.kind ==
        duplicates::SparseDuplicateFinder::Kind::kDuplicate) {
      ++found;
    }
  }
  EXPECT_GT(found, 0);
}

TEST(WindowManagerTest, RingEvictionClampsToOldestCheckpoint) {
  sketch::CountSketch live(5, 24, 99);
  WindowManager::Options options;
  options.checkpoint_interval = 100;
  options.max_checkpoints = 3;
  WindowManager wm(&live, options);
  const auto stream = stream::UniformTurnstile(kN, 1000, 100, 100);
  wm.Drive(stream);
  EXPECT_EQ(wm.checkpoint_count(), 3u);
  EXPECT_EQ(wm.oldest_start(), 800u);
  // A window reaching behind the ring clamps to the oldest boundary —
  // and still materializes correctly from there.
  const auto window = wm.WindowSketch(650);
  EXPECT_EQ(window.start, 800u);
  EXPECT_EQ(window.length, 200u);
  sketch::CountSketch solo(5, 24, 99);
  solo.UpdateBatch(stream.data() + 800, 200);
  EXPECT_TRUE(StateOf(*window.sketch) == StateOf(solo));
}

TEST(WindowManagerTest, CheckpointAccounting) {
  sketch::CountSketch live(5, 24, 101);
  WindowManager::Options options;
  options.checkpoint_interval = 100;
  WindowManager wm(&live, options);
  const auto stream = stream::UniformTurnstile(kN, 1000, 100, 102);
  wm.Drive(stream);
  // Position 0 plus one per interior boundary (100, 200, ..., 1000).
  EXPECT_EQ(wm.checkpoint_count(), 11u);
  EXPECT_GT(wm.CheckpointBytes(), 0u);
  // Sealing twice at the same position is idempotent.
  wm.Seal();
  EXPECT_EQ(wm.checkpoint_count(), 11u);
}

TEST(WindowManagerTest, ChunkingDoesNotMoveCheckpoints) {
  // Checkpoints land on exact interval multiples regardless of how the
  // caller chunks PushBatch — the manager splits at the boundary.
  const auto stream = stream::UniformTurnstile(kN, 700, 100, 103);
  sketch::CountSketch a(5, 24, 104), b(5, 24, 104);
  WindowManager::Options options;
  options.checkpoint_interval = 256;

  WindowManager one(&a, options);
  one.PushBatch(stream.data(), stream.size());

  WindowManager many(&b, options);
  size_t done = 0;
  for (size_t chunk : {3, 250, 255, 100, 92}) {
    many.PushBatch(stream.data() + done, chunk);
    done += chunk;
  }
  ASSERT_EQ(done, stream.size());

  EXPECT_EQ(one.checkpoint_count(), many.checkpoint_count());
  const auto wa = one.WindowSketch(300);
  const auto wb = many.WindowSketch(300);
  EXPECT_EQ(wa.start, wb.start);
  EXPECT_TRUE(StateOf(*wa.sketch) == StateOf(*wb.sketch));
}

TEST(WindowManagerTest, WindowedDuplicateFinder) {
  // End-to-end: a finder whose window holds exactly the last letter
  // epoch finds a duplicate from that epoch.
  const uint64_t n = 512;
  const UpdateStream prefix = LetterStream(n, 4, 105);
  const UpdateStream suffix = LetterStream(n, 6, 106);
  duplicates::DuplicateFinder live(
      duplicates::DuplicateFinder::Params{n, 0.2, 8, 107});
  WindowManager::Options options;
  options.checkpoint_interval = prefix.size();
  WindowManager wm(&live, options);
  wm.Drive(prefix);
  wm.Drive(suffix);

  const auto window = wm.WindowSketch(suffix.size());
  EXPECT_EQ(window.start, prefix.size());
  auto* finder = dynamic_cast<duplicates::DuplicateFinder*>(window.sketch.get());
  ASSERT_NE(finder, nullptr);

  duplicates::DuplicateFinder solo(
      duplicates::DuplicateFinder::Params{n, 0.2, 8, 107});
  solo.UpdateBatch(suffix.data(), suffix.size());
  const auto want = solo.Find();
  const auto got = finder->Find();
  ASSERT_EQ(want.ok(), got.ok());
  if (want.ok()) {
    EXPECT_EQ(want.value(), got.value());
  }
}

TEST(WindowDeathTest, MergeNegatedChecksLikeMerge) {
  sketch::CountSketch a(7, 24, 1), b(7, 24, 2), c(9, 24, 1);
  sketch::CountMin d(7, 24, 1);
  EXPECT_DEATH(a.MergeNegated(b), "LPS_CHECK");  // seed mismatch
  EXPECT_DEATH(a.MergeNegated(c), "LPS_CHECK");  // shape mismatch
  EXPECT_DEATH(a.MergeNegated(d), "LPS_CHECK");  // cross-type
}

}  // namespace
}  // namespace lps
