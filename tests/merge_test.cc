// Merge-equivalence property tests for every LinearSketch implementer:
// splitting a stream across k shard replicas and merging them must
// reproduce single-stream ingestion. For structures whose counters live in
// exact arithmetic (GF(2^61-1) fingerprints/syndromes, or integer-valued
// doubles — integer stream deltas keep count-sketch/count-min/AMS counters
// integral, and integer doubles below 2^53 add exactly in any order) the
// serialized state must be BIT-IDENTICAL. Structures with genuinely
// real-valued counters (p-stable rows, the Lp sampler's t_i^{-1/p}-scaled
// count-sketch) are exact up to floating-point reassociation, so those
// assert identical query/sample results and ULP-scale state agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/api/sketch_spec.h"
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
#include "src/util/serialize.h"

namespace lps {
namespace {

using stream::ParallelPipeline;
using stream::UpdateStream;

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

/// Builds k replicas with `make`, ingests `stream` through an inline
/// (threads = 0) ParallelPipeline with the given partition, merges, and
/// returns replica 0 by value.
template <typename T, typename MakeFn>
T ShardedIngest(MakeFn make, const UpdateStream& stream, int k,
                ParallelPipeline::Partition partition) {
  std::vector<T> replicas;
  replicas.reserve(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) replicas.push_back(make());
  std::vector<LinearSketch*> raw;
  for (auto& replica : replicas) raw.push_back(&replica);
  ParallelPipeline::Options options;
  options.shards = k;
  options.partition = partition;
  ParallelPipeline driver(options);
  driver.Add("sink", raw);
  driver.Drive(stream);
  driver.MergeShards();
  return std::move(replicas[0]);
}

/// The exact-family property: for k in {2, 3, 8} and both partition
/// policies, sharded ingest + merge is bit-identical to solo ingest.
template <typename T, typename MakeFn>
void ExpectShardedBitIdentical(MakeFn make, const UpdateStream& stream) {
  T solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const SerializedState want = StateOf(solo);
  for (int k : {2, 3, 8}) {
    for (auto partition : {ParallelPipeline::Partition::kByIndex,
                           ParallelPipeline::Partition::kRoundRobin}) {
      T merged = ShardedIngest<T>(make, stream, k, partition);
      EXPECT_TRUE(StateOf(merged) == want)
          << "k=" << k << " partition=" << static_cast<int>(partition);
    }
  }
}

UpdateStream StrictStream() {
  // Strict turnstile: positive deltas only.
  UpdateStream stream = stream::SparseVector(kN, 300, 50, 11);
  for (auto& u : stream) {
    if (u.delta < 0) u.delta = -u.delta;
    if (u.delta == 0) u.delta = 1;
  }
  return stream;
}

UpdateStream GeneralStream() {
  return stream::UniformTurnstile(kN, 5000, 100, 12);
}

TEST(MergeEquivalence, CountSketchBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::CountSketch>(
        [] { return sketch::CountSketch(9, 48, 21); }, stream);
  }
}

TEST(MergeEquivalence, CountMinBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::CountMin>(
        [] { return sketch::CountMin(9, 48, 22); }, stream);
  }
}

TEST(MergeEquivalence, AmsF2BitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::AmsF2>(
        [] { return sketch::AmsF2(5, 8, 23); }, stream);
  }
}

TEST(MergeEquivalence, DyadicCountMinBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::DyadicCountMin>(
        [] { return sketch::DyadicCountMin(kLogN, 5, 32, 24); }, stream);
  }
}

TEST(MergeEquivalence, DyadicCountSketchBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<sketch::DyadicCountSketch>(
        [] { return sketch::DyadicCountSketch(kLogN, 5, 32, 25); }, stream);
  }
}

TEST(MergeEquivalence, L0EstimatorBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<norm::L0Estimator>(
        [] { return norm::L0Estimator(kN, 9, 26); }, stream);
  }
}

TEST(MergeEquivalence, OneSparseBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<recovery::OneSparse>(
        [] { return recovery::OneSparse(kN, 27); }, stream);
  }
}

TEST(MergeEquivalence, SparseRecoveryBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<recovery::SparseRecovery>(
        [] { return recovery::SparseRecovery(kN, 12, 28); }, stream);
  }
}

TEST(MergeEquivalence, L0SamplerBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<core::L0Sampler>(
        [] { return core::L0Sampler({kN, 0.25, 0, 29, false}); }, stream);
  }
}

TEST(MergeEquivalence, FisL0SamplerBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<core::FisL0Sampler>(
        [] { return core::FisL0Sampler(kN, 30); }, stream);
  }
}

TEST(MergeEquivalence, CmHeavyHittersBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<heavy::CmHeavyHitters>(
        [] {
          heavy::CmHeavyHitters::Params params;
          params.n = kN;
          params.phi = 0.1;
          params.seed = 31;
          return heavy::CmHeavyHitters(params);
        },
        stream);
  }
}

TEST(MergeEquivalence, DyadicHeavyHittersBitIdentical) {
  for (const auto& stream : {StrictStream(), GeneralStream()}) {
    ExpectShardedBitIdentical<heavy::DyadicHeavyHitters>(
        [] { return heavy::DyadicHeavyHitters(kLogN, 0.1, 32); }, stream);
  }
}

TEST(MergeEquivalence, CsHeavyHittersStrictTurnstileBitIdentical) {
  // Strict turnstile at p = 1 uses the exact running sum instead of a
  // stable-norm sketch, so every counter stays integer-valued and the
  // sharded state is bit-identical.
  ExpectShardedBitIdentical<heavy::CsHeavyHitters>(
      [] {
        heavy::CsHeavyHitters::Params params;
        params.n = kN;
        params.p = 1.0;
        params.phi = 0.1;
        params.strict_turnstile = true;
        params.seed = 33;
        return heavy::CsHeavyHitters(params);
      },
      StrictStream());
}

TEST(MergeEquivalence, PositiveFinderSampleAgreement) {
  // The sampler component's counters are t^{-1}-scaled reals, so state is
  // equal only up to reassociation — the query outcomes must still agree.
  const auto stream = GeneralStream();
  auto make = [] {
    return duplicates::PositiveFinder(
        duplicates::PositiveFinder::Params{kN, 4, 0.2, 8, 34});
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<duplicates::PositiveFinder>(
        make, stream, k, ParallelPipeline::Partition::kByIndex);
    EXPECT_EQ(solo.Deficit(), merged.Deficit());
    const auto a = solo.Find();
    const auto b = merged.Find();
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    if (a.kind == duplicates::PositiveFinder::Kind::kFound) {
      EXPECT_EQ(a.index, b.index);
    }
  }
}

// ------------------------------------------------- floating-point family --

TEST(MergeEquivalence, StableSketchQueryAgreement) {
  const auto stream = GeneralStream();
  auto make = [] { return sketch::StableSketch(1.0, 48, 35); };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 3, 8}) {
    auto merged = ShardedIngest<sketch::StableSketch>(
        make, stream, k, ParallelPipeline::Partition::kByIndex);
    EXPECT_NEAR(merged.EstimateNorm(), solo.EstimateNorm(),
                1e-9 * std::abs(solo.EstimateNorm()));
  }
}

TEST(MergeEquivalence, LpNormEstimatorQueryAgreement) {
  const auto stream = GeneralStream();
  auto make = [] { return norm::LpNormEstimator(1.0, 64, 36); };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<norm::LpNormEstimator>(
        make, stream, k, ParallelPipeline::Partition::kRoundRobin);
    EXPECT_NEAR(merged.Estimate2Approx(), solo.Estimate2Approx(),
                1e-9 * solo.Estimate2Approx());
  }
}

TEST(MergeEquivalence, LpSamplerSampleAgreement) {
  const auto stream = GeneralStream();
  auto make = [] {
    core::LpSamplerParams params;
    params.n = kN;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 8;
    params.seed = 37;
    return core::LpSampler(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Sample();
  for (int k : {2, 3, 8}) {
    auto merged = ShardedIngest<core::LpSampler>(
        make, stream, k, ParallelPipeline::Partition::kByIndex);
    const auto got = merged.Sample();
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value().index, got.value().index);
      EXPECT_NEAR(want.value().estimate, got.value().estimate,
                  1e-6 * std::abs(want.value().estimate));
    }
  }
}

TEST(MergeEquivalence, CsHeavyHittersGeneralQueryAgreement) {
  const auto stream = stream::PlantedHeavyHitters(kN, 4, 2000, 40, true, 38);
  auto make = [] {
    heavy::CsHeavyHitters::Params params;
    params.n = kN;
    params.p = 1.5;
    params.phi = 0.2;
    params.norm_rows = 96;
    params.seed = 38;
    return heavy::CsHeavyHitters(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int k : {2, 8}) {
    auto merged = ShardedIngest<heavy::CsHeavyHitters>(
        make, stream, k, ParallelPipeline::Partition::kByIndex);
    EXPECT_EQ(solo.Query(), merged.Query());
  }
}

TEST(MergeEquivalence, DuplicateFinderFindAgreement) {
  // Letter stream as (letter, +1) updates; each replica starts from the
  // built-in (i, -1) initialization and Merge cancels the duplicates.
  const uint64_t n = 512;
  const auto letters = stream::DuplicateStream(n, 6, 39);
  UpdateStream stream;
  for (uint64_t l : letters) stream.push_back({l, +1});
  auto make = [n] {
    return duplicates::DuplicateFinder(
        duplicates::DuplicateFinder::Params{n, 0.2, 8, 40});
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Find();
  for (int k : {2, 3}) {
    auto merged = ShardedIngest<duplicates::DuplicateFinder>(
        make, stream, k, ParallelPipeline::Partition::kByIndex);
    const auto got = merged.Find();
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value());
    }
  }
}

/// Double counters (the SerializeCounters stream) of a finder or sampler.
template <typename T>
std::vector<double> CounterDoubles(const T& sketch) {
  BitWriter writer;
  sketch.SerializeCounters(&writer);
  BitReader reader(writer);
  std::vector<double> counters(writer.bit_count() / 64);
  for (double& counter : counters) counter = reader.ReadDouble();
  return counters;
}

/// Largest counter deviation of `got` from `want`, relative to the
/// counter's scale: the larger of its solo and initial magnitudes (the
/// init sketch's terms are the big summands a merge adds and subtracts).
double WorstRelativeDeviation(const std::vector<double>& got,
                              const std::vector<double>& want,
                              const std::vector<double>& init) {
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(init.size(), want.size());
  double worst = 0;
  for (size_t c = 0; c < std::min(got.size(), want.size()); ++c) {
    const double scale = std::max({1.0, std::abs(want[c]), std::abs(init[c])});
    worst = std::max(worst, std::abs(got[c] - want[c]) / scale);
  }
  return worst;
}

UpdateStream Letters(uint64_t n, uint64_t extras, uint64_t seed) {
  UpdateStream stream;
  for (uint64_t l : stream::DuplicateStream(n, extras, seed)) {
    stream.push_back({l, +1});
  }
  return stream;
}

TEST(MergeEquivalence, DuplicateFinderCountersMatchSolo) {
  // n spans two init chunks. Merge subtracts the shared init sketch, so
  // the merged counters must be solo's init + letters up to
  // floating-point reassociation.
  const uint64_t n = 5000;
  const UpdateStream stream = Letters(n, 40, 50);
  const duplicates::DuplicateFinder::Params params{n, 0.2, 6, 51};
  auto make = [&params] { return duplicates::DuplicateFinder(params); };
  const auto init = CounterDoubles(make());
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = CounterDoubles(solo);
  for (int k : {2, 3, 8}) {
    for (auto partition : {ParallelPipeline::Partition::kByIndex,
                           ParallelPipeline::Partition::kRoundRobin}) {
      auto merged = ShardedIngest<duplicates::DuplicateFinder>(
          make, stream, k, partition);
      EXPECT_LE(WorstRelativeDeviation(CounterDoubles(merged), want, init),
                1e-9)
          << "k=" << k << " partition=" << static_cast<int>(partition);
    }
  }
}

TEST(MergeEquivalence, SparseDuplicateFinderCountersMatchSolo) {
  // The recovery half lives in GF(2^61 - 1), so adding and subtracting
  // its init sketch is exact: bit-identical to solo. The sampler half
  // agrees up to reassociation.
  const uint64_t n = 5000;
  const UpdateStream stream = Letters(n, 40, 52);
  duplicates::SparseDuplicateFinder::Params params;
  params.n = n;
  params.s = 8;
  params.delta = 0.2;
  params.repetitions = 6;
  params.seed = 53;
  auto make = [&params] { return duplicates::SparseDuplicateFinder(params); };
  const auto init = CounterDoubles(make().sampler());
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = CounterDoubles(solo.sampler());
  for (int k : {2, 3, 8}) {
    for (auto partition : {ParallelPipeline::Partition::kByIndex,
                           ParallelPipeline::Partition::kRoundRobin}) {
      auto merged = ShardedIngest<duplicates::SparseDuplicateFinder>(
          make, stream, k, partition);
      EXPECT_TRUE(StateOf(merged.recovery()) == StateOf(solo.recovery()))
          << "k=" << k << " partition=" << static_cast<int>(partition);
      EXPECT_LE(
          WorstRelativeDeviation(CounterDoubles(merged.sampler()), want, init),
          1e-9)
          << "k=" << k << " partition=" << static_cast<int>(partition);
    }
  }
}

/// Serializes a used finder, lets it (and with it every holder of its
/// init sketch) go, restores it, and Resets the restored copy: the Reset
/// has to build the init sketch afresh on the lazy path. The result must
/// be bit-identical to a finder constructed afterwards.
template <typename Finder>
void ExpectRestoredResetMatchesFresh(const typename Finder::Params& params) {
  std::unique_ptr<LinearSketch> restored;
  {
    Finder used(params);
    const UpdateStream letters = Letters(params.n, 9, 54);
    used.UpdateBatch(letters.data(), letters.size());
    BitWriter writer;
    used.Serialize(&writer);
    BitReader reader(writer);
    restored = DeserializeAnySketch(&reader);
  }
  ASSERT_NE(restored, nullptr);
  restored->Reset();
  const Finder fresh(params);
  EXPECT_TRUE(StateOf(*restored) == StateOf(fresh));
}

TEST(MergeEquivalence, DeserializedFinderResetMatchesFresh) {
  ExpectRestoredResetMatchesFresh<duplicates::DuplicateFinder>(
      duplicates::DuplicateFinder::Params{5000, 0.2, 6, 55});
  duplicates::SparseDuplicateFinder::Params sparse;
  sparse.n = 5000;
  sparse.s = 8;
  sparse.delta = 0.2;
  sparse.repetitions = 6;
  sparse.seed = 56;
  ExpectRestoredResetMatchesFresh<duplicates::SparseDuplicateFinder>(sparse);
}

// ----------------------------------------------------------- edge cases --

TEST(MergeEquivalence, EmptyShardsAreIdentity) {
  // 3 updates over 8 shards: most replicas never see an update, and merging
  // their zero states must not perturb the result.
  UpdateStream tiny = {{5, 7}, {900, -3}, {5, 1}};
  ExpectShardedBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(7, 24, 41); }, tiny);
  ExpectShardedBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 4, 42); }, tiny);
  ExpectShardedBitIdentical<norm::L0Estimator>(
      [] { return norm::L0Estimator(kN, 5, 43); }, tiny);
}

TEST(MergeEquivalence, WhollyEmptyStream) {
  const UpdateStream empty;
  ExpectShardedBitIdentical<sketch::CountMin>(
      [] { return sketch::CountMin(5, 16, 44); }, empty);
}

TEST(MergeEquivalence, MergeIsCounterAddition) {
  sketch::CountSketch a(7, 24, 45), b(7, 24, 45), both(7, 24, 45);
  a.Update(3, 10.0);
  b.Update(900, -4.0);
  both.Update(3, 10.0);
  both.Update(900, -4.0);
  a.Merge(b);
  EXPECT_TRUE(StateOf(a) == StateOf(both));
  EXPECT_DOUBLE_EQ(a.Query(3), both.Query(3));
}

TEST(MergeEquivalence, ResetRestoresFreshState) {
  auto check = [](auto make) {
    auto used = make();
    const auto stream = GeneralStream();
    used.UpdateBatch(stream.data(), stream.size());
    used.Reset();
    auto fresh = make();
    EXPECT_TRUE(StateOf(used) == StateOf(fresh));
  };
  check([] { return sketch::CountSketch(9, 48, 46); });
  check([] { return norm::L0Estimator(kN, 9, 47); });
  check([] { return core::L0Sampler(core::L0SamplerParams{kN, 0.25, 0, 48,
                                                          false}); });
}

TEST(MergeEquivalence, DuplicateFinderResetRestoresInitialization) {
  const uint64_t n = 256;
  duplicates::DuplicateFinder::Params params{n, 0.2, 6, 49};
  duplicates::DuplicateFinder used(params);
  used.ProcessItem(7);
  used.ProcessItem(7);
  used.Reset();
  duplicates::DuplicateFinder fresh(params);
  EXPECT_TRUE(StateOf(used) == StateOf(fresh));
}

TEST(MergeDeathTest, SeedMismatchChecks) {
  // One generic check (kind, parameter prefix, counter shape) guards the
  // merge of every kind.
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    SCOPED_TRACE(SketchKindName(kind));
    SketchSpec spec;
    spec.kind = kind;
    spec.n = 64;
    spec.p = kind == SketchKind::kMomentEstimator ? 3.0 : 1.0;
    spec.repetitions = 2;
    spec.seed = 11;
    auto a = MakeSketch(spec);
    spec.seed = 12;
    auto b = MakeSketch(spec);
    EXPECT_DEATH(a->Merge(*b), "LPS_CHECK");
  }
}

TEST(MergeDeathTest, ShapeMismatchChecks) {
  sketch::CountSketch a(7, 24, 1), b(9, 24, 1);
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

TEST(MergeDeathTest, CrossTypeMergeChecks) {
  sketch::CountSketch a(7, 24, 1);
  sketch::CountMin b(7, 24, 1);
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

TEST(MergeDeathTest, SamplerParamMismatchChecks) {
  core::L0Sampler a({kN, 0.25, 0, 1, false});
  core::L0Sampler b({kN, 0.25, 0, 2, false});
  EXPECT_DEATH(a.Merge(b), "LPS_CHECK");
}

}  // namespace
}  // namespace lps
