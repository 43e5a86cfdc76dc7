// Serialization round trips and cross-party linearity for every
// serializable component — the communication reductions depend on the
// invariant that (same seed) + (transferred counters) == (same state).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/api/sketch_spec.h"
#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/heavy/heavy_hitters.h"
#include "src/io/bits_io.h"
#include "src/norm/l0_norm.h"
#include "src/recovery/one_sparse.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

// Every serializable sketch S must satisfy: deserialize(serialize(A)) into
// a same-seed twin B, then updating A and B identically keeps them equal.
template <typename Sketch, typename MakeFn, typename UpdateFn, typename EqFn>
void CheckContinuation(MakeFn make, UpdateFn update, EqFn equal) {
  Sketch a = make();
  update(&a, 17, 5.0);
  update(&a, 90, -2.0);
  BitWriter w;
  a.SerializeCounters(&w);
  Sketch b = make();
  BitReader r(w);
  b.DeserializeCounters(&r);
  // Continue both with identical updates.
  update(&a, 300, 7.0);
  update(&b, 300, 7.0);
  equal(a, b);
}

TEST(Serialization, CountSketchContinuation) {
  CheckContinuation<sketch::CountSketch>(
      [] { return sketch::CountSketch(9, 48, 1); },
      [](sketch::CountSketch* s, uint64_t i, double v) { s->Update(i, v); },
      [](const sketch::CountSketch& a, const sketch::CountSketch& b) {
        for (uint64_t i : {17ULL, 90ULL, 300ULL, 5ULL}) {
          EXPECT_DOUBLE_EQ(a.Query(i), b.Query(i));
        }
      });
}

TEST(Serialization, CountMinContinuation) {
  CheckContinuation<sketch::CountMin>(
      [] { return sketch::CountMin(9, 48, 2); },
      [](sketch::CountMin* s, uint64_t i, double v) { s->Update(i, v); },
      [](const sketch::CountMin& a, const sketch::CountMin& b) {
        for (uint64_t i : {17ULL, 90ULL, 300ULL}) {
          EXPECT_DOUBLE_EQ(a.QueryMin(i), b.QueryMin(i));
          EXPECT_DOUBLE_EQ(a.QueryMedian(i), b.QueryMedian(i));
        }
      });
}

TEST(Serialization, StableSketchContinuation) {
  CheckContinuation<sketch::StableSketch>(
      [] { return sketch::StableSketch(1.0, 32, 3); },
      [](sketch::StableSketch* s, uint64_t i, double v) { s->Update(i, v); },
      [](const sketch::StableSketch& a, const sketch::StableSketch& b) {
        EXPECT_DOUBLE_EQ(a.EstimateNorm(), b.EstimateNorm());
      });
}

TEST(Serialization, SparseRecoveryDifferenceAcrossThreeParties) {
  // A -> B -> C chain: C ends up holding sketch(x_A + x_B + x_C).
  const uint64_t n = 1000;
  recovery::SparseRecovery a(n, 6, 4);
  a.Update(1, 10);
  BitWriter w1;
  a.SerializeCounters(&w1);

  recovery::SparseRecovery b(n, 6, 4);
  BitReader r1(w1);
  b.DeserializeCounters(&r1);
  b.Update(2, 20);
  BitWriter w2;
  b.SerializeCounters(&w2);

  recovery::SparseRecovery c(n, 6, 4);
  BitReader r2(w2);
  c.DeserializeCounters(&r2);
  c.Update(3, 30);

  auto rec = c.Recover();
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().size(), 3u);
  EXPECT_EQ(rec.value()[0].value, 10);
  EXPECT_EQ(rec.value()[1].value, 20);
  EXPECT_EQ(rec.value()[2].value, 30);
}

TEST(Serialization, OneSparseRoundTripPreservesRecovery) {
  recovery::OneSparse a(500, 5);
  a.Update(123, 9);
  BitWriter w;
  a.SerializeCounters(&w);
  recovery::OneSparse b(500, 5);
  BitReader r(w);
  b.DeserializeCounters(&r);
  b.Update(123, -9);  // cancel through the transferred state
  EXPECT_TRUE(b.IsZero());
}

TEST(Serialization, L0EstimatorBitWidth) {
  norm::L0Estimator est(1024, 9, 6);
  BitWriter w;
  est.SerializeCounters(&w);
  // reps x levels fingerprints at 61 bits each, and nothing else.
  EXPECT_EQ(w.bit_count(), 9u * est.levels() * 61);
}

TEST(Serialization, L0SamplerCrossPartySampleAgreement) {
  const uint64_t n = 2048;
  core::L0SamplerParams params{n, 0.25, 0, 7, false};
  core::L0Sampler alice(params);
  const auto stream = stream::SparseVector(n, 30, 100, 8);
  for (const auto& u : stream) alice.Update(u.index, u.delta);
  BitWriter w;
  alice.SerializeCounters(&w);
  core::L0Sampler bob(params);
  BitReader r(w);
  bob.DeserializeCounters(&r);
  auto sa = alice.Sample();
  auto sb = bob.Sample();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (sa.ok()) {
    EXPECT_EQ(sa.value().index, sb.value().index);
    EXPECT_DOUBLE_EQ(sa.value().estimate, sb.value().estimate);
  }
}

TEST(Serialization, DuplicateFinderHalfAndHalf) {
  // Alice processes half the stream, ships her memory; Bob finishes. The
  // result must match a single party processing everything.
  const uint64_t n = 256;
  const auto letters = stream::DuplicateStream(n, 4, 9);
  duplicates::DuplicateFinder::Params params{n, 0.2, 8, 10};

  duplicates::DuplicateFinder solo(params);
  for (uint64_t l : letters) solo.ProcessItem(l);

  duplicates::DuplicateFinder alice(params);
  const size_t half = letters.size() / 2;
  for (size_t j = 0; j < half; ++j) alice.ProcessItem(letters[j]);
  BitWriter w;
  alice.SerializeCounters(&w);
  duplicates::DuplicateFinder bob(params);
  BitReader r(w);
  bob.DeserializeCounters(&r);
  for (size_t j = half; j < letters.size(); ++j) bob.ProcessItem(letters[j]);

  auto solo_result = solo.Find();
  auto split_result = bob.Find();
  ASSERT_EQ(solo_result.ok(), split_result.ok());
  if (solo_result.ok()) {
    EXPECT_EQ(solo_result.value(), split_result.value());
  }
}

TEST(Serialization, HeavyHittersQueryEquivalence) {
  heavy::CsHeavyHitters::Params params;
  params.n = 512;
  params.p = 1.0;
  params.phi = 0.2;
  params.strict_turnstile = true;
  params.seed = 11;
  heavy::CsHeavyHitters alice(params);
  alice.Update(7, 100);
  alice.Update(300, 60);
  alice.Update(12, 1);
  BitWriter w;
  alice.SerializeCounters(&w);
  heavy::CsHeavyHitters bob(params);
  BitReader r(w);
  bob.DeserializeCounters(&r);
  EXPECT_EQ(alice.Query(), bob.Query());
}

// ----------------------- full-state (LinearSketch) wire-format coverage --

TEST(Serialization, FullStateRoundTripNeedsNoOutOfBandParams) {
  // Serialize a configured sampler; Deserialize into an instance built with
  // throwaway params. The wire format carries params + seeds, so the
  // restored object must answer identically and re-serialize bit-for-bit.
  core::LpSamplerParams params;
  params.n = 4096;
  params.p = 1.0;
  params.eps = 0.25;
  params.repetitions = 6;
  params.seed = 77;
  core::LpSampler original(params);
  const auto stream = stream::UniformTurnstile(4096, 20000, 100, 78);
  original.UpdateBatch(stream.data(), stream.size());
  BitWriter w;
  original.Serialize(&w);

  core::LpSamplerParams dummy;
  dummy.n = 1;
  dummy.repetitions = 1;
  core::LpSampler restored(dummy);
  BitReader r(w);
  restored.Deserialize(&r);
  EXPECT_EQ(r.bits_remaining(), 0u);

  const auto a = original.Sample();
  const auto b = restored.Sample();
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_EQ(a.value().index, b.value().index);
    EXPECT_DOUBLE_EQ(a.value().estimate, b.value().estimate);
  }
  BitWriter w2;
  restored.Serialize(&w2);
  EXPECT_EQ(w.bit_count(), w2.bit_count());
  EXPECT_EQ(w.words(), w2.words());
}

TEST(Serialization, FullStateFileRoundTrip) {
  const uint64_t n = 2048;
  core::L0Sampler original({n, 0.25, 0, 81, false});
  const auto stream = stream::SparseVector(n, 40, 100, 82);
  original.UpdateBatch(stream.data(), stream.size());
  BitWriter w;
  original.Serialize(&w);
  const std::string path = ::testing::TempDir() + "/l0_state.lps";
  ASSERT_TRUE(WriteBitsToFile(w, path).ok());

  auto reader = io::ReadBitsStreamed(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(PeekSketchKind(&reader.value()), SketchKind::kL0Sampler);

  auto reader2 = io::ReadBitsStreamed(path);
  ASSERT_TRUE(reader2.ok());
  core::L0Sampler restored({1, 0.25, 0, 0, false});
  restored.Deserialize(&reader2.value());
  const auto a = original.Sample();
  const auto b = restored.Sample();
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_EQ(a.value().index, b.value().index);
  }
}

TEST(Serialization, ReadBitsStreamedRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/not_a_sketch.lps";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a bit stream", f);
  std::fclose(f);
  EXPECT_FALSE(io::ReadBitsStreamed(path).ok());
  EXPECT_FALSE(
      io::ReadBitsStreamed(::testing::TempDir() + "/missing.lps").ok());
}

TEST(Serialization, OwningBitReaderOutlivesItsSource) {
  std::vector<uint64_t> words;
  size_t bits = 0;
  {
    BitWriter w;
    w.WriteU64(0x123456789abcdef0ULL);
    w.WriteBits(0x2a, 7);
    words = w.words();
    bits = w.bit_count();
  }  // writer destroyed; the owning reader must not dangle
  BitReader r(std::move(words), bits);
  EXPECT_EQ(r.ReadU64(), 0x123456789abcdef0ULL);
  EXPECT_EQ(r.ReadBits(7), 0x2aULL);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(SerializationDeathTest, KindMismatchChecks) {
  sketch::CountSketch cs(5, 16, 1);
  BitWriter w;
  cs.Serialize(&w);
  sketch::CountMin cm(5, 16, 1);
  BitReader r(w);
  EXPECT_DEATH(cm.Deserialize(&r), "LPS_CHECK");
}

TEST(SerializationDeathTest, BadMagicChecks) {
  BitWriter w;
  w.WriteU64(0xdeadbeefdeadbeefULL);
  BitReader r(w);
  sketch::CountSketch cs(5, 16, 1);
  EXPECT_DEATH(cs.Deserialize(&r), "LPS_CHECK");
}

TEST(Serialization, HeavyHittersFullStateRoundTrip) {
  heavy::CsHeavyHitters::Params params;
  params.n = 512;
  params.p = 1.0;
  params.phi = 0.2;
  params.strict_turnstile = true;
  params.seed = 11;
  heavy::CsHeavyHitters original(params);
  original.Update(7, 100);
  original.Update(300, 60);
  BitWriter w;
  original.Serialize(&w);

  heavy::CsHeavyHitters::Params dummy;
  dummy.n = 1;
  heavy::CsHeavyHitters restored(dummy);
  BitReader r(w);
  restored.Deserialize(&r);
  EXPECT_EQ(original.Query(), restored.Query());
  EXPECT_DOUBLE_EQ(original.NormEstimate(), restored.NormEstimate());
}

TEST(Serialization, DeserializeAnySketchDispatchesOnKind) {
  // The library-side factory must reconstruct the right concrete type
  // from the kind tag alone and restore bit-for-bit — for several
  // families, exercising the same path lps_cli load/merge uses.
  auto roundtrip = [](const LinearSketch& original) {
    BitWriter w;
    original.Serialize(&w);
    BitReader r(w);
    auto restored = DeserializeAnySketch(&r);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->kind(), original.kind());
    BitWriter w2;
    restored->Serialize(&w2);
    EXPECT_EQ(w.bit_count(), w2.bit_count());
    EXPECT_EQ(w.words(), w2.words());
  };
  {
    sketch::CountSketch cs(7, 24, 90);
    cs.Update(3, 10.0);
    roundtrip(cs);
  }
  {
    recovery::SparseRecovery rec(1000, 6, 91);
    rec.Update(1, 10);
    roundtrip(rec);
  }
  {
    core::LpSamplerParams params;
    params.n = 2048;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 4;
    params.seed = 92;
    core::LpSampler sampler(params);
    sampler.Update(17, 5.0);
    roundtrip(sampler);
  }
  {
    heavy::CsHeavyHitters::Params params;
    params.n = 512;
    params.p = 1.0;
    params.phi = 0.2;
    params.strict_turnstile = true;
    params.seed = 93;
    heavy::CsHeavyHitters hh(params);
    hh.Update(7, 100);
    roundtrip(hh);
  }
  {
    duplicates::DuplicateFinder finder(
        duplicates::DuplicateFinder::Params{256, 0.2, 6, 94});
    finder.ProcessItem(7);
    roundtrip(finder);
  }
  {
    norm::L0Estimator est(1024, 5, 95);
    est.Update(12, 3);
    roundtrip(est);
  }
}

TEST(Serialization, MakeEmptySketchCoversEveryKind) {
  // Every enum value constructs; an out-of-range tag returns nullptr
  // instead of a half-built object.
  for (uint32_t k = 1; k <= 21; ++k) {
    auto sketch = MakeEmptySketch(static_cast<SketchKind>(k));
    ASSERT_NE(sketch, nullptr) << "kind " << k;
    EXPECT_EQ(static_cast<uint32_t>(sketch->kind()), k);
  }
  EXPECT_EQ(MakeEmptySketch(static_cast<SketchKind>(0)), nullptr);
  EXPECT_EQ(MakeEmptySketch(static_cast<SketchKind>(22)), nullptr);
}

// The kinds whose state holds a DyadicCountSketch, directly or through
// an LpSampler or CsHeavyHitters: the layouts format v3 narrowed.
bool HoldsDyadicCountSketch(SketchKind kind) {
  switch (kind) {
    case SketchKind::kDyadicCountSketch:
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
      return true;
    default:
      return false;
  }
}

// A small spec ValidateSpec accepts, for any kind.
SketchSpec SmallSpec(SketchKind kind) {
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 512;
  spec.p = kind == SketchKind::kMomentEstimator ? 2.5 : 1.0;
  spec.seed = 60 + uint64_t(kind);
  return spec;
}

// The header's 8-bit version field follows the 16-bit magic and the
// 8-bit kind: bits 24..31 of the first word.
uint32_t HeaderVersion(const std::vector<uint64_t>& words) {
  return uint32_t((words[0] >> 24) & 0xff);
}

void StampVersion(std::vector<uint64_t>* words, uint32_t version) {
  (*words)[0] = ((*words)[0] & ~(0xffull << 24)) | (uint64_t(version) << 24);
}

TEST(Serialization, HeaderVersionIsPerKind) {
  size_t v3_kinds = 0;
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    auto sketch = MakeSketch(SmallSpec(kind));
    ASSERT_NE(sketch, nullptr) << SketchKindName(kind);
    BitWriter w;
    sketch->Serialize(&w);
    const uint32_t expected = HoldsDyadicCountSketch(kind) ? 3 : 2;
    EXPECT_EQ(HeaderVersion(w.words()), expected) << SketchKindName(kind);
    EXPECT_EQ(SketchFormatVersion(kind), expected) << SketchKindName(kind);
    if (expected == 3) ++v3_kinds;
  }
  EXPECT_EQ(v3_kinds, 8u);
}

TEST(Serialization, PreV3TreeStateIsInvalidArgument) {
  // State of the eight narrowed layouts stamped with an older version
  // carries the dropped tree levels: the decoder refuses it as
  // InvalidArgument, never by aborting.
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    if (!HoldsDyadicCountSketch(kind)) continue;
    const SketchSpec spec = SmallSpec(kind);
    auto sketch = MakeSketch(spec);
    sketch->Update(7, 3);
    BitWriter w;
    sketch->Serialize(&w);
    ASSERT_TRUE(DecodeSketchState(spec, w.words(), w.bit_count()).ok())
        << SketchKindName(kind);
    for (uint32_t old_version : {1u, 2u}) {
      std::vector<uint64_t> words = w.words();
      StampVersion(&words, old_version);
      auto decoded = DecodeSketchState(spec, words, w.bit_count());
      ASSERT_FALSE(decoded.ok()) << SketchKindName(kind);
      EXPECT_EQ(decoded.status().code(), Code::kInvalidArgument)
          << SketchKindName(kind);
    }
  }
}

TEST(SerializationDeathTest, PreV3TreeStateChecksOnLoad) {
  // The lps_cli load path (DeserializeAnySketch) CHECK-fails on it.
  const SketchSpec spec = SmallSpec(SketchKind::kCsHeavyHitters);
  auto sketch = MakeSketch(spec);
  BitWriter w;
  sketch->Serialize(&w);
  std::vector<uint64_t> words = w.words();
  StampVersion(&words, 2);
  BitReader r(std::move(words), w.bit_count());
  EXPECT_DEATH(DeserializeAnySketch(&r), "LPS_CHECK");
}

// A tiny spec of every kind: the states pinned below were written from
// these.
SketchSpec PinnedSpec(SketchKind kind) {
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 16;
  spec.seed = 7;
  switch (kind) {
    case SketchKind::kCountSketch:
    case SketchKind::kCountMin:
      spec.rows = 2;
      spec.buckets = 4;
      break;
    case SketchKind::kAmsF2:
      spec.rows = 2;
      spec.buckets = 2;
      break;
    case SketchKind::kStableSketch:
    case SketchKind::kLpNormEstimator:
      spec.p = 1.5;
      spec.rows = 2;
      break;
    case SketchKind::kDyadicCountMin:
    case SketchKind::kDyadicCountSketch:
      spec.rows = 1;
      spec.buckets = 2;
      break;
    case SketchKind::kL0Estimator:
      spec.repetitions = 1;
      break;
    case SketchKind::kSparseRecovery:
    case SketchKind::kL0Sampler:
      spec.s = 1;
      break;
    case SketchKind::kFisL0Sampler:
      spec.buckets = 1;
      break;
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
      spec.p = 1.5;
      spec.repetitions = 1;
      spec.rows = 1;
      spec.buckets = 1;
      break;
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kCmHeavyHitters:
      spec.phi = 0.5;
      spec.rows = 1;
      break;
    case SketchKind::kDyadicHeavyHitters:
      spec.phi = 0.5;
      break;
    case SketchKind::kDuplicateFinder:
      spec.repetitions = 1;
      break;
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
      spec.s = 1;
      spec.repetitions = 1;
      break;
    case SketchKind::kMomentEstimator:
      spec.p = 3.0;
      spec.repetitions = 1;
      break;
    default:
      break;
  }
  return spec;
}

// The 9 kinds with real-scaled counters, only query-equivalent across
// kernel backends; the other 12 are integer-exact.
bool RealScaled(SketchKind kind) {
  switch (kind) {
    case SketchKind::kStableSketch:
    case SketchKind::kLpNormEstimator:
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
      return true;
    default:
      return false;
  }
}

// States recorded from the library before each kind listed its counters
// in one place, which must still write and decode the same bits: the bit
// count and the non-zero words; every other word is zero. The 12
// integer-exact kinds hold the updates (3, +5) and (9, -2), the same bits
// on every backend. The real-scaled kinds are zeroed, so their counters
// are backend-independent too — except the duplicate finders', whose
// fresh state holds the (i, -1) init feed: only their size is pinned
// (their word lists are empty).
struct PinnedState {
  SketchKind kind;
  size_t bits;
  std::vector<std::pair<size_t, uint64_t>> nonzero_words;
};

const std::vector<PinnedState>& PinnedStates() {
  static const auto* states = new std::vector<PinnedState>{
      {SketchKind::kCountSketch, 672, {
          {0, 0x0000000202014c53ull}, {1, 0x0000000700000004ull},
          {3, 0x00000000c0000000ull}, {5, 0x00000000c0140000ull},
          {10, 0x0000000040080000ull}}},
      {SketchKind::kCountMin, 672, {
          {0, 0x0000000202024c53ull}, {1, 0x0000000700000004ull},
          {4, 0x00000000c0000000ull}, {6, 0x0000000040140000ull},
          {7, 0x00000000c0000000ull}, {9, 0x0000000040140000ull}}},
      {SketchKind::kAmsF2, 416, {
          {0, 0x0000000202034c53ull}, {1, 0x0000000700000002ull},
          {3, 0x0000000040080000ull}, {4, 0x00000000c0080000ull},
          {5, 0x00000000c0080000ull}, {6, 0x0000000040080000ull}}},
      {SketchKind::kStableSketch, 320, {
          {0, 0x0000000002044c53ull}, {1, 0x000000023ff80000ull},
          {2, 0x0000000000000007ull}}},
      {SketchKind::kDyadicCountMin, 832, {
          {0, 0x0000000402054c53ull}, {1, 0x0000000200000001ull},
          {2, 0x0000000000000007ull}, {3, 0x4014000000000000ull},
          {4, 0xc000000000000000ull}, {5, 0xc000000000000000ull},
          {6, 0x4014000000000000ull}, {7, 0x4008000000000000ull},
          {9, 0x4014000000000000ull}, {10, 0xc000000000000000ull},
          {12, 0x4008000000000000ull}}},
      {SketchKind::kDyadicCountSketch, 320, {
          {0, 0x0000000403064c53ull}, {1, 0x0000000200000001ull},
          {2, 0x0000000000000007ull}, {4, 0xc008000000000000ull}}},
      {SketchKind::kL0Estimator, 497, {
          {0, 0x0000001002074c53ull}, {1, 0x0000000100000000ull},
          {2, 0x0000000000000007ull}, {3, 0x12c6eebc7392c6b2ull},
          {4, 0x82e95d5dbda265d4ull}, {5, 0x005d2babb7b44cbaull}}},
      {SketchKind::kLpNormEstimator, 352, {
          {0, 0x02044c5302084c53ull}, {1, 0x3ff8000000000000ull},
          {2, 0x0000000700000002ull}}},
      {SketchKind::kOneSparse, 343, {
          {0, 0x0000001002094c53ull}, {1, 0x0000000700000000ull},
          {2, 0x0000000300000000ull}, {4, 0x9eeae49508000000ull},
          {5, 0x000000000056c324ull}}},
      {SketchKind::kSparseRecovery, 468, {
          {0, 0x00000010020a4c53ull}, {1, 0x0000000100000000ull},
          {2, 0x0000000700000000ull}, {3, 0x0000000300000000ull},
          {5, 0x9eeae49508000000ull}, {6, 0xfa1cbad884d6c324ull},
          {7, 0x00000000000a46acull}}},
      {SketchKind::kLpSampler, 9120, {
          {0, 0x00000010030b4c53ull}, {2, 0x000000003ff80000ull},
          {3, 0x000000003fe00000ull}, {4, 0x000000013fd00000ull},
          {5, 0x0000000100000001ull}, {6, 0x0000006000000014ull},
          {7, 0x0000000700000005ull}, {8, 0xffffffff00000000ull},
          {9, 0x00000000ffffffffull}}},
      {SketchKind::kL0Sampler, 1509, {
          {0, 0x00000010020c4c53ull}, {2, 0x000000013fd00000ull},
          {3, 0x0000000700000000ull}, {4, 0x0000000600000000ull},
          {6, 0x47adb49f30000000ull}, {7, 0x813a21506772761full},
          {8, 0x00000000001c6cb2ull}, {15, 0x6000000000000000ull},
          {17, 0x6080000000000000ull}, {18, 0xbf4dd41b8b0bef81ull},
          {19, 0x00061ed481ad1194ull}, {21, 0x796a500000000000ull},
          {22, 0x1ca12057fbed79b8ull}, {23, 0x00000002502dc277ull}}},
      {SketchKind::kFisL0Sampler, 1107, {
          {0, 0x00000010020d4c53ull}, {1, 0x0000000700000000ull},
          {2, 0x0000000100000000ull}, {3, 0x0000000000000003ull},
          {4, 0x3c00000000000000ull}, {5, 0x006a169bb60c4a82ull}}},
      {SketchKind::kAkoSampler, 9152, {
          {0, 0x030b4c53030e4c53ull}, {1, 0x0000000000000010ull},
          {2, 0x3ff8000000000000ull}, {3, 0x3fe0000000000000ull},
          {4, 0x3fd0000000000000ull}, {5, 0x0000000100000001ull},
          {6, 0x0000000200000001ull}, {7, 0x0000000500000060ull},
          {8, 0x0000000000000007ull}, {9, 0xffffffffffffffffull}}},
      {SketchKind::kCsHeavyHitters, 114113, {
          {0, 0x00000010030f4c53ull}, {2, 0x000000003ff00000ull},
          {3, 0x000000013fe00000ull}, {5, 0x000000000000000eull}}},
      {SketchKind::kCmHeavyHitters, 26945, {
          {0, 0x0000001002104c53ull}, {2, 0x000000013fe00000ull},
          {3, 0x0000000000000007ull}, {5, 0x8028000000000000ull},
          {16, 0x8000000000000000ull}, {17, 0x0000000000000001ull},
          {26, 0x8000000000000000ull}, {27, 0x0000000000000001ull},
          {34, 0x8028000000000000ull}, {37, 0x8000000000000000ull},
          {38, 0x0000000000000001ull}, {50, 0x8028000000000000ull},
          {65, 0x8000000000000000ull}, {66, 0x8028000000000001ull},
          {69, 0x8028000000000000ull}, {77, 0x8000000000000000ull},
          {78, 0x0000000000000001ull}, {87, 0x8000000000000000ull},
          {88, 0x0000000000000001ull}, {94, 0x8028000000000000ull},
          {106, 0x8028000000000000ull}, {109, 0x8000000000000000ull},
          {110, 0x0000000000000001ull}, {119, 0x8000000000000000ull},
          {120, 0x0000000000000001ull}, {124, 0x8028000000000000ull},
          {132, 0x8000000000000000ull}, {133, 0x0000000000000001ull},
          {141, 0x8028000000000000ull}, {155, 0x8000000000000000ull},
          {156, 0x0000000000000001ull}, {161, 0x8028000000000000ull},
          {172, 0x8000000000000000ull}, {173, 0x0000000000000001ull},
          {174, 0x8028000000000000ull}, {189, 0x8000000000000000ull},
          {190, 0x0000000000000001ull}, {193, 0x8028000000000000ull},
          {197, 0x8000000000000000ull}, {198, 0x0000000000000001ull},
          {207, 0x8028000000000000ull}, {213, 0x8028000000000000ull},
          {217, 0x8000000000000000ull}, {218, 0x0000000000000001ull},
          {232, 0x8000000000000000ull}, {233, 0x0000000000000001ull},
          {243, 0x8028000000000000ull}, {255, 0x8028000000000000ull},
          {259, 0x8000000000000000ull}, {260, 0x0000000000000001ull},
          {262, 0x8000000000000000ull}, {263, 0x0000000000000001ull},
          {268, 0x8028000000000000ull}, {284, 0x8028000000000000ull},
          {285, 0x8000000000000000ull}, {286, 0x0000000000000001ull},
          {297, 0x8000000000000000ull}, {298, 0x0000000000000001ull},
          {303, 0x8028000000000000ull}, {308, 0x8028000000000000ull},
          {310, 0x8000000000000000ull}, {311, 0x0000000000000001ull},
          {326, 0x8000000000000000ull}, {327, 0x0000000000000001ull},
          {334, 0x8028000000000000ull}, {355, 0x8010000000000000ull},
          {360, 0x8010000000000000ull}, {376, 0x8010000000000000ull},
          {399, 0x8010000000000000ull}, {418, 0x8010000000000000ull},
          {420, 0x8010000000000000ull}}},
      {SketchKind::kDyadicHeavyHitters, 46336, {
          {0, 0x0000000402114c53ull}, {1, 0x3fe0000000000000ull},
          {2, 0x0000000000000007ull}, {4, 0x4014000000000000ull},
          {8, 0xc000000000000000ull}, {25, 0xc000000000000000ull},
          {33, 0x4014000000000000ull}, {37, 0xc000000000000000ull},
          {49, 0x4014000000000000ull}, {51, 0x4014000000000000ull},
          {63, 0xc000000000000000ull}, {68, 0x4014000000000000ull},
          {71, 0xc000000000000000ull}, {89, 0x4014000000000000ull},
          {97, 0xc000000000000000ull}, {109, 0xc000000000000000ull},
          {114, 0x4014000000000000ull}, {122, 0x4014000000000000ull},
          {130, 0xc000000000000000ull}, {132, 0xc000000000000000ull},
          {137, 0x4014000000000000ull}, {151, 0x4014000000000000ull},
          {161, 0xc000000000000000ull}, {167, 0x4014000000000000ull},
          {173, 0xc000000000000000ull}, {181, 0x4008000000000000ull},
          {195, 0xc000000000000000ull}, {207, 0x4014000000000000ull},
          {212, 0xc000000000000000ull}, {213, 0x4014000000000000ull},
          {234, 0x4014000000000000ull}, {241, 0xc000000000000000ull},
          {245, 0x4014000000000000ull}, {246, 0xc000000000000000ull},
          {265, 0x4014000000000000ull}, {272, 0xc000000000000000ull},
          {282, 0xc000000000000000ull}, {287, 0x4014000000000000ull},
          {295, 0x4014000000000000ull}, {299, 0xc000000000000000ull},
          {308, 0xc000000000000000ull}, {321, 0x4014000000000000ull},
          {324, 0xc000000000000000ull}, {333, 0x4014000000000000ull},
          {342, 0x4014000000000000ull}, {350, 0xc000000000000000ull},
          {358, 0xc000000000000000ull}, {362, 0x4014000000000000ull},
          {373, 0x4014000000000000ull}, {381, 0xc000000000000000ull},
          {388, 0xc000000000000000ull}, {393, 0x4014000000000000ull},
          {407, 0x4014000000000000ull}, {409, 0xc000000000000000ull},
          {424, 0xc000000000000000ull}, {429, 0x4014000000000000ull},
          {442, 0x4014000000000000ull}, {449, 0xc000000000000000ull},
          {451, 0xc000000000000000ull}, {465, 0x4014000000000000ull},
          {468, 0x4014000000000000ull}, {475, 0xc000000000000000ull},
          {484, 0xc000000000000000ull}, {487, 0x4014000000000000ull},
          {507, 0xc000000000000000ull}, {511, 0x4014000000000000ull},
          {515, 0x4014000000000000ull}, {523, 0xc000000000000000ull},
          {533, 0xc000000000000000ull}, {539, 0x4014000000000000ull},
          {550, 0xc000000000000000ull}, {554, 0x4014000000000000ull},
          {570, 0x4014000000000000ull}, {572, 0xc000000000000000ull},
          {593, 0x4008000000000000ull}, {602, 0x4008000000000000ull},
          {616, 0x4008000000000000ull}, {635, 0x4008000000000000ull},
          {651, 0x4008000000000000ull}, {664, 0x4008000000000000ull},
          {677, 0x4008000000000000ull}, {698, 0x4008000000000000ull},
          {712, 0x4008000000000000ull}, {723, 0x4008000000000000ull}}},
      {SketchKind::kDuplicateFinder, 27904, {}},
      {SketchKind::kSparseDuplicateFinder, 28700, {}},
      {SketchKind::kPositiveFinder, 28764, {
          {0, 0x0000001003144c53ull}, {1, 0x0000000100000000ull},
          {3, 0x000000013fd00000ull}, {4, 0x0000000000000007ull}}},
      {SketchKind::kMomentEstimator, 1818944, {
          {0, 0x0000001003154c53ull}, {2, 0x0000000140080000ull},
          {3, 0x3ffe666666666666ull}, {4, 0x0000000000000007ull}}},
  };
  return *states;
}

TEST(Serialization, UnchangedLayoutsStillDecode) {
  ASSERT_EQ(PinnedStates().size(), 21u);
  for (const PinnedState& pinned : PinnedStates()) {
    SCOPED_TRACE(SketchKindName(pinned.kind));
    const SketchSpec spec = PinnedSpec(pinned.kind);
    auto sketch = MakeSketch(spec);
    if (!RealScaled(pinned.kind)) {
      sketch->Update(3, 5);
      sketch->Update(9, -2);
    }
    BitWriter w;
    sketch->Serialize(&w);
    EXPECT_EQ(w.bit_count(), pinned.bits);
    std::vector<uint64_t> golden = w.words();
    if (!pinned.nonzero_words.empty()) {
      golden.assign((pinned.bits + 63) / 64, 0);
      for (const auto& [index, word] : pinned.nonzero_words) {
        golden[index] = word;
      }
      EXPECT_EQ(w.words(), golden);
    }
    auto decoded = DecodeSketchState(spec, golden, pinned.bits);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    BitWriter again;
    decoded.value()->Serialize(&again);
    EXPECT_EQ(again.words(), golden);
  }
}

TEST(Serialization, BitExactAccountingMatchesSpaceModel) {
  // The serialized size of a sparse recovery sketch is exactly its
  // measurement bits — the quantity Lemma 5 and the reductions charge.
  recovery::SparseRecovery rec(4096, 10, 12);
  BitWriter w;
  rec.SerializeCounters(&w);
  EXPECT_EQ(w.bit_count(), (2u * 10 + 2) * 61);
  EXPECT_EQ(rec.SpaceBits(), w.bit_count() + 2 * 64);  // + the two seeds
}

}  // namespace
}  // namespace lps
