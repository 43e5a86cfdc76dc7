// Kernel-layer conformance: every compiled-in backend against the scalar
// reference, at two granularities.
//
//  1. Per-kernel: each KernelTable entry fed identical inputs (random plus
//     field edge values) under every available backend. Integer/GF kernels
//     must be bit-exact; cauchy_pow_batch is tolerance-bounded at p = 1
//     (the one query-equivalent kernel, its AVX2 sum pinned to a golden
//     value) and bit-exact for p != 1, as is stable_batch, where AVX2
//     runs a lane-for-lane twin of the scalar transform and SSE4.2 calls
//     the scalar one.
//  2. Whole-sketch: every SketchKind driven through the same stream under
//     each forced backend and its serialized state compared. The
//     exact-arithmetic kinds must land bit-identical; the kinds embedding
//     a StableSketch (vectorized Cauchy transform) get the documented
//     query-equivalence check instead.
//
// Tests here force backends via ForceBackendForTesting and restore the
// dispatched backend on exit, so they compose with any LPS_KERNELS value.
#include "src/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "src/field/gf61.h"
#include "src/lps.h"
#include "src/norm/lp_norm.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/random.h"

namespace lps::kernels {
namespace {

namespace gf = ::lps::gf61;

class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : saved_(ActiveBackend()) {
    EXPECT_TRUE(ForceBackendForTesting(b));
  }
  ~ScopedBackend() { ForceBackendForTesting(saved_); }

 private:
  Backend saved_;
};

std::vector<Backend> SimdBackends() {
  std::vector<Backend> simd;
  for (Backend b : AvailableBackends()) {
    if (b != Backend::kScalar) simd.push_back(b);
  }
  return simd;
}

// Random field elements with the troublesome boundary values planted at
// the front: 0, p-1 (largest canonical), and p-2.
std::vector<uint64_t> FieldInputs(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> xs(count);
  for (uint64_t& x : xs) x = rng.Below(gf::kP);
  if (count > 0) xs[0] = 0;
  if (count > 1) xs[1] = gf::kP - 1;
  if (count > 2) xs[2] = gf::kP - 2;
  return xs;
}

TEST(KernelDispatch, ActiveBackendIsAvailableAndNamed) {
  const auto avail = AvailableBackends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), Backend::kScalar);  // scalar is always first
  const std::set<Backend> avail_set(avail.begin(), avail.end());
  EXPECT_TRUE(avail_set.count(ActiveBackend()) > 0);
  for (Backend b : avail) {
    EXPECT_STRNE(BackendName(b), "");
  }
  EXPECT_STREQ(ActiveBackendName(), BackendName(ActiveBackend()));
}

TEST(KernelDispatch, ForceBackendRoundTrips) {
  const Backend dispatched = ActiveBackend();
  for (Backend b : AvailableBackends()) {
    ASSERT_TRUE(ForceBackendForTesting(b));
    EXPECT_EQ(ActiveBackend(), b);
    EXPECT_EQ(Active().backend, b);
  }
  ASSERT_TRUE(ForceBackendForTesting(dispatched));
  EXPECT_EQ(ActiveBackend(), dispatched);
}

TEST(Kernels, Gf61MulBatchBitExact) {
  // Sizes straddle the vector widths so every backend exercises both its
  // SIMD body and its scalar tail (including count < lane-width).
  for (size_t count : {size_t{1}, size_t{3}, size_t{4}, size_t{257}}) {
    const auto a = FieldInputs(count, 101);
    const auto b = FieldInputs(count, 202);
    std::vector<uint64_t> want(count), got(count);
    {
      ScopedBackend pin(Backend::kScalar);
      Active().gf61_mul_batch(a.data(), b.data(), count, want.data());
    }
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(want[i], gf::Mul(a[i], b[i])) << "scalar kernel vs gf61::Mul";
    }
    for (Backend bk : SimdBackends()) {
      ScopedBackend pin(bk);
      Active().gf61_mul_batch(a.data(), b.data(), count, got.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(want[i], got[i])
            << BackendName(bk) << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(Kernels, Gf61MulBatchAllowsOutAliasingB) {
  // l0_norm weights fingerprints in place: out == b must be safe.
  const size_t kCount = 67;
  const auto a = FieldInputs(kCount, 303);
  for (Backend bk : AvailableBackends()) {
    ScopedBackend pin(bk);
    auto b = FieldInputs(kCount, 404);
    const auto b_orig = b;
    Active().gf61_mul_batch(a.data(), b.data(), kCount, b.data());
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(b[i], gf::Mul(a[i], b_orig[i])) << BackendName(bk);
    }
  }
}

// Counts 1-40 reach every AVX2 group of four quads and every quad tail,
// alone and after full groups; 4097 is a whole 4096-update chunk plus one.
std::vector<size_t> BatchCounts() {
  std::vector<size_t> counts;
  for (size_t count = 1; count <= 40; ++count) counts.push_back(count);
  counts.push_back(4097);
  return counts;
}

// Keys for the AVX2 Horner's two products, which it picks per group of
// four quads: all below 2^32 (0, 1, 2^31 and 2^32 - 1 planted), all at or
// above 2^32 (2^32, 2^32 + 1 and p - 1 planted), and short keys with one
// long key in every run of 16, at a position that walks through the run.
std::vector<std::vector<uint64_t>> HornerKeySets(size_t count) {
  const uint64_t kShort[] = {0, 1, 1ULL << 31, (1ULL << 32) - 1};
  const uint64_t kLong[] = {1ULL << 32, (1ULL << 32) + 1, gf::kP - 1};
  Rng rng(505);
  std::vector<uint64_t> short_keys(count), long_keys(count), mixed(count);
  for (size_t t = 0; t < count; ++t) {
    short_keys[t] = t % 5 == 0 ? kShort[(t / 5) % 4] : rng.Below(1ULL << 32);
    long_keys[t] = t % 5 == 0 ? kLong[(t / 5) % 3]
                              : (1ULL << 32) + rng.Below(gf::kP - (1ULL << 32));
    mixed[t] = t % 16 == (t / 16) % 16 ? long_keys[t] : short_keys[t];
  }
  return {short_keys, long_keys, mixed};
}

TEST(Kernels, KWiseHornerBatchBitExact) {
  // Batches start at offsets 0 and 3; k = 110 is the deepest Horner the
  // library runs (the p = 0.9 t_i hash).
  const size_t kMaxCount = 4097;
  const auto coeffs = FieldInputs(110, 606);
  const auto key_sets = HornerKeySets(kMaxCount + 3);
  std::vector<uint64_t> want(kMaxCount), got(kMaxCount);
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{20}, size_t{110}}) {
    for (size_t set = 0; set < key_sets.size(); ++set) {
      for (size_t offset : {size_t{0}, size_t{3}}) {
        const uint64_t* xs = key_sets[set].data() + offset;
        for (size_t count : BatchCounts()) {
          {
            ScopedBackend pin(Backend::kScalar);
            Active().kwise_horner_batch(coeffs.data(), k, xs, count,
                                        want.data());
          }
          for (size_t i = 0; i < count; ++i) {
            ASSERT_EQ(want[i], hash::PolyEval(coeffs.data(), k, xs[i]))
                << "scalar kernel vs hash::PolyEval, k=" << k;
          }
          for (Backend bk : SimdBackends()) {
            ScopedBackend pin(bk);
            Active().kwise_horner_batch(coeffs.data(), k, xs, count,
                                        got.data());
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     count * sizeof(uint64_t)))
                << BackendName(bk) << " k=" << k << " key set=" << set
                << " offset=" << offset << " count=" << count;
          }
        }
      }
    }
  }
}

TEST(Kernels, CountRowsApplyBitExact) {
  const size_t kCount = 215;
  const uint64_t kRange = 97;
  const auto xs = FieldInputs(kCount, 707);
  Rng rng(808);
  std::vector<double> deltas(kCount);
  for (double& d : deltas) d = rng.NextDouble() * 10.0 - 5.0;
  const auto h = FieldInputs(4, 909);  // bucket/sign pairwise coefficients
  for (bool use_sign : {true, false}) {
    std::vector<double> want(kRange, 0.0);
    {
      ScopedBackend pin(Backend::kScalar);
      Active().count_rows_apply(xs.data(), deltas.data(), kCount, h[0], h[1],
                                h[2], h[3], use_sign, kRange, want.data());
    }
    for (Backend bk : SimdBackends()) {
      ScopedBackend pin(bk);
      std::vector<double> got(kRange, 0.0);
      Active().count_rows_apply(xs.data(), deltas.data(), kCount, h[0], h[1],
                                h[2], h[3], use_sign, kRange, got.data());
      for (size_t i = 0; i < kRange; ++i) {
        // Bit-exact, not EXPECT_DOUBLE_EQ: the scatter stays scalar and in
        // stream order on every backend, so the accumulation order (and
        // hence every rounding step) is identical.
        ASSERT_EQ(want[i], got[i])
            << BackendName(bk) << " use_sign=" << use_sign << " bucket=" << i;
      }
    }
  }
}

// FieldInputs keys are uniform in [0, p), so a quad of four keys below
// 2^32 (AVX2's two-multiply path) never occurs above. Here the first 100
// keys are below 2^32, edge values 0, 1, 2^31 and 2^32 - 1 included; after
// that every quad mixes them with 2^32, 2^32 + 1 and p - 1, and keys
// 180..191 are all long.
TEST(Kernels, CountRowsApplyShortKeysBitExact) {
  const size_t kCount = 215;
  const uint64_t kShort[] = {0, 1, 1ULL << 31, (1ULL << 32) - 1};
  const uint64_t kLong[] = {1ULL << 32, (1ULL << 32) + 1, gf::kP - 1};
  Rng rng(1212);
  std::vector<uint64_t> xs(kCount);
  for (size_t t = 0; t < kCount; ++t) {
    const uint64_t short_key =
        t % 3 == 0 ? kShort[(t / 3) % 4] : rng.Below(1ULL << 32);
    const bool is_long = (t >= 100 && t % 4 == (t / 4) % 4) ||
                         (t >= 180 && t < 192);
    xs[t] = is_long ? kLong[t % 3] : short_key;
  }
  std::vector<double> deltas(kCount);
  for (double& d : deltas) d = rng.NextDouble() * 10.0 - 5.0;
  const uint64_t kCoeffs[] = {0, 1, gf::kP - 1, (1ULL << 32) - 1, 1ULL << 32,
                              1ULL << 60};
  const uint64_t kRanges[] = {1, 24, 72, 97};
  const size_t kCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, kCount};
  for (Backend bk : SimdBackends()) {
    for (uint64_t c1 : kCoeffs) {
      for (uint64_t c0 : kCoeffs) {
        // Each value sits in every role: b1 = s0 = c1 and b0 = s1 = c0.
        const uint64_t b0 = c0, b1 = c1, s0 = c1, s1 = c0;
        for (uint64_t range : kRanges) {
          for (size_t count : kCounts) {
            // Short counts run from the all-short head and from the
            // mixed region; the tail loop takes what a quad cannot.
            for (size_t start : {size_t{0}, size_t{100}}) {
              if (start + count > kCount) continue;
              for (bool use_sign : {true, false}) {
                std::vector<double> want(range, 0.0), got(range, 0.0);
                {
                  ScopedBackend pin(Backend::kScalar);
                  Active().count_rows_apply(xs.data() + start,
                                            deltas.data() + start, count, b0,
                                            b1, s0, s1, use_sign, range,
                                            want.data());
                }
                {
                  ScopedBackend pin(bk);
                  Active().count_rows_apply(xs.data() + start,
                                            deltas.data() + start, count, b0,
                                            b1, s0, s1, use_sign, range,
                                            got.data());
                }
                ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                         range * sizeof(double)))
                    << BackendName(bk) << " b=(" << b0 << "," << b1
                    << ") s=(" << s0 << "," << s1 << ") range=" << range
                    << " count=" << count << " start=" << start
                    << " use_sign=" << use_sign;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, Gf61SyndromeBatchBitExactIncludingPowers) {
  const size_t kSyndromes = 57;  // not a multiple of 4: exercises the tail
  const auto seed_syn = FieldInputs(kSyndromes, 111);
  const auto a = FieldInputs(4, 222);
  const auto p0 = FieldInputs(4, 333);
  std::vector<uint64_t> want(seed_syn), got;
  uint64_t want_pow[4], got_pow[4];
  {
    ScopedBackend pin(Backend::kScalar);
    for (int j = 0; j < 4; ++j) want_pow[j] = p0[static_cast<size_t>(j)];
    Active().gf61_syndrome_batch(want.data(), kSyndromes, want_pow, a.data());
  }
  for (Backend bk : SimdBackends()) {
    ScopedBackend pin(bk);
    got = seed_syn;
    for (int j = 0; j < 4; ++j) got_pow[j] = p0[static_cast<size_t>(j)];
    Active().gf61_syndrome_batch(got.data(), kSyndromes, got_pow, a.data());
    for (size_t i = 0; i < kSyndromes; ++i) {
      ASSERT_EQ(want[i], got[i]) << BackendName(bk) << " syndrome " << i;
    }
    for (int j = 0; j < 4; ++j) {
      // The running powers are carried state: later batches start from
      // them, so they must match bit-for-bit too.
      ASSERT_EQ(want_pow[j], got_pow[j]) << BackendName(bk) << " power " << j;
    }
  }
}

TEST(Kernels, CauchyPowBatchToleranceBoundedAtP1) {
  const size_t kCount = 509;
  const auto keys = FieldInputs(kCount, 444);
  Rng rng(555);
  std::vector<double> deltas(kCount);
  for (double& d : deltas) d = rng.NextDouble() * 4.0 - 2.0;
  const uint64_t kRowBase = 0x9e3779b97f4a7c15ULL;
  // Per-quad comparison keeps the check tight: summing the whole batch
  // first would let cancellation hide per-item error.
  for (Backend bk : SimdBackends()) {
    for (size_t i = 0; i + 4 <= kCount; i += 4) {
      double want, got;
      {
        ScopedBackend pin(Backend::kScalar);
        want = Active().cauchy_pow_batch(1.0, kRowBase, keys.data() + i,
                                         deltas.data() + i, 4, 0.0);
      }
      {
        ScopedBackend pin(bk);
        got = Active().cauchy_pow_batch(1.0, kRowBase, keys.data() + i,
                                        deltas.data() + i, 4, 0.0);
      }
      ASSERT_NEAR(want, got, 1e-9 * std::max(1.0, std::abs(want)))
          << BackendName(bk) << " quad at " << i;
    }
  }
}

TEST(Kernels, CauchyPowBatchBitExactForPNotOne) {
  // p != 1 is bit-identical on every backend: AVX2 runs a lane-for-lane
  // twin of the scalar transform and adds the products in stream order,
  // SSE4.2 calls the scalar kernel — bit-identical, not merely close.
  const size_t kCount = 4097;
  const auto keys = FieldInputs(kCount, 666);
  Rng rng(777);
  std::vector<double> deltas(kCount);
  for (double& d : deltas) d = rng.NextDouble() * 4.0 - 2.0;
  for (double p : {0.25, 0.5, 0.9, 1.1, 1.5, 1.75, 2.0}) {
    for (size_t count : BatchCounts()) {
      double want;
      {
        ScopedBackend pin(Backend::kScalar);
        want = Active().cauchy_pow_batch(p, 42, keys.data(), deltas.data(),
                                         count, 1.25);
      }
      for (Backend bk : SimdBackends()) {
        ScopedBackend pin(bk);
        const double got = Active().cauchy_pow_batch(
            p, 42, keys.data(), deltas.data(), count, 1.25);
        ASSERT_EQ(want, got) << BackendName(bk) << " p=" << p
                             << " count=" << count;
      }
    }
    // One batch fed as two calls, the first's result carried in as the
    // second's init, lands where the single call does at every split,
    // including splits that cut AVX2's first group of 16 keys.
    for (Backend bk : AvailableBackends()) {
      ScopedBackend pin(bk);
      const double whole = Active().cauchy_pow_batch(
          p, 42, keys.data(), deltas.data(), kCount, 1.25);
      for (size_t split = 0; split <= 20; ++split) {
        const double head = Active().cauchy_pow_batch(
            p, 42, keys.data(), deltas.data(), split, 1.25);
        const double got = Active().cauchy_pow_batch(
            p, 42, keys.data() + split, deltas.data() + split,
            kCount - split, head);
        ASSERT_EQ(whole, got) << BackendName(bk) << " p=" << p
                              << " split=" << split;
      }
    }
  }
}

TEST(Kernels, StableBatchBitExact) {
  // Uniforms on the 2^-53 grid the kernels draw from, with both ends of
  // (0, 1] planted in each argument: 2^-53 and 1 are the transform's
  // poles and its W = -ln(u2) floor.
  const size_t kCount = 4097;
  Rng rng(888);
  std::vector<double> u1(kCount), u2(kCount);
  for (size_t t = 0; t < kCount; ++t) {
    u1[t] = rng.NextDoublePositive();
    u2[t] = rng.NextDoublePositive();
  }
  const double kEdges[] = {0x1.0p-53, 1.0};
  for (size_t t = 0; t < 8; ++t) {
    u1[t * 5] = kEdges[t % 2];
    u2[t * 7 + 1] = kEdges[(t / 2) % 2];
  }
  std::vector<double> want(kCount), got(kCount);
  for (double p : {0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 1.75, 2.0}) {
    for (size_t count : BatchCounts()) {
      {
        ScopedBackend pin(Backend::kScalar);
        Active().stable_batch(p, u1.data(), u2.data(), count, want.data());
      }
      for (size_t t = 0; t < count; ++t) {
        const double reference =
            sketch::StableFromUniforms(p, u1[t], u2[t]);
        ASSERT_EQ(0, std::memcmp(&reference, &want[t], sizeof(double)))
            << "scalar kernel vs StableFromUniforms, p=" << p << " t=" << t;
      }
      for (Backend bk : SimdBackends()) {
        ScopedBackend pin(bk);
        Active().stable_batch(p, u1.data(), u2.data(), count, got.data());
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 count * sizeof(double)))
            << BackendName(bk) << " p=" << p << " count=" << count;
      }
    }
  }
}

TEST(Kernels, CauchyPowBatchAvx2SumIsPinned) {
  // The AVX2 p = 1 sum is not scalar's, so no cross-backend test sees a
  // change in the order it accumulates in: 4096 keys in four-lane
  // products, quad after quad, then the lane sum and a one-key scalar
  // tail. The value is the one that order has always produced.
  std::vector<Backend> avail = AvailableBackends();
  if (std::find(avail.begin(), avail.end(), Backend::kAvx2) == avail.end()) {
    GTEST_SKIP() << "AVX2 backend not available";
  }
  const size_t kCount = 4097;
  const auto keys = FieldInputs(kCount, 4097);
  Rng rng(9001);
  std::vector<double> deltas(kCount);
  for (double& d : deltas) d = rng.NextDouble() * 4.0 - 2.0;
  ScopedBackend pin(Backend::kAvx2);
  EXPECT_EQ(-0x1.00e9ce6707619p+17,
            Active().cauchy_pow_batch(1.0, 0x9e3779b97f4a7c15ULL, keys.data(),
                                      deltas.data(), kCount, 0.5));
}

// ---------------------------------------------------------------------------
// Whole-sketch sweep: the same stream through every kind under every
// backend. Exact-arithmetic kinds land bit-identical serialized state;
// the kinds that embed a StableSketch (and so cross cauchy_pow_batch at
// p = 1) are only query-equivalent and get a tolerance check below.
// ---------------------------------------------------------------------------

bool EmbedsStableSketch(SketchKind kind) {
  switch (kind) {
    case SketchKind::kStableSketch:       // the Cauchy rows themselves
    case SketchKind::kLpNormEstimator:    // wraps a StableSketch
    case SketchKind::kLpSampler:          // owns an LpNormEstimator
    case SketchKind::kAkoSampler:         // owns LpSampler rounds
    case SketchKind::kCsHeavyHitters:     // owns an LpNormEstimator
    case SketchKind::kDuplicateFinder:    // owns an LpSampler
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
      return true;
    default:
      return false;
  }
}

/// A one-shard inline pipeline with an odd batch size: partial tail
/// batches.
stream::ParallelPipeline::Options OddBatches() {
  stream::ParallelPipeline::Options options;
  options.batch_size = 193;
  return options;
}

std::vector<uint64_t> SerializedState(SketchKind kind, Backend backend) {
  ScopedBackend pin(backend);
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 1 << 10;
  spec.rows = 5;
  spec.buckets = 32;
  spec.s = 8;
  spec.repetitions = 3;
  spec.seed = 77;
  auto sketch = MakeSketch(spec);
  EXPECT_NE(sketch, nullptr) << SketchKindName(kind);
  const auto stream = stream::UniformTurnstile(1 << 10, 6000, 50, 9);
  stream::ParallelPipeline pipeline(OddBatches());
  pipeline.Add("x", {sketch.get()}).Drive(stream);
  BitWriter writer;
  sketch->Serialize(&writer);
  return writer.words();
}

TEST(KernelSweep, ExactKindsBitIdenticalAcrossBackends) {
  const auto simd = SimdBackends();
  constexpr uint32_t kLastKind =
      static_cast<uint32_t>(SketchKind::kMomentEstimator);
  for (uint32_t k = 1; k <= kLastKind; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    const auto want = SerializedState(kind, Backend::kScalar);
    for (Backend bk : simd) {
      const auto got = SerializedState(kind, bk);
      if (EmbedsStableSketch(kind)) {
        // Query-equivalent family: state may differ in low-order FP bits,
        // but the layout (and so the serialized size) must not.
        EXPECT_EQ(want.size(), got.size())
            << SketchKindName(kind) << " under " << BackendName(bk);
      } else {
        EXPECT_EQ(want, got)
            << SketchKindName(kind) << " not bit-identical under "
            << BackendName(bk);
      }
    }
  }
}

TEST(KernelSweep, StableFamilyQueryEquivalentAcrossBackends) {
  const auto stream = stream::UniformTurnstile(1 << 10, 8000, 50, 13);
  for (Backend bk : SimdBackends()) {
    double want_norm, got_norm, want_est, got_est;
    {
      ScopedBackend pin(Backend::kScalar);
      sketch::StableSketch s(1.0, 32, 21);
      norm::LpNormEstimator e(1.0, 32, 22);
      stream::ParallelPipeline pipeline(OddBatches());
      pipeline.Add("s", {&s}).Add("e", {&e}).Drive(stream);
      want_norm = s.EstimateNorm();
      want_est = e.Estimate2Approx();
    }
    {
      ScopedBackend pin(bk);
      sketch::StableSketch s(1.0, 32, 21);
      norm::LpNormEstimator e(1.0, 32, 22);
      stream::ParallelPipeline pipeline(OddBatches());
      pipeline.Add("s", {&s}).Add("e", {&e}).Drive(stream);
      got_norm = s.EstimateNorm();
      got_est = e.Estimate2Approx();
    }
    EXPECT_NEAR(want_norm, got_norm,
                1e-9 * std::max(1.0, std::abs(want_norm)))
        << BackendName(bk);
    EXPECT_NEAR(want_est, got_est, 1e-9 * std::max(1.0, std::abs(want_est)))
        << BackendName(bk);
  }
}

}  // namespace
}  // namespace lps::kernels
