#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "src/heavy/heavy_hitters.h"
#include "src/kernels/kernels.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/stable_sketch.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace lps::sketch {
namespace {

TEST(CountSketch, ExactOnVerySparseVectors) {
  // With far more buckets than non-zeros, collisions are rare and the
  // median recovers values exactly.
  CountSketch cs(11, 256, 1);
  cs.Update(10, 5.0);
  cs.Update(200, -3.0);
  EXPECT_DOUBLE_EQ(cs.Query(10), 5.0);
  EXPECT_DOUBLE_EQ(cs.Query(200), -3.0);
  EXPECT_DOUBLE_EQ(cs.Query(42), 0.0);
}

TEST(CountSketch, LinearityOfUpdates) {
  CountSketch cs(9, 64, 2);
  cs.Update(7, 2.0);
  cs.Update(7, 3.0);
  cs.Update(7, -1.0);
  EXPECT_DOUBLE_EQ(cs.Query(7), 4.0);
}

// Lemma 1: |x_i - x*_i| <= Err_2^m(x) / sqrt(m) for all i w.h.p.
TEST(CountSketch, Lemma1PointErrorBound) {
  const uint64_t n = 2048;
  const int m = 16;
  const auto stream = stream::ZipfianVector(n, 1.0, 10000, true, 3);
  stream::ExactVector x(n);
  x.Apply(stream);
  const double bound = x.ErrM2(m) / std::sqrt(static_cast<double>(m));

  int violations = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CountSketch cs(15, 6 * m, seed);
    for (const auto& u : stream) {
      cs.Update(u.index, static_cast<double>(u.delta));
    }
    double worst = 0;
    for (uint64_t i = 0; i < n; ++i) {
      worst = std::max(worst,
                       std::abs(cs.Query(i) - static_cast<double>(x[i])));
    }
    if (worst > bound) ++violations;
  }
  EXPECT_LE(violations, 1) << "point error exceeded Err/sqrt(m) too often";
}

TEST(CountSketch, TopMFindsDominantCoordinates) {
  const uint64_t n = 1024;
  CountSketch cs(13, 96, 4);
  cs.Update(17, 1000.0);
  cs.Update(900, -800.0);
  cs.Update(55, 600.0);
  Rng rng(5);
  for (int j = 0; j < 200; ++j) {
    const double delta = (rng.Next() & 1) ? 1.0 : -1.0;
    const uint64_t i = rng.Below(n);
    cs.Update(i, delta);
  }
  const auto top = cs.TopM(n, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 17u);
  EXPECT_EQ(top[1].first, 900u);
  EXPECT_EQ(top[2].first, 55u);
  EXPECT_NEAR(top[0].second, 1000.0, 100.0);
}

TEST(CountSketch, ResidualL2Estimate) {
  const uint64_t n = 4096;
  const auto stream = stream::UniformTurnstile(n, 8000, 20, 6);
  stream::ExactVector x(n);
  x.Apply(stream);
  CountSketch cs(15, 240, 7);
  for (const auto& u : stream) cs.Update(u.index, static_cast<double>(u.delta));
  // Estimate ||x||_2 (empty sparse part) within a modest factor.
  const double est = cs.EstimateResidualL2({});
  const double truth = x.NormP(2.0);
  EXPECT_GT(est, 0.6 * truth);
  EXPECT_LT(est, 1.6 * truth);
}

TEST(CountSketch, ResidualSubtractsSparsePart) {
  CountSketch cs(15, 96, 8);
  cs.Update(3, 500.0);
  cs.Update(77, -400.0);
  // Subtracting the true values leaves (near) nothing.
  const double res = cs.EstimateResidualL2({{3, 500.0}, {77, -400.0}});
  EXPECT_NEAR(res, 0.0, 1e-9);
  EXPECT_GT(cs.EstimateResidualL2({}), 400.0);
}

TEST(CountSketch, SerializeRoundTrip) {
  CountSketch a(9, 48, 11);
  a.Update(1, 4.5);
  a.Update(40, -2.25);
  BitWriter writer;
  a.SerializeCounters(&writer);
  EXPECT_EQ(writer.bit_count(), 9u * 48 * 64);
  CountSketch b(9, 48, 11);
  BitReader reader(writer);
  b.DeserializeCounters(&reader);
  EXPECT_DOUBLE_EQ(b.Query(1), 4.5);
  EXPECT_DOUBLE_EQ(b.Query(40), -2.25);
}

TEST(CountSketch, SpaceBitsAccounting) {
  CountSketch cs(10, 60, 12);
  // 600 counters * 32 bits + 20 pairwise hashes * 2 * 61 bits.
  EXPECT_EQ(cs.SpaceBits(32), 600u * 32 + 20u * 2 * 61);
}

TEST(CountMin, StrictTurnstileOverestimates) {
  const uint64_t n = 512;
  CountMin cm(9, 64, 13);
  stream::ExactVector x(n);
  Rng rng(14);
  for (int j = 0; j < 2000; ++j) {
    const uint64_t i = rng.Below(n);
    cm.Update(i, 1.0);
    x.Apply({i, 1});
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_GE(cm.QueryMin(i) + 1e-9, static_cast<double>(x[i]));
  }
  // And the error is bounded by ||x||_1 / buckets per row w.h.p.
  int bad = 0;
  const double allowance = 3.0 * 2000.0 / 64.0;
  for (uint64_t i = 0; i < n; ++i) {
    if (cm.QueryMin(i) - static_cast<double>(x[i]) > allowance) ++bad;
  }
  EXPECT_EQ(bad, 0);
}

TEST(CountMin, MedianHandlesGeneralUpdates) {
  const uint64_t n = 512;
  CountMin cm(11, 64, 15);
  stream::ExactVector x(n);
  const auto stream = stream::UniformTurnstile(n, 3000, 5, 16);
  for (const auto& u : stream) {
    cm.Update(u.index, static_cast<double>(u.delta));
    x.Apply(u);
  }
  const double allowance = 3.0 * x.NormP(1.0) / 64.0;
  int bad = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (std::abs(cm.QueryMedian(i) - static_cast<double>(x[i])) > allowance) {
      ++bad;
    }
  }
  EXPECT_LE(bad, 2);
}

TEST(AmsF2, EstimatesSquaredNorm) {
  const uint64_t n = 2048;
  const auto stream = stream::UniformTurnstile(n, 5000, 10, 17);
  stream::ExactVector x(n);
  x.Apply(stream);
  AmsF2 ams(9, 24, 18);
  for (const auto& u : stream) {
    ams.Update(u.index, static_cast<double>(u.delta));
  }
  const double truth = x.NormPToP(2.0);
  EXPECT_GT(ams.EstimateF2(), 0.5 * truth);
  EXPECT_LT(ams.EstimateF2(), 2.0 * truth);
  EXPECT_NEAR(ams.EstimateL2(), std::sqrt(ams.EstimateF2()), 1e-9);
}

TEST(AmsF2, ResidualRemovesSparseComponent) {
  AmsF2 ams(9, 24, 19);
  ams.Update(5, 300.0);
  ams.Update(700, 40.0);
  const double with_all = ams.EstimateL2();
  EXPECT_GT(with_all, 250.0);
  const double res = ams.EstimateResidualL2({{5, 300.0}});
  EXPECT_LT(res, 100.0);
  EXPECT_NEAR(ams.EstimateResidualL2({{5, 300.0}, {700, 40.0}}), 0.0, 1e-9);
}

TEST(StableSketch, ConcurrentConstructionAgreesOnNormalizer) {
  // StableMedianAbs caches its calibration process-wide, and servers build
  // sketches on many threads at once. Every thread must read the same
  // normalizer. 0.625 and 1.375 are used by no other test, so their first
  // calibration happens here under contention whatever the test order.
  const std::vector<double> ps = {0.5, 1.5, 0.625, 1.375};
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> norms(
      kThreads, std::vector<double>(ps.size(), 0.0));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i = 0; i < ps.size(); ++i) {
        // Threads walk the p values in rotated orders so every value is
        // first touched by several threads at once.
        const size_t k = (i + static_cast<size_t>(t)) % ps.size();
        StableSketch sketch(ps[k], 9, 77);
        sketch.Update(3, 1.0);
        norms[static_cast<size_t>(t)][k] = sketch.EstimateNorm();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t k = 0; k < ps.size(); ++k) {
    StableSketch reference(ps[k], 9, 77);
    reference.Update(3, 1.0);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(norms[static_cast<size_t>(t)][k], reference.EstimateNorm())
          << "p=" << ps[k] << " thread=" << t;
    }
  }
}

TEST(StableSketch, CauchyAndGaussianClosedForms) {
  EXPECT_DOUBLE_EQ(StableMedianAbs(1.0), 1.0);
  EXPECT_NEAR(StableMedianAbs(2.0), 0.6744897501960817, 1e-12);
  // General p: calibrated constant is positive and stable across calls.
  const double m05 = StableMedianAbs(0.5);
  EXPECT_GT(m05, 0.0);
  EXPECT_DOUBLE_EQ(StableMedianAbs(0.5), m05);
}

TEST(StableSketch, NormalizerIsPinned) {
  // The calibration draws u2 before u1 for every sample, whatever order a
  // compiler evaluates function arguments in, on every kernel backend.
  // Drawn the other way round it reads 1.29783 and 0.96942.
  EXPECT_EQ(StableMedianAbs(0.5), 1.2662637732907458);
  EXPECT_EQ(StableMedianAbs(1.5), 0.97242326435215265);
}

// Chambers-Mallows-Stuck in long double, with cos(theta) taken as
// sin(pi (1/2 - |t|)) so the reference keeps full precision at the
// u1 -> 0 and u1 -> 1 poles, where cos(pi t) of a rounded pi t would not.
long double CmsReference(long double p, long double u1, long double u2) {
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double t = u1 - 0.5L;
  const long double cos_theta = std::sin(pi * (0.5L - std::abs(t)));
  const long double w = -std::log(u2);
  return std::sin(p * pi * t) / std::pow(cos_theta, 1.0L / p) *
         std::pow(std::cos((1.0L - p) * pi * t) / w, (1.0L - p) / p);
}

TEST(StableSketch, GeneralPTransformMatchesLongDoubleReference) {
  // The p != 1 variate the sketches accumulate, against an independent
  // extended-precision CMS: hashed uniforms the way the kernels draw them,
  // plus the tails of both uniforms.
  std::vector<std::pair<double, double>> uniforms;
  for (uint64_t i = 0; i < 100000; ++i) {
    uint64_t s = Mix64(i);
    const uint64_t w1 = SplitMix64(s);
    const uint64_t w2 = SplitMix64(s);
    uniforms.emplace_back((static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53,
                          (static_cast<double>(w2 >> 11) + 1.0) * 0x1.0p-53);
  }
  for (double u1 : {0x1.0p-53, 1e-6, 1.0 - 1e-8, 1.0 - 0x1.0p-53}) {
    for (double u2 : {0x1.0p-53, 0.5, 1.0 - 0x1.0p-53}) {
      uniforms.emplace_back(u1, u2);
    }
  }
  for (double p : {0.25, 0.5, 0.9, 1.1, 1.5, 1.75}) {
    double worst = 0.0, worst_u1 = 0.0, worst_u2 = 0.0;
    for (const auto& [u1, u2] : uniforms) {
      const long double want = CmsReference(p, u1, u2);
      const double got = StableFromUniforms(p, u1, u2);
      ASSERT_TRUE(std::isfinite(got)) << "p=" << p << " u1=" << u1;
      const double err =
          want == 0.0L ? std::abs(got)
                       : static_cast<double>(std::abs((got - want) / want));
      if (err > worst) {
        worst = err;
        worst_u1 = u1;
        worst_u2 = u2;
      }
    }
    EXPECT_LE(worst, 1e-12) << "p=" << p << " worst at u1=" << worst_u1
                            << " u2=" << worst_u2;
  }
}

class StableSketchNorm : public ::testing::TestWithParam<double> {};

TEST_P(StableSketchNorm, MedianEstimatesLpNorm) {
  const double p = GetParam();
  const uint64_t n = 512;
  const auto stream = stream::ZipfianVector(n, 0.8, 100, true, 20);
  stream::ExactVector x(n);
  x.Apply(stream);
  const double truth = x.NormP(p);
  // Average the success indicator over independent sketches.
  int within = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    StableSketch sketch(p, 150, 21 + static_cast<uint64_t>(trial));
    for (const auto& u : stream) {
      sketch.Update(u.index, static_cast<double>(u.delta));
    }
    const double est = sketch.EstimateNorm();
    if (est > 0.7 * truth && est < 1.4 * truth) ++within;
  }
  EXPECT_GE(within, trials - 4) << "p = " << p;
}

INSTANTIATE_TEST_SUITE_P(Ps, StableSketchNorm,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

TEST(DyadicCountSketch, FindsSignedHeavyLeaves) {
  // General updates: a heavy negative coordinate and cancelling noise.
  DyadicCountSketch tree(10, 11, 96, 31);
  tree.Update(100, -600.0);
  tree.Update(850, 500.0);
  Rng rng(32);
  for (int j = 0; j < 400; ++j) {
    const uint64_t i = rng.Below(1024);
    tree.Update(i, 1.0);
    tree.Update(i, -1.0);  // perfectly cancelling churn
  }
  const auto heavy = tree.HeavyLeaves(250.0);
  EXPECT_TRUE(std::find(heavy.begin(), heavy.end(), 100u) != heavy.end());
  EXPECT_TRUE(std::find(heavy.begin(), heavy.end(), 850u) != heavy.end());
  EXPECT_LE(heavy.size(), 4u);
  EXPECT_NEAR(tree.Query(100), -600.0, 60.0);
}

TEST(DyadicCountSketch, OppositeSignsInDistinctStartBlocks) {
  DyadicCountSketch tree(8, 11, 96, 33);
  // Universe 256, start level 2 (64 blocks of width 4): coordinates 3 and
  // 200 live in different starting blocks, so no cancellation en route.
  ASSERT_EQ(tree.start_level(), 2);
  tree.Update(3, 400.0);
  tree.Update(200, -400.0);
  const auto heavy = tree.HeavyLeaves(200.0);
  EXPECT_EQ(heavy.size(), 2u);
}

TEST(DyadicCountSketch, DocumentedMissOnAdversarialCancellation) {
  // +v and -v inside the SAME starting block cancel at every maintained
  // level above the leaves: the dyadic descent misses them BY DESIGN (this
  // is the documented trade-off; the flat CsHeavyHitters scan is the sound
  // tool for adversarial general-update extraction).
  DyadicCountSketch tree(8, 11, 96, 35);
  tree.Update(4, 400.0);
  tree.Update(5, -400.0);  // same width-4 starting block as coordinate 4
  EXPECT_TRUE(tree.HeavyLeaves(200.0).empty());
  // The leaf estimates themselves are intact — only the descent is blind.
  EXPECT_NEAR(tree.Query(4), 400.0, 1e-6);
  EXPECT_NEAR(tree.Query(5), -400.0, 1e-6);
}

TEST(DyadicCountSketch, EmptyTreeReportsNothing) {
  DyadicCountSketch tree(6, 7, 24, 34);
  EXPECT_TRUE(tree.HeavyLeaves(1.0).empty());
  EXPECT_DOUBLE_EQ(tree.Query(5), 0.0);
}

TEST(DyadicCountSketch, KeepsOnlyTheLevelsDescentsRead) {
  // Every descent starts at start_level(), so the tree holds levels
  // 0..start_level() and nothing above: its space and its counters are
  // those of start_level() + 1 count-sketches of the same shape.
  const int rows = 5;
  const int buckets = 48;
  const CountSketch level(rows, buckets, 1);
  BitWriter level_counters;
  level.SerializeCounters(&level_counters);
  for (int log_n : {0, 6, 7, 20}) {
    const DyadicCountSketch tree(log_n, rows, buckets, 36);
    EXPECT_EQ(tree.start_level(), std::max(0, log_n - 6));
    const size_t levels = size_t(tree.start_level()) + 1;
    EXPECT_EQ(tree.SpaceBits(64), levels * level.SpaceBits(64))
        << "log_n " << log_n;
    BitWriter counters;
    tree.SerializeCounters(&counters);
    EXPECT_EQ(counters.bit_count(), levels * level_counters.bit_count())
        << "log_n " << log_n;
  }
}

// ---- Batched-update fast path: UpdateBatch must produce bit-identical
// ---- state to the per-update loop, for any batch partition of the stream.

// Feeds `stream` per-update to `scalar` and to `batched` via UpdateBatch
// with a chunk pattern covering empty, single-element, and large batches.
template <typename Sink>
void FeedBothPaths(const stream::UpdateStream& stream, Sink* scalar,
                   Sink* batched) {
  for (const auto& u : stream) {
    scalar->Update(u.index, static_cast<double>(u.delta));
  }
  const size_t chunks[] = {0, 1, 3, 0, 17, 64, 1, 1024};
  size_t pos = 0, c = 0;
  while (pos < stream.size()) {
    const size_t len =
        std::min(chunks[c % (sizeof(chunks) / sizeof(chunks[0]))],
                 stream.size() - pos);
    batched->UpdateBatch(stream.data() + pos, len);
    pos += len;
    ++c;
  }
  batched->UpdateBatch(stream.data(), 0);  // trailing empty batch is a no-op
}

template <typename Sink>
std::vector<uint64_t> CounterWords(const Sink& sink) {
  lps::BitWriter writer;
  sink.SerializeCounters(&writer);
  return writer.words();
}

// A general (signed deltas) and a strict-turnstile (non-negative final
// coordinates) stream, as the paper's two update models.
stream::UpdateStream GeneralStream() {
  return stream::UniformTurnstile(512, 4000, 100, 91);
}
stream::UpdateStream StrictTurnstileStream() {
  return stream::PlantedHeavyHitters(512, 6, 250, 300, false, 92);
}

TEST(CountSketch, BatchMatchesScalarBitExact) {
  for (const auto& stream : {GeneralStream(), StrictTurnstileStream()}) {
    CountSketch scalar(11, 96, 7), batched(11, 96, 7);
    FeedBothPaths(stream, &scalar, &batched);
    EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
    for (uint64_t i = 0; i < 512; i += 37) {
      EXPECT_EQ(scalar.Query(i), batched.Query(i));
    }
  }
}

TEST(CountSketch, ScaledUpdateBatchMatchesScalar) {
  // The double-delta overload, as fed by the Lp sampler rounds.
  const auto stream = GeneralStream();
  CountSketch scalar(9, 64, 8), batched(9, 64, 8);
  std::vector<stream::ScaledUpdate> scaled;
  for (const auto& u : stream) {
    const double d = static_cast<double>(u.delta) * 0.5;
    scalar.Update(u.index, d);
    scaled.push_back({u.index, d});
  }
  batched.UpdateBatch(scaled.data(), scaled.size());
  EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
}

TEST(CountSketch, EmptyAndSingleElementBatches) {
  CountSketch scalar(9, 64, 9), batched(9, 64, 9);
  batched.UpdateBatch(static_cast<const stream::Update*>(nullptr), 0);
  EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
  const stream::Update one{5, -3};
  scalar.Update(5, -3.0);
  batched.UpdateBatch(&one, 1);
  EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
}

TEST(CountMin, BatchMatchesScalarBitExact) {
  for (const auto& stream : {GeneralStream(), StrictTurnstileStream()}) {
    CountMin scalar(11, 64, 17), batched(11, 64, 17);
    FeedBothPaths(stream, &scalar, &batched);
    EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
  }
}

TEST(AmsF2, BatchMatchesScalarBitExact) {
  for (const auto& stream : {GeneralStream(), StrictTurnstileStream()}) {
    AmsF2 scalar(7, 12, 21), batched(7, 12, 21);
    FeedBothPaths(stream, &scalar, &batched);
    // No counter serialization on AmsF2; the estimators are deterministic
    // functions of the counters, so exact equality certifies state.
    EXPECT_EQ(scalar.EstimateF2(), batched.EstimateF2());
    EXPECT_EQ(scalar.EstimateResidualL2({{3, 5.0}}),
              batched.EstimateResidualL2({{3, 5.0}}));
  }
}

TEST(StableSketch, BatchMatchesScalarBitExact) {
  // The stable family is FP-taxonomy: batch-vs-per-update bit-identity is
  // guaranteed on the scalar kernel backend (the SIMD Cauchy path is
  // query-equivalent instead — see the dispatched-backend test below), so
  // pin scalar for the exact comparison.
  const lps::kernels::Backend dispatched = lps::kernels::ActiveBackend();
  ASSERT_TRUE(
      lps::kernels::ForceBackendForTesting(lps::kernels::Backend::kScalar));
  for (const auto& stream : {GeneralStream(), StrictTurnstileStream()}) {
    StableSketch scalar(1.0, 32, 33), batched(1.0, 32, 33);
    FeedBothPaths(stream, &scalar, &batched);
    EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
  }
  lps::kernels::ForceBackendForTesting(dispatched);
}

TEST(StableSketch, BatchMatchesScalarUnderDispatchedBackend) {
  // Under whatever backend the CPU dispatched, batched ingestion must stay
  // query-equivalent to the per-update path: same counters to ~1e-9
  // relative (vectorized tan approximation + reassociated accumulation).
  for (const auto& stream : {GeneralStream(), StrictTurnstileStream()}) {
    StableSketch scalar(1.0, 32, 33), batched(1.0, 32, 33);
    FeedBothPaths(stream, &scalar, &batched);
    lps::BitWriter wa, wb;
    scalar.SerializeCounters(&wa);
    batched.SerializeCounters(&wb);
    lps::BitReader ra(wa), rb(wb);
    for (int j = 0; j < 32; ++j) {
      const double a = ra.ReadDouble(), b = rb.ReadDouble();
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(a))) << "row " << j;
    }
  }
}

TEST(DyadicCountMin, BatchMatchesScalarBitExact) {
  const auto stream = stream::PlantedHeavyHitters(256, 4, 100, 64, false, 93);
  DyadicCountMin scalar(8, 7, 32, 44), batched(8, 7, 32, 44);
  FeedBothPaths(stream, &scalar, &batched);
  for (uint64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(scalar.Query(i), batched.Query(i));
  }
  EXPECT_EQ(scalar.HeavyLeaves(50.0), batched.HeavyLeaves(50.0));
}

// Universes past 2^32. The AVX2 row kernel takes its two-multiply path
// only for quads of keys below 2^32, and the tests above stay under 2^9.
// Here index bit widths are drawn uniformly from 1..log_n, so flat sketches
// and the low tree levels see quads that mix short and long keys, and the
// levels at or above log_n - 32 see only short ones.
stream::UpdateStream WideStream(int log_n, uint64_t seed) {
  Rng rng(seed);
  stream::UpdateStream s(3000);
  for (auto& u : s) {
    const uint64_t shift = static_cast<uint64_t>(64 - log_n) +
                           rng.Below(static_cast<uint64_t>(log_n));
    u.index = rng.Next() >> shift;
    u.delta = static_cast<int64_t>(rng.Below(201)) - 100;
  }
  const uint64_t top = log_n == 64 ? ~0ULL : (1ULL << log_n) - 1;
  const uint64_t edges[] = {0, (1ULL << 32) - 1, 1ULL << 32, (1ULL << 61) - 2,
                            (1ULL << 61) - 1, top};
  for (size_t e = 0; e < sizeof(edges) / sizeof(edges[0]); ++e) {
    s[7 * e].index = std::min(edges[e], top);
  }
  return s;
}

// Per-update ingest against batches of 1, 3, 4, 4096 and the sizes around
// the first cascade level of a tree fed combined batches (63 to 65, 1023
// and 1025 leaves), under every available kernel backend: all land on the
// same counters. The per-update path is the real-valued one, in stream
// order, so for the integer-exact trees this also pins the combined
// integer path to it.
template <typename Sink, typename MakeFn>
void ExpectBatchesMatchPerUpdateOnEveryBackend(
    const stream::UpdateStream& stream, MakeFn make) {
  const lps::kernels::Backend dispatched = lps::kernels::ActiveBackend();
  std::vector<uint64_t> reference;
  for (lps::kernels::Backend backend : lps::kernels::AvailableBackends()) {
    ASSERT_TRUE(lps::kernels::ForceBackendForTesting(backend));
    const char* name = lps::kernels::BackendName(backend);
    Sink per_update = make();
    for (const auto& u : stream) {
      per_update.Update(u.index, static_cast<double>(u.delta));
    }
    const std::vector<uint64_t> words = CounterWords(per_update);
    if (reference.empty()) reference = words;
    EXPECT_EQ(words, reference) << name;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{63},
                         size_t{64}, size_t{65}, size_t{1023}, size_t{1025},
                         size_t{4096}}) {
      Sink batched = make();
      for (size_t pos = 0; pos < stream.size(); pos += batch) {
        batched.UpdateBatch(stream.data() + pos,
                            std::min(batch, stream.size() - pos));
      }
      EXPECT_EQ(CounterWords(batched), words) << name << " batch " << batch;
    }
  }
  lps::kernels::ForceBackendForTesting(dispatched);
}

TEST(CountSketch, BatchMatchesPerUpdateOn64BitIndexes) {
  ExpectBatchesMatchPerUpdateOnEveryBackend<CountSketch>(
      WideStream(64, 94), [] { return CountSketch(9, 72, 31); });
}

TEST(CountMin, BatchMatchesPerUpdateOn64BitIndexes) {
  ExpectBatchesMatchPerUpdateOnEveryBackend<CountMin>(
      WideStream(64, 95), [] { return CountMin(9, 72, 32); });
}

TEST(DyadicCountSketch, BatchMatchesPerUpdateAtLogN40) {
  ExpectBatchesMatchPerUpdateOnEveryBackend<DyadicCountSketch>(
      WideStream(40, 96), [] { return DyadicCountSketch(40, 5, 24, 33); });
}

TEST(DyadicCountMin, BatchMatchesPerUpdateAtLogN40) {
  ExpectBatchesMatchPerUpdateOnEveryBackend<DyadicCountMin>(
      WideStream(40, 97), [] { return DyadicCountMin(40, 5, 24, 34); });
}

// Integer streams whose batches repeat keys, over [0, 2^12), for the
// combined path of the trees and the heavy hitters built on them: Zipf(1)
// keys, one key 4096 times over, +d/-d pairs that cancel inside a batch on
// one leaf or across the two leaves of a block, and negative deltas.
TEST(DyadicCountMin, CombinedBatchesMatchPerUpdate) {
  constexpr int kLogN = 12;
  constexpr uint64_t kN = uint64_t{1} << kLogN;
  // Odd multiplier: a bijection of [0, kN) that spreads the heavy ranks
  // over the tree's blocks.
  const auto spread = [](uint64_t rank) {
    return (rank * 0x9E3779B97F4A7C15ULL) & (kN - 1);
  };
  Rng rng(98);
  stream::UpdateStream zipf(5000), one_key(4096, {kN - 1, 3}), cancelling,
      negative(3000);
  for (auto& u : zipf) {
    const double rank = std::exp(rng.NextDouble() * std::log(double{kN}));
    u = {spread(static_cast<uint64_t>(rank) - 1),
         static_cast<int64_t>(1 + rng.Below(3))};
  }
  for (int j = 0; j < 1500; ++j) {
    const uint64_t leaf = rng.Below(kN);
    const int64_t d = static_cast<int64_t>(1 + rng.Below(50));
    cancelling.push_back({leaf, d});
    cancelling.push_back({rng.Below(kN), 1});
    cancelling.push_back({j % 2 == 0 ? leaf : leaf ^ 1, -d});
  }
  for (auto& u : negative) {
    u = {rng.Below(kN), -static_cast<int64_t>(1 + rng.Below(100))};
  }
  for (const auto& stream : {zipf, one_key, cancelling, negative}) {
    ExpectBatchesMatchPerUpdateOnEveryBackend<DyadicCountMin>(
        stream, [] { return DyadicCountMin(kLogN, 5, 24, 35); });
    ExpectBatchesMatchPerUpdateOnEveryBackend<DyadicCountSketch>(
        stream, [] { return DyadicCountSketch(kLogN, 5, 24, 36); });
    ExpectBatchesMatchPerUpdateOnEveryBackend<heavy::CmHeavyHitters>(
        stream, [] {
          heavy::CmHeavyHitters::Params params;
          params.n = kN;
          params.phi = 0.05;
          params.seed = 37;
          return heavy::CmHeavyHitters(params);
        });
    ExpectBatchesMatchPerUpdateOnEveryBackend<heavy::DyadicHeavyHitters>(
        stream, [] { return heavy::DyadicHeavyHitters(kLogN, 0.05, 38); });
  }
}

// Wire deltas reach the combine unchecked. Two INT64_MAX deltas on one key
// would overflow an int64_t sum; summed in double the batch lands where
// the stream-order feed does (2^63 + 2^63 - 2^63, all exact).
TEST(DyadicCountMin, ExtremeDeltasOnOneKeyCombineWithoutOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const stream::UpdateStream batch = {{5, kMax}, {5, kMax}, {5, kMin}};
  heavy::CmHeavyHitters::Params params;
  params.n = 64;
  params.seed = 39;
  heavy::CmHeavyHitters per_update(params), combined(params);
  DyadicCountMin tree_per_update(6, 5, 24, 40), tree_combined(6, 5, 24, 40);
  for (const auto& u : batch) {
    per_update.Update(u.index, static_cast<double>(u.delta));
    tree_per_update.Update(u.index, static_cast<double>(u.delta));
  }
  combined.UpdateBatch(batch.data(), batch.size());
  tree_combined.UpdateBatch(batch.data(), batch.size());
  EXPECT_EQ(CounterWords(combined), CounterWords(per_update));
  EXPECT_EQ(CounterWords(tree_combined), CounterWords(tree_per_update));
  EXPECT_EQ(tree_combined.Query(5), std::ldexp(1.0, 63));
}

TEST(DyadicCountMin, PointQueriesAndHeavyLeaves) {
  DyadicCountMin tree(10, 9, 64, 22);  // universe 1024
  tree.Update(100, 500.0);
  tree.Update(700, 300.0);
  Rng rng(23);
  for (int j = 0; j < 500; ++j) tree.Update(rng.Below(1024), 1.0);
  EXPECT_GE(tree.Query(100), 500.0);
  const auto heavy = tree.HeavyLeaves(250.0);
  EXPECT_TRUE(std::find(heavy.begin(), heavy.end(), 100u) != heavy.end());
  EXPECT_TRUE(std::find(heavy.begin(), heavy.end(), 700u) != heavy.end());
  EXPECT_LE(heavy.size(), 10u);
}

}  // namespace
}  // namespace lps::sketch
