#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/stats/stats.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/util/serialize.h"

namespace lps::core {
namespace {

LpSamplerParams BaseParams(uint64_t n, double p, double eps, uint64_t seed) {
  LpSamplerParams params;
  params.n = n;
  params.p = p;
  params.eps = eps;
  params.seed = seed;
  return params;
}

TEST(LpSamplerResolve, Figure1ParametersPNot1) {
  auto params = LpSampler::Resolve(BaseParams(1024, 1.5, 0.25, 1));
  // k = 10 * ceil(1/|p-1|) = 20.
  EXPECT_EQ(params.k, 20);
  // m = Theta(eps^{-(p-1)}) = Theta(2).
  EXPECT_GE(params.m, 8);
  EXPECT_GT(params.cs_rows, 0);
  EXPECT_GT(params.repetitions, 0);

  auto params_half = LpSampler::Resolve(BaseParams(1024, 0.5, 0.25, 1));
  EXPECT_EQ(params_half.k, 20);
  // p < 1: m is a constant independent of eps.
  auto params_half_tiny_eps = LpSampler::Resolve(BaseParams(1024, 0.5, 0.01, 1));
  EXPECT_EQ(params_half.m, params_half_tiny_eps.m);
}

TEST(LpSamplerResolve, Figure1ParametersP1) {
  auto params = LpSampler::Resolve(BaseParams(1024, 1.0, 0.25, 1));
  // k = m = O(log 1/eps).
  EXPECT_EQ(params.k, params.m);
  auto finer = LpSampler::Resolve(BaseParams(1024, 1.0, 0.03125, 1));
  EXPECT_GT(finer.m, params.m);
}

TEST(LpSampler, ZeroVectorFails) {
  LpSampler sampler(BaseParams(256, 1.0, 0.5, 1));
  EXPECT_FALSE(sampler.Sample().ok());
  // Cancelling updates: still the zero vector.
  LpSampler sampler2(BaseParams(256, 1.0, 0.5, 2));
  sampler2.Update(7, 5);
  sampler2.Update(7, -5);
  EXPECT_FALSE(sampler2.Sample().ok());
}

TEST(LpSampler, SingleCoordinateVectorIsAlwaysSampled) {
  int successes = 0, correct = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    auto params = BaseParams(256, 1.0, 0.5, seed);
    params.repetitions = 24;
    LpSampler sampler(params);
    sampler.Update(123, 42);
    auto res = sampler.Sample();
    if (res.ok()) {
      ++successes;
      if (res.value().index == 123) ++correct;
    }
  }
  EXPECT_GE(successes, 25);
  EXPECT_EQ(correct, successes);
}

TEST(LpSampler, DominantCoordinateWinsConditionally) {
  // One coordinate carries 99% of the L1 mass; conditioned on success the
  // sampler returns it the overwhelming majority of the time.
  int successes = 0, dominant = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto params = BaseParams(512, 1.0, 0.5, 1000 + seed);
    params.repetitions = 16;
    LpSampler sampler(params);
    sampler.Update(77, 9900);
    for (uint64_t i = 0; i < 100; ++i) sampler.Update(i, 1);
    auto res = sampler.Sample();
    if (res.ok()) {
      ++successes;
      if (res.value().index == 77) ++dominant;
    }
  }
  ASSERT_GE(successes, 20);
  EXPECT_GE(static_cast<double>(dominant) / successes, 0.9);
}

TEST(LpSampler, EstimateRelativeErrorWithinEps) {
  // Lemma 4 / footnote 1: the returned estimate approximates x_i within
  // eps relative error w.h.p.
  const uint64_t n = 512;
  const double eps = 0.25;
  const auto stream = stream::ZipfianVector(n, 1.0, 1000, true, 7);
  stream::ExactVector x(n);
  x.Apply(stream);
  int samples = 0, bad = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    auto params = BaseParams(n, 1.0, eps, 2000 + seed);
    params.repetitions = 8;
    LpSampler sampler(params);
    for (const auto& u : stream) {
      sampler.Update(u.index, static_cast<double>(u.delta));
    }
    auto res = sampler.Sample();
    if (!res.ok()) continue;
    ++samples;
    const double truth = static_cast<double>(x[res.value().index]);
    if (std::abs(res.value().estimate - truth) > eps * std::abs(truth) + 1e-9) {
      ++bad;
    }
  }
  ASSERT_GE(samples, 20);
  EXPECT_LE(bad, samples / 10);
}

class LpSamplerDistribution : public ::testing::TestWithParam<double> {};

// Claim C1 (Theorem 1 / Lemma 4): conditioned on success, the output of a
// single round follows the Lp distribution up to O(eps) error. Measured as
// total variation over a small universe.
TEST_P(LpSamplerDistribution, ConditionalLawMatchesLpDistribution) {
  const double p = GetParam();
  const uint64_t n = 64;
  // A spread of magnitudes, mixed signs.
  stream::UpdateStream stream;
  stream::ExactVector x(n);
  for (uint64_t i = 0; i < 32; ++i) {
    const int64_t v = (i % 2 == 0 ? 1 : -1) * static_cast<int64_t>(1 + i * i / 4);
    stream.push_back({i, v});
    x.Apply({i, v});
  }
  const auto exact = x.LpDistribution(p);

  std::vector<uint64_t> counts(n, 0);
  uint64_t samples = 0;
  const int trials = 4000;
  for (int trial = 0; trial < trials; ++trial) {
    auto params = BaseParams(n, p, 0.25, 5000 + static_cast<uint64_t>(trial));
    params.repetitions = 1;
    LpSampler sampler(params);
    for (const auto& u : stream) {
      sampler.Update(u.index, static_cast<double>(u.delta));
    }
    auto res = sampler.Sample();
    if (res.ok()) {
      ++counts[res.value().index];
      ++samples;
    }
  }
  ASSERT_GE(samples, 300u) << "per-round success rate collapsed (p=" << p << ")";
  const double tv = stats::TotalVariation(counts, exact);
  EXPECT_LT(tv, 0.13) << "p = " << p << ", samples = " << samples;
}

INSTANTIATE_TEST_SUITE_P(Ps, LpSamplerDistribution,
                         ::testing::Values(0.5, 1.0, 1.5));

TEST(LpSampler, SuccessRateGrowsWithRepetitions) {
  const uint64_t n = 256;
  const auto stream = stream::SignVector(n, 64, 11);
  int succ_few = 0, succ_many = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    for (int reps : {1, 24}) {
      auto params = BaseParams(n, 1.0, 0.25, 9000 + static_cast<uint64_t>(trial));
      params.repetitions = reps;
      LpSampler sampler(params);
      for (const auto& u : stream) {
        sampler.Update(u.index, static_cast<double>(u.delta));
      }
      const bool ok = sampler.Sample().ok();
      (reps == 1 ? succ_few : succ_many) += ok;
    }
  }
  EXPECT_GT(succ_many, succ_few);
  EXPECT_GE(succ_many, trials * 3 / 4);
}

TEST(LpSamplerRound, OverrideHookPinsScalingFactor) {
  auto params = LpSampler::Resolve(BaseParams(128, 1.0, 0.5, 3));
  params.override_index = 42;
  params.override_t = 0.125;
  LpSamplerRound round(params, 0);
  EXPECT_DOUBLE_EQ(round.ScalingFactor(42), 0.125);
  EXPECT_NE(round.ScalingFactor(41), 0.125);
}

// Lemma 3's point: the abort probability stays O(eps) even conditioned on
// an arbitrary fixed scaling factor for one coordinate. Pinning t_i to an
// extreme value must not blow up the abort rate.
TEST(LpSamplerRound, AbortRateInsensitiveToPinnedScalingFactor) {
  const uint64_t n = 256;
  const auto stream = stream::ZipfianVector(n, 1.0, 100, true, 13);
  stream::ExactVector x(n);
  x.Apply(stream);
  const double r = x.NormP(1.0);  // use the exact norm to isolate the test

  for (double pinned : {1e-6, 0.5, 1.0}) {
    int aborts = 0;
    const int trials = 150;
    for (int trial = 0; trial < trials; ++trial) {
      auto params = LpSampler::Resolve(
          BaseParams(n, 1.0, 0.25, 40000 + static_cast<uint64_t>(trial)));
      params.repetitions = 1;
      params.override_index = 10;
      params.override_t = pinned;
      LpSamplerRound round(params, 0);
      for (const auto& u : stream) {
        round.Update(u.index, static_cast<double>(u.delta));
      }
      if (round.WouldAbortOnTail(r)) ++aborts;
    }
    EXPECT_LE(aborts, trials / 4) << "pinned t = " << pinned;
  }
}

TEST(LpSampler, SpaceBitsLog2Shape) {
  // Under the paper's counter model (counters of O(log n) bits), doubling
  // log n should roughly quadruple per-round space: rows scale with log n
  // and counter width with log n.
  auto p_small = BaseParams(1 << 8, 1.0, 0.5, 1);
  p_small.repetitions = 1;
  auto p_large = BaseParams(1 << 16, 1.0, 0.5, 1);
  p_large.repetitions = 1;
  LpSampler small(p_small), large(p_large);
  const double ratio = static_cast<double>(large.SpaceBits(16)) /
                       static_cast<double>(small.SpaceBits(8));
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

TEST(LpSampler, CountersSerializeRoundTrip) {
  auto params = BaseParams(128, 1.0, 0.5, 77);
  params.repetitions = 3;
  LpSampler alice(params);
  alice.Update(5, 10);
  alice.Update(90, -3);
  BitWriter w;
  alice.SerializeCounters(&w);
  LpSampler bob(params);
  BitReader r(w);
  bob.DeserializeCounters(&r);
  // Same seeds + same counters => identical behavior.
  auto sa = alice.Sample();
  auto sb = bob.Sample();
  EXPECT_EQ(sa.ok(), sb.ok());
  if (sa.ok()) {
    EXPECT_EQ(sa.value().index, sb.value().index);
    EXPECT_DOUBLE_EQ(sa.value().estimate, sb.value().estimate);
  }
}

std::vector<uint64_t> CounterWords(const LpSampler& sampler) {
  BitWriter writer;
  sampler.SerializeCounters(&writer);
  return writer.words();
}

TEST(LpSampler, BatchLargerThanChunkMatchesPerUpdatePath) {
  // The sampler walks a batch in fixed-size chunks; a batch spanning
  // several chunks must land where per-update ingestion does. At p != 1
  // every kernel backend reproduces the scalar stable transform bit for
  // bit, so the comparison is exact whichever backend dispatched.
  auto params = BaseParams(4096, 1.5, 0.5, 91);
  params.repetitions = 2;
  const auto stream = stream::UniformTurnstile(params.n, 10000, 50, 92);
  LpSampler per_update(params), batched(params);
  for (const auto& u : stream) {
    per_update.Update(u.index, static_cast<double>(u.delta));
  }
  batched.UpdateBatch(stream.data(), stream.size());
  EXPECT_EQ(CounterWords(per_update), CounterWords(batched));
}

TEST(LpSampler, FeedGeneratedMatchesUpdateBatch) {
  // The bulk feed walks every part through the chunks UpdateBatch makes,
  // starting at position 0, so it lands on UpdateBatch's state bit for bit
  // on every backend, the p = 1 Cauchy rows included. The stream ends
  // inside its third chunk.
  for (const double p : {0.5, 1.0, 1.5}) {
    SCOPED_TRACE(p);
    auto params = BaseParams(4096, p, 0.5, 95);
    params.repetitions = 3;
    const auto updates = stream::UniformTurnstile(params.n, 10000, 50, 96);
    const auto source = [&updates](uint64_t start, size_t length,
                                   stream::ScaledUpdate* out) {
      for (size_t t = 0; t < length; ++t) {
        const stream::Update& u = updates[start + t];
        out[t] = {u.index, static_cast<double>(u.delta)};
      }
    };
    LpSampler batched(params), generated(params);
    batched.UpdateBatch(updates.data(), updates.size());
    generated.FeedGenerated(updates.size(), source);
    EXPECT_EQ(CounterWords(batched), CounterWords(generated));
  }
}

// Resident set size of this process in KiB, or -1 without procfs.
long ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(LpSampler, LargeBatchRetainsBoundedScratch) {
  // Batch scratch is per thread, one set for the sampler's sketches
  // whatever their number, and is kept for the next batch. Sized to the
  // sampler's fixed chunk it retains ~0.5 MiB. The bound rejects scratch
  // sized to this 2^16-update batch (~6 MiB) and scratch kept per round
  // (3.3 MiB for these 12 rounds).
  auto params = BaseParams(uint64_t{1} << 20, 1.5, 0.5, 93);
  params.repetitions = 12;
  LpSampler sampler(params);
  const auto batch = stream::UniformTurnstile(params.n, 1 << 16, 50, 94);
  const long before = ResidentKiB();
  if (before < 0) GTEST_SKIP() << "VmRSS unavailable without procfs";
  sampler.UpdateBatch(batch.data(), batch.size());
  const long growth_mib = (ResidentKiB() - before) / 1024;
  EXPECT_LT(growth_mib, 2) << "retained batch scratch, MiB";
}

}  // namespace
}  // namespace lps::core
