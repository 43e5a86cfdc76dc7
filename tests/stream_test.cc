#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/heavy/heavy_hitters.h"
#include "src/kernels/kernels.h"
#include "src/norm/l0_norm.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/serialize.h"

namespace lps::stream {
namespace {

// Batch == per-update *bit*-identity for sketches embedding a StableSketch
// only holds on the scalar kernel backend: SIMD backends route a batch of
// one through their scalar tail (libm tan) but vectorize larger batches
// (polynomial sinpi + reassociated sums) — query-equivalent, not bit-equal.
// Tests asserting CounterWords equality on such stacks pin scalar.
class ScopedScalarKernels {
 public:
  ScopedScalarKernels() : saved_(lps::kernels::ActiveBackend()) {
    lps::kernels::ForceBackendForTesting(lps::kernels::Backend::kScalar);
  }
  ~ScopedScalarKernels() { lps::kernels::ForceBackendForTesting(saved_); }

 private:
  lps::kernels::Backend saved_;
};

TEST(ExactVector, ApplyAndNorms) {
  ExactVector x(8);
  x.Apply({0, 3});
  x.Apply({1, -4});
  x.Apply({0, 1});  // x = (4, -4, 0, ...)
  EXPECT_EQ(x[0], 4);
  EXPECT_EQ(x[1], -4);
  EXPECT_EQ(x.L0(), 2u);
  EXPECT_DOUBLE_EQ(x.NormP(1.0), 8.0);
  EXPECT_DOUBLE_EQ(x.NormP(2.0), std::sqrt(32.0));
  EXPECT_DOUBLE_EQ(x.NormPToP(0.5), 2 * std::sqrt(4.0));
  EXPECT_EQ(x.PositiveMass(), 4);
  EXPECT_EQ(x.NegativeMass(), 4);
  EXPECT_EQ(x.Total(), 0);
}

TEST(ExactVector, LpDistribution) {
  ExactVector x(4);
  x.Apply({0, 1});
  x.Apply({1, -2});
  x.Apply({2, 3});
  const auto d1 = x.LpDistribution(1.0);
  EXPECT_DOUBLE_EQ(d1[0], 1.0 / 6);
  EXPECT_DOUBLE_EQ(d1[1], 2.0 / 6);
  EXPECT_DOUBLE_EQ(d1[2], 3.0 / 6);
  EXPECT_DOUBLE_EQ(d1[3], 0.0);
  const auto d0 = x.LpDistribution(0.0);
  EXPECT_DOUBLE_EQ(d0[0], 1.0 / 3);
  EXPECT_DOUBLE_EQ(d0[3], 0.0);
  const auto d2 = x.LpDistribution(2.0);
  EXPECT_DOUBLE_EQ(d2[2], 9.0 / 14);
}

TEST(ExactVector, ErrM2DropsLargestEntries) {
  ExactVector x(6);
  x.Apply({0, 10});
  x.Apply({1, -5});
  x.Apply({2, 2});
  x.Apply({3, 1});
  EXPECT_DOUBLE_EQ(x.ErrM2(0), std::sqrt(100.0 + 25 + 4 + 1));
  EXPECT_DOUBLE_EQ(x.ErrM2(1), std::sqrt(25.0 + 4 + 1));
  EXPECT_DOUBLE_EQ(x.ErrM2(2), std::sqrt(4.0 + 1));
  EXPECT_DOUBLE_EQ(x.ErrM2(4), 0.0);
  EXPECT_DOUBLE_EQ(x.ErrM2(100), 0.0);
}

TEST(ExactVector, HeavyHitters) {
  ExactVector x(8);
  x.Apply({0, 100});
  x.Apply({1, -100});
  x.Apply({2, 1});
  const auto heavy = x.HeavyHitters(1.0, 0.4);
  EXPECT_EQ(heavy, (std::vector<uint64_t>{0, 1}));
}

TEST(Generators, UniformTurnstileShape) {
  const auto stream = UniformTurnstile(100, 5000, 10, 1);
  ASSERT_EQ(stream.size(), 5000u);
  for (const auto& u : stream) {
    EXPECT_LT(u.index, 100u);
    EXPECT_NE(u.delta, 0);
    EXPECT_LE(std::abs(u.delta), 10);
  }
}

TEST(Generators, ZipfianVectorIsZipfian) {
  const auto stream = ZipfianVector(64, 1.0, 1000, false, 2);
  ExactVector x(64);
  x.Apply(stream);
  std::vector<int64_t> magnitudes;
  for (uint64_t i = 0; i < 64; ++i) magnitudes.push_back(std::abs(x[i]));
  std::sort(magnitudes.begin(), magnitudes.end(), std::greater<>());
  EXPECT_EQ(magnitudes[0], 1000);
  EXPECT_NEAR(magnitudes[1], 500, 1);
  EXPECT_NEAR(magnitudes[3], 250, 1);
}

TEST(Generators, SignVectorExactlyK) {
  const auto stream = SignVector(256, 40, 3);
  ExactVector x(256);
  x.Apply(stream);
  EXPECT_EQ(x.L0(), 40u);
  for (uint64_t i = 0; i < 256; ++i) {
    EXPECT_LE(std::abs(x[i]), 1);
  }
}

TEST(Generators, SparseVectorExactlyK) {
  const auto stream = SparseVector(512, 25, 1000, 4);
  ExactVector x(512);
  x.Apply(stream);
  EXPECT_EQ(x.L0(), 25u);
}

TEST(Generators, InsertDeleteChurnLeavesSurvivors) {
  const auto stream = InsertDeleteChurn(1024, 400, 7, 5);
  ExactVector x(1024);
  x.Apply(stream);
  EXPECT_EQ(x.L0(), 7u);
  for (uint64_t i = 0; i < 1024; ++i) {
    EXPECT_TRUE(x[i] == 0 || x[i] == 1);
  }
}

TEST(Generators, PlantedHeavyHittersAreHeavy) {
  const auto stream = PlantedHeavyHitters(1024, 3, 500, 200, false, 6);
  ExactVector x(1024);
  x.Apply(stream);
  EXPECT_EQ(x.HeavyHitters(1.0, 0.2).size(), 3u);
  EXPECT_EQ(x.L0(), 203u);
}

TEST(Generators, DuplicateStreamPigeonhole) {
  const auto letters = DuplicateStream(100, 1, 7);
  EXPECT_EQ(letters.size(), 101u);
  std::map<uint64_t, int> counts;
  for (uint64_t l : letters) ++counts[l];
  int dups = 0;
  for (const auto& [letter, c] : counts) {
    if (c >= 2) ++dups;
  }
  EXPECT_GE(dups, 1);
}

TEST(Generators, DuplicateStreamZeroExtrasIsPermutation) {
  const auto letters = DuplicateStream(50, 0, 8);
  EXPECT_EQ(letters.size(), 50u);
  std::vector<uint64_t> sorted = letters;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Generators, ShortStreamWithDuplicatesCounts) {
  const uint64_t n = 200, s = 30, dups = 5;
  const auto letters = ShortStreamWithDuplicates(n, s, dups, 9);
  EXPECT_EQ(letters.size(), n - s);
  std::map<uint64_t, int> counts;
  for (uint64_t l : letters) ++counts[l];
  uint64_t twice = 0;
  for (const auto& [letter, c] : counts) {
    EXPECT_LE(c, 2);
    if (c == 2) ++twice;
  }
  EXPECT_EQ(twice, dups);
}

TEST(Generators, DuplicatesReductionVector) {
  // Theorem 3's reduction: x_i = occurrences - 1.
  const LetterStream letters = {3, 3, 5};
  const auto stream = DuplicatesReduction(8, letters);
  ExactVector x(8);
  x.Apply(stream);
  EXPECT_EQ(x[3], 1);   // appears twice
  EXPECT_EQ(x[5], 0);   // appears once
  EXPECT_EQ(x[0], -1);  // missing
  EXPECT_EQ(x.Total(), static_cast<int64_t>(letters.size()) - 8);
}

// ---- The batch driver (a one-shard inline ParallelPipeline): chunking,
// ---- PushBatch/Flush at any arrival chunking, and end-to-end equivalence
// ---- of the batched ingestion path with per-update processing.

template <typename Sink>
std::vector<uint64_t> CounterWords(const Sink& sink) {
  BitWriter writer;
  sink.SerializeCounters(&writer);
  return writer.words();
}

/// One inline shard, cutting batch_size runs.
ParallelPipeline::Options Batches(size_t batch_size) {
  ParallelPipeline::Options options;
  options.batch_size = batch_size;
  return options;
}

/// Feeds `stream` through PushBatch in arrival chunks of `chunk` updates.
void PushInChunks(ParallelPipeline* pipeline, const UpdateStream& stream,
                  size_t chunk) {
  for (size_t at = 0; at < stream.size(); at += chunk) {
    pipeline->PushBatch(stream.data() + at,
                        std::min(chunk, stream.size() - at));
  }
}

/// Records the runs its UpdateBatch receives. Every library kind is
/// chunk-invariant, so sketch state cannot show where batches were cut;
/// this sink can.
class RunRecorder : public LinearSketch {
 public:
  void UpdateBatch(const stream::Update* updates, size_t count) override {
    runs.push_back(count);
    seen.insert(seen.end(), updates, updates + count);
  }
  void Counters(CounterList*) override {}
  void WriteParams(BitWriter*) const override {}
  void ReadParams(BitReader*) override {}
  size_t SpaceBits() const override { return 0; }
  SketchKind kind() const override { return SketchKind::kCountSketch; }

  std::vector<size_t> runs;
  UpdateStream seen;
};

TEST(BatchDriver, ChunksStreamIntoBatches) {
  UpdateStream stream;
  for (uint64_t t = 0; t < 27; ++t) {
    stream.push_back({t, static_cast<int64_t>(t + 1)});
  }
  auto expect_batches = [&](const RunRecorder& sink) {
    EXPECT_EQ(sink.runs, (std::vector<size_t>{8, 8, 8, 3}));
    ASSERT_EQ(sink.seen.size(), stream.size());
    for (size_t t = 0; t < stream.size(); ++t) {
      EXPECT_EQ(sink.seen[t].index, stream[t].index);
      EXPECT_EQ(sink.seen[t].delta, stream[t].delta);
    }
  };
  {
    RunRecorder sink;
    ParallelPipeline pipeline(Batches(8));
    pipeline.Add("recorder", {&sink});
    EXPECT_EQ(pipeline.Drive(stream), 27u);
    EXPECT_EQ(pipeline.updates_driven(), 27u);
    expect_batches(sink);
  }
  for (size_t chunk : {1u, 3u, 8u, 13u, 27u}) {
    SCOPED_TRACE("arrival chunk " + std::to_string(chunk));
    RunRecorder sink;
    ParallelPipeline pipeline(Batches(8));
    pipeline.Add("recorder", {&sink});
    PushInChunks(&pipeline, stream, chunk);
    pipeline.Flush();
    EXPECT_EQ(pipeline.updates_driven(), 27u);
    expect_batches(sink);
  }
}

// The full sampler stack driven in batches must land in bit-identical
// state to per-update processing — strict-turnstile and general streams,
// batch sizes that exercise partial and single-element chunks, and
// arrival chunks that straddle them.
TEST(BatchDriver, LpSamplerStateMatchesPerUpdatePath) {
  ScopedScalarKernels pin_scalar;  // LpSampler embeds an LpNormEstimator
  const auto general = UniformTurnstile(256, 1500, 100, 41);
  const auto strict = PlantedHeavyHitters(256, 4, 200, 100, false, 42);
  lps::core::LpSamplerParams params;
  params.n = 256;
  params.p = 1.0;
  params.eps = 0.3;
  params.repetitions = 3;
  params.seed = 1234;
  for (const auto& stream : {general, strict}) {
    lps::core::LpSampler scalar(params);
    for (const auto& u : stream) {
      scalar.Update(u.index, static_cast<double>(u.delta));
    }
    // 0 = Drive; otherwise PushBatch in arrival chunks + Flush.
    const std::vector<size_t> chunks = {0, 1, 5, 4097, stream.size()};
    for (size_t chunk : chunks) {
      for (size_t batch_size : {1u, 7u, 4096u}) {
        SCOPED_TRACE("arrival chunk " + std::to_string(chunk) + ", batch " +
                     std::to_string(batch_size));
        lps::core::LpSampler batched(params);
        ParallelPipeline pipeline(Batches(batch_size));
        pipeline.Add("lp", {&batched});
        if (chunk == 0) {
          pipeline.Drive(stream);
        } else {
          PushInChunks(&pipeline, stream, chunk);
          pipeline.Flush();
        }
        EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
        const auto a = scalar.Sample();
        const auto b = batched.Sample();
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          EXPECT_EQ(a.value().index, b.value().index);
          EXPECT_EQ(a.value().estimate, b.value().estimate);
        }
      }
    }
  }
}

TEST(BatchDriver, L0SamplerStateMatchesPerUpdatePath) {
  const auto stream = InsertDeleteChurn(512, 200, 40, 43);
  lps::core::L0Sampler scalar({512, 0.2, 0, 77, false});
  lps::core::L0Sampler batched({512, 0.2, 0, 77, false});
  for (const auto& u : stream) scalar.Update(u.index, u.delta);
  ParallelPipeline pipeline(Batches(64));
  pipeline.Add("l0", {&batched}).Drive(stream);
  EXPECT_EQ(CounterWords(scalar), CounterWords(batched));
}

TEST(BatchDriver, HeavyHittersAndL0EstimatorMatchPerUpdatePath) {
  ScopedScalarKernels pin_scalar;  // CsHeavyHitters embeds an LpNormEstimator
  const auto stream = UniformTurnstile(512, 2000, 100, 44);
  lps::heavy::CsHeavyHitters::Params params;
  params.n = 512;
  params.p = 1.0;
  params.phi = 0.1;
  params.norm_rows = 64;
  params.seed = 55;
  lps::heavy::CsHeavyHitters scalar_hh(params), batched_hh(params);
  lps::norm::L0Estimator scalar_l0(512, 9, 56), batched_l0(512, 9, 56);
  for (const auto& u : stream) {
    scalar_hh.Update(u.index, static_cast<double>(u.delta));
    scalar_l0.Update(u.index, u.delta);
  }
  ParallelPipeline pipeline(Batches(100));
  pipeline.Add("hh", {&batched_hh}).Add("l0", {&batched_l0}).Drive(stream);
  EXPECT_EQ(CounterWords(scalar_hh), CounterWords(batched_hh));
  EXPECT_EQ(CounterWords(scalar_l0), CounterWords(batched_l0));
  EXPECT_EQ(scalar_hh.Query(), batched_hh.Query());
  EXPECT_EQ(scalar_l0.Estimate(), batched_l0.Estimate());
}

}  // namespace
}  // namespace lps::stream
