// Determinism and equivalence properties of the parallel ingestion
// runtime (src/stream/parallel_pipeline.h): for every shard count k and
// worker count t — including t = 0, the inline single-threaded mode — the
// merged state must be BIT-IDENTICAL to solo ingest for exact-arithmetic
// structures, because the partition of updates into shards and the chunk
// boundaries within each shard are decided on the producer side and
// thread interleaving only reorders work across independent replicas.
// Also covered: Push()/Flush() interleaving at arbitrary points,
// MergeShards() epoch boundaries mid-stream, empty shards and streams,
// single-update streams, backpressure (tiny rings), and the
// floating-point family's query-agreement guarantee under threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/heavy/heavy_hitters.h"
#include "src/norm/l0_norm.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/count_sketch.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

using stream::ParallelPipeline;
using stream::Update;
using stream::UpdateStream;

constexpr uint64_t kN = 2048;

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

ParallelPipeline::Options PipelineOptions(
    int shards, int threads,
    ParallelPipeline::Partition partition =
        ParallelPipeline::Partition::kByIndex,
    size_t batch_size = 64, size_t queue_capacity = 2) {
  ParallelPipeline::Options options;
  options.shards = shards;
  options.threads = threads;
  options.partition = partition;
  // Small batches and a 2-deep ring force many seal/enqueue cycles and
  // real backpressure even on short test streams.
  options.batch_size = batch_size;
  options.queue_capacity = queue_capacity;
  return options;
}

/// Builds k replicas with `make`, drives `stream` through a pipeline with
/// t workers, merges, and returns replica 0 by value.
template <typename T, typename MakeFn>
T PipelineIngest(MakeFn make, const UpdateStream& stream,
                 ParallelPipeline::Options options) {
  std::vector<T> replicas;
  replicas.reserve(static_cast<size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) replicas.push_back(make());
  std::vector<LinearSketch*> raw;
  for (auto& replica : replicas) raw.push_back(&replica);
  ParallelPipeline pipeline(options);
  pipeline.Add("sink", raw);
  pipeline.Drive(stream);
  pipeline.MergeShards();
  return std::move(replicas[0]);
}

/// The tentpole property: k in {1, 2, 8} x t in {0, 1, 4}, both partition
/// policies — merged state bit-identical to solo ingest.
template <typename T, typename MakeFn>
void ExpectAllModesBitIdentical(MakeFn make, const UpdateStream& stream) {
  T solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const SerializedState want = StateOf(solo);
  for (int k : {1, 2, 8}) {
    for (int t : {0, 1, 4}) {
      for (auto partition : {ParallelPipeline::Partition::kByIndex,
                             ParallelPipeline::Partition::kRoundRobin}) {
        T merged = PipelineIngest<T>(
            make, stream, PipelineOptions(k, t, partition));
        EXPECT_TRUE(StateOf(merged) == want)
            << "k=" << k << " t=" << t
            << " partition=" << static_cast<int>(partition);
      }
    }
  }
}

UpdateStream GeneralStream() {
  return stream::UniformTurnstile(kN, 5000, 100, 51);
}

TEST(ParallelPipeline, CountSketchAllModesBitIdentical) {
  ExpectAllModesBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(9, 48, 52); }, GeneralStream());
}

TEST(ParallelPipeline, SparseRecoveryAllModesBitIdentical) {
  ExpectAllModesBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 12, 53); }, GeneralStream());
}

TEST(ParallelPipeline, L0EstimatorAllModesBitIdentical) {
  ExpectAllModesBitIdentical<norm::L0Estimator>(
      [] { return norm::L0Estimator(kN, 9, 54); }, GeneralStream());
}

TEST(ParallelPipeline, SingleUpdateStream) {
  const UpdateStream one = {{42, 7}};
  ExpectAllModesBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(7, 24, 55); }, one);
}

TEST(ParallelPipeline, EmptyStreamAndEmptyShards) {
  ExpectAllModesBitIdentical<sketch::CountSketch>(
      [] { return sketch::CountSketch(7, 24, 56); }, UpdateStream{});
  // 3 updates over 8 shards and 4 workers: most shards never see a batch.
  const UpdateStream tiny = {{5, 7}, {900, -3}, {5, 1}};
  ExpectAllModesBitIdentical<recovery::SparseRecovery>(
      [] { return recovery::SparseRecovery(kN, 4, 57); }, tiny);
}

TEST(ParallelPipeline, MatchesShardedDriverBitForBit) {
  // The inline (threads=0) pipeline at the production batch size is the
  // single-threaded driver; a threaded pipeline with the same batch size
  // must land on the same state as the driver.
  const auto stream = GeneralStream();
  auto make = [] { return sketch::CountSketch(9, 48, 58); };

  std::vector<sketch::CountSketch> via_driver{make(), make(), make()};
  ParallelPipeline driver(PipelineOptions(
      3, 0, ParallelPipeline::Partition::kByIndex,
      ParallelPipeline::kDefaultBatchSize,
      ParallelPipeline::kDefaultQueueCapacity));
  driver.Add("cs", {&via_driver[0], &via_driver[1], &via_driver[2]});
  driver.Drive(stream);
  driver.MergeShards();

  auto via_pipeline = PipelineIngest<sketch::CountSketch>(
      make, stream,
      PipelineOptions(3, 2, ParallelPipeline::Partition::kByIndex,
                      ParallelPipeline::kDefaultBatchSize, 8));
  EXPECT_TRUE(StateOf(via_driver[0]) == StateOf(via_pipeline));
}

TEST(ParallelPipeline, PushFlushInterleaving) {
  // Flush at arbitrary (prime-stride) points must not change final state:
  // it only seals partial chunks earlier, and chunk boundaries per shard
  // still depend only on the producer-side sequence of seals.
  const auto stream = GeneralStream();
  auto make = [] { return sketch::CountSketch(9, 48, 59); };
  sketch::CountSketch solo = make();
  solo.UpdateBatch(stream.data(), stream.size());

  for (auto [k, t] : {std::pair{4, 0}, {4, 1}, {4, 4}, {1, 0}}) {
    std::vector<sketch::CountSketch> replicas;
    for (int s = 0; s < k; ++s) replicas.push_back(make());
    std::vector<LinearSketch*> raw;
    for (auto& replica : replicas) raw.push_back(&replica);
    ParallelPipeline pipeline(PipelineOptions(k, t));
    pipeline.Add("cs", raw);
    for (size_t j = 0; j < stream.size(); ++j) {
      pipeline.Push(stream[j]);
      if (j % 997 == 0) pipeline.Flush();
    }
    pipeline.Flush();
    pipeline.MergeShards();
    EXPECT_TRUE(StateOf(replicas[0]) == StateOf(solo))
        << "k=" << k << " t=" << t;
    EXPECT_EQ(pipeline.updates_driven(), stream.size());
  }
}

TEST(ParallelPipeline, MidStreamEpochBoundaries) {
  // MergeShards() twice mid-stream: by linearity each epoch's merge folds
  // the epoch's sub-stream into replica 0, so after the final merge the
  // state equals solo ingest of the whole stream — for every t.
  const auto stream = GeneralStream();
  auto make = [] { return recovery::SparseRecovery(kN, 12, 60); };
  recovery::SparseRecovery solo = make();
  solo.UpdateBatch(stream.data(), stream.size());

  for (int t : {0, 1, 4}) {
    std::vector<recovery::SparseRecovery> replicas;
    for (int s = 0; s < 4; ++s) replicas.push_back(make());
    std::vector<LinearSketch*> raw;
    for (auto& replica : replicas) raw.push_back(&replica);
    ParallelPipeline pipeline(PipelineOptions(4, t));
    pipeline.Add("rec", raw);
    const size_t third = stream.size() / 3;
    for (size_t j = 0; j < stream.size(); ++j) {
      pipeline.Push(stream[j]);
      if (j == third || j == 2 * third) pipeline.MergeShards();
    }
    pipeline.MergeShards();
    EXPECT_TRUE(StateOf(replicas[0]) == StateOf(solo)) << "t=" << t;
    EXPECT_EQ(pipeline.epochs_merged(), 3u);
  }
}

TEST(ParallelPipeline, MultipleSinksShareThePartition) {
  // Two registered structures see the same per-shard sub-streams, and
  // both merge to their solo state.
  const auto stream = GeneralStream();
  auto make_cs = [] { return sketch::CountSketch(7, 24, 61); };
  auto make_rec = [] { return recovery::SparseRecovery(kN, 8, 62); };
  sketch::CountSketch solo_cs = make_cs();
  recovery::SparseRecovery solo_rec = make_rec();
  solo_cs.UpdateBatch(stream.data(), stream.size());
  solo_rec.UpdateBatch(stream.data(), stream.size());

  for (auto [k, t] : {std::pair{2, 2}, {1, 0}}) {
    std::vector<sketch::CountSketch> cs;
    std::vector<recovery::SparseRecovery> rec;
    std::vector<LinearSketch*> cs_raw, rec_raw;
    for (int s = 0; s < k; ++s) {
      cs.push_back(make_cs());
      rec.push_back(make_rec());
    }
    for (int s = 0; s < k; ++s) {
      cs_raw.push_back(&cs[static_cast<size_t>(s)]);
      rec_raw.push_back(&rec[static_cast<size_t>(s)]);
    }
    ParallelPipeline pipeline(PipelineOptions(k, t));
    pipeline.Add("cs", cs_raw).Add("rec", rec_raw);
    pipeline.Drive(stream);
    pipeline.MergeShards();
    EXPECT_TRUE(StateOf(cs[0]) == StateOf(solo_cs)) << "k=" << k;
    EXPECT_TRUE(StateOf(rec[0]) == StateOf(solo_rec)) << "k=" << k;
  }
}

TEST(ParallelPipeline, ThreadsClampedToShards) {
  ParallelPipeline pipeline(PipelineOptions(2, 8));
  EXPECT_EQ(pipeline.shards(), 2);
  EXPECT_EQ(pipeline.threads(), 2);
}

TEST(ParallelPipeline, LpSamplerThreadedSampleAgreement) {
  // The floating-point family: threaded sharded state agrees with solo up
  // to reassociation, so the sampled coordinate must match.
  const auto stream = GeneralStream();
  auto make = [] {
    core::LpSamplerParams params;
    params.n = kN;
    params.p = 1.0;
    params.eps = 0.25;
    params.repetitions = 8;
    params.seed = 63;
    return core::LpSampler(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  const auto want = solo.Sample();
  for (int t : {1, 4}) {
    auto merged = PipelineIngest<core::LpSampler>(
        make, stream, PipelineOptions(4, t));
    const auto got = merged.Sample();
    ASSERT_EQ(want.ok(), got.ok()) << "t=" << t;
    if (want.ok()) {
      EXPECT_EQ(want.value().index, got.value().index) << "t=" << t;
    }
  }
}

TEST(ParallelPipeline, HeavyHittersThreadedQueryAgreement) {
  const auto stream =
      stream::PlantedHeavyHitters(kN, 4, 2000, 40, false, 64);
  auto make = [] {
    heavy::CsHeavyHitters::Params params;
    params.n = kN;
    params.p = 1.0;
    params.phi = 0.2;
    params.strict_turnstile = true;
    params.seed = 65;
    return heavy::CsHeavyHitters(params);
  };
  auto solo = make();
  solo.UpdateBatch(stream.data(), stream.size());
  for (int t : {1, 4}) {
    auto merged = PipelineIngest<heavy::CsHeavyHitters>(
        make, stream, PipelineOptions(4, t));
    EXPECT_EQ(solo.Query(), merged.Query()) << "t=" << t;
  }
}

TEST(ParallelPipeline, DestructorDrainsWithoutFlush) {
  // Sealed-but-unapplied batches drain on destruction; staged partials do
  // not (the documented Push/Flush contract). With batch_size 1
  // nothing ever stays staged, so all updates land.
  auto make = [] { return sketch::CountSketch(5, 16, 66); };
  sketch::CountSketch solo = make();
  std::vector<sketch::CountSketch> replicas{make(), make()};
  const UpdateStream tiny = {{1, 2}, {3, 4}, {5, 6}};
  solo.UpdateBatch(tiny.data(), tiny.size());
  {
    ParallelPipeline pipeline(
        PipelineOptions(2, 2, ParallelPipeline::Partition::kByIndex,
                        /*batch_size=*/1, /*queue_capacity=*/1));
    pipeline.Add("cs", {&replicas[0], &replicas[1]});
    for (const auto& u : tiny) pipeline.Push(u);
  }  // destructor joins workers after draining the rings
  replicas[0].Merge(replicas[1]);
  EXPECT_TRUE(StateOf(replicas[0]) == StateOf(solo));
}

}  // namespace
}  // namespace lps
