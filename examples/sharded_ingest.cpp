// Sharded ingestion and mergeable summaries: the deployment mode that
// linearity buys (Section 4's "send the memory contents", productionized).
//
// A click stream over a million-slot key space is partitioned across 4
// ingest shards, each owned by a worker thread of the parallel ingestion
// runtime (ParallelPipeline). Each shard holds replicas of a
// heavy-hitters sketch and an L1 sampler (same params, same seeds) and
// consumes only its own sub-stream through the batched fast path, fed by
// a bounded ring. At query time the replicas merge coordinate-wise into
// one structure whose answers match single-stream ingestion — the final
// state is bit-identical for ANY worker count, including the inline
// threads=0 mode — then the merged state round-trips
// through a file, the way a shard would ship its summary to an
// aggregator.
//
// Build & run:  ./build/sharded_ingest
#include <cstdio>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/heavy/heavy_hitters.h"
#include "src/io/bits_io.h"
#include "src/stream/generators.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/serialize.h"

int main() {
  const uint64_t n = 1 << 20;
  const int kShards = 4;
  const int kThreads = 4;  // one worker per shard

  // A workload with 5 planted heavy clickers over background noise.
  const auto stream =
      lps::stream::PlantedHeavyHitters(n, 5, 50000, 20000, false, 99);

  // One replica set per structure; replicas must share params and seed.
  lps::heavy::CsHeavyHitters::Params hh_params;
  hh_params.n = n;
  hh_params.p = 1.0;
  hh_params.phi = 0.05;
  hh_params.strict_turnstile = true;
  hh_params.seed = 7;
  std::vector<lps::heavy::CsHeavyHitters> hh_replicas;
  lps::core::LpSamplerParams l1_params;
  l1_params.n = n;
  l1_params.p = 1.0;
  l1_params.eps = 0.25;
  l1_params.repetitions = 12;
  l1_params.seed = 8;
  std::vector<lps::core::LpSampler> l1_replicas;
  for (int s = 0; s < kShards; ++s) {
    hh_replicas.emplace_back(hh_params);
    l1_replicas.emplace_back(l1_params);
  }

  // Hash-partitioned parallel ingestion: every coordinate sticks to one
  // shard, every shard to one worker thread.
  lps::stream::ParallelPipeline::Options options;
  options.shards = kShards;
  options.threads = kThreads;
  lps::stream::ParallelPipeline driver(options);
  std::vector<lps::LinearSketch*> hh_ptrs, l1_ptrs;
  for (int s = 0; s < kShards; ++s) {
    hh_ptrs.push_back(&hh_replicas[static_cast<size_t>(s)]);
    l1_ptrs.push_back(&l1_replicas[static_cast<size_t>(s)]);
  }
  driver.Add("heavy_hitters", hh_ptrs).Add("l1_sampler", l1_ptrs);
  driver.Drive(stream);
  std::printf("ingested %zu updates across %d shards on %d workers\n",
              driver.updates_driven(), driver.shards(), driver.threads());

  // Collapse: replicas 1..k-1 merge into replica 0 (and reset for the
  // next epoch). By linearity the merged state equals single-stream
  // ingestion.
  driver.MergeShards();

  const auto heavy = hh_replicas[0].Query();
  std::printf("merged heavy-hitter set (%zu):", heavy.size());
  for (uint64_t i : heavy) {
    std::printf(" %llu", static_cast<unsigned long long>(i));
  }
  std::printf("\n");

  auto sample = l1_replicas[0].Sample();
  if (sample.ok()) {
    std::printf("merged L1 sample: index %llu, estimate %.1f\n",
                static_cast<unsigned long long>(sample.value().index),
                sample.value().estimate);
  } else {
    std::printf("merged L1 sample: FAIL this run\n");
  }

  // Ship the merged summary: full reconstructible state (versioned header,
  // params, seeds, counters) through a file and back.
  lps::BitWriter writer;
  hh_replicas[0].Serialize(&writer);
  const char* path = "sharded_heavy.lps";
  if (lps::WriteBitsToFile(writer, path).ok()) {
    auto reader = lps::io::ReadBitsStreamed(path);
    lps::heavy::CsHeavyHitters::Params empty;
    empty.n = 1;
    lps::heavy::CsHeavyHitters restored(empty);
    restored.Deserialize(&reader.value());
    std::printf("state round-trip through %s: %zu bits, %zu heavy hitters "
                "after restore\n",
                path, writer.bit_count(), restored.Query().size());
    std::remove(path);
  }
  return 0;
}
