// ParallelPipeline — the library's batch driver and its parallel
// ingestion runtime for mergeable summaries.
//
// The paper's structures are all linear, so ingestion owes each one only
// its updates in stream order, cut into cache-sized batches: one batch
// stays resident in L1/L2 while every registered structure's rows sweep
// over it. With one shard and no workers (the default Options) that is
// all the pipeline does — PushBatch hands the caller's buffer to the
// sinks in batch_size runs without copying it, cut at the same fill
// points the staging buffer would use.
//
// A stream is partitioned across k shards; each shard owns one replica of
// every registered structure (constructed with identical parameters and
// seeds). The producer thread partitions updates into per-shard staging
// buffers; whenever a shard's buffer reaches batch_size it is sealed into
// a batch and handed to the shard's owning worker through a bounded MPSC
// ring buffer. Workers apply batches through the UpdateBatch fast path.
// Because every structure is a LinearSketch, replica states add
// coordinate-wise: MergeShards() quiesces the pipeline (every queued batch
// applied, workers idle) and collapses replicas 1..k-1 into replica 0,
// which then holds exactly the sketch of the whole stream.
//
// Threading model:
//   - threads == 0 (inline mode): no workers are spawned and sealed
//     batches are applied inline on the caller thread — single-threaded
//     and deterministic, what the property tests drive.
//   - threads == t >= 1: t workers are spawned (clamped to the shard
//     count — one worker per shard is the maximum useful parallelism) and
//     shard s is owned by worker s % t. Each worker owns one bounded ring
//     of (shard, batch) entries and is the only consumer of its ring, so
//     per-shard batches are applied in the order they were sealed.
//
// Determinism guarantee: the sequence of batches a shard's replicas see —
// both the partition of updates into shards and the chunk boundaries
// within each shard — is decided entirely on the producer side, by the
// partitioner and the batch_size fill rule. Thread interleaving only
// affects *when* a batch is applied relative to other shards' batches,
// and shards are independent objects. Ingesting the same stream is
// therefore bit-identical across every thread count, including threads=0,
// and (by linearity) the merged state is bit-identical to solo ingest for
// exact-arithmetic structures — tests/parallel_pipeline_test.cc and
// tests/merge_test.cc enforce both.
//
// Two partition policies:
//   - kByIndex (default): shard = Mix64(coordinate) % k. Every update to
//     a coordinate lands on the same shard — the natural policy when
//     shards are fed by a coordinate-keyed router.
//   - kRoundRobin: updates are dealt to shards in arrival order — the
//     natural policy for load-balancing a single firehose.
// Both are valid for any LinearSketch: linearity makes the final state
// independent of which shard saw which update.
//
// Epochs: Push keeps flowing after a MergeShards(); each merge closes an
// epoch (replica 0 accumulates the whole stream so far, replicas 1..k-1
// reset for the next epoch). Queries against replica 0 between epochs are
// safe — the quiesce barrier guarantees no worker touches any replica
// until ingestion resumes. examples/parallel_firehose.cpp shows the loop.
//
// Thread-safety contract: the queues are MPSC-safe, but the partitioner
// state (staging buffers, round-robin cursor) lives on the producer side —
// Push/Drive/Flush/MergeShards must be externally serialized (one
// coordinator thread, or callers taking turns). Add() must complete
// before the first Push. Workers are internal and never escape.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"

namespace lps::stream {

class ParallelPipeline {
 public:
  enum class Partition {
    kByIndex,     ///< shard = Mix64(index) % k (coordinate-sticky)
    kRoundRobin,  ///< shard = arrival position % k (load-balancing)
  };

  /// 4096 updates x 16 bytes = 64 KiB per batch: fits L2 alongside the
  /// sinks' tables without thrashing L1.
  static constexpr size_t kDefaultBatchSize = 4096;

  /// Ring capacity in batches per worker: enough that the producer stays
  /// ahead of a momentarily stalled worker, small enough that backpressure
  /// kicks in before unbounded memory growth (8 batches x 64 KiB = 512 KiB
  /// per worker at the default batch size).
  static constexpr size_t kDefaultQueueCapacity = 8;

  struct Options {
    int shards = 1;
    /// Worker threads; 0 applies batches inline on the caller thread
    /// (deterministic single-threaded mode). Values above `shards` are
    /// clamped — one worker per shard is the maximum useful parallelism.
    int threads = 0;
    Partition partition = Partition::kByIndex;
    size_t batch_size = kDefaultBatchSize;
    size_t queue_capacity = kDefaultQueueCapacity;
  };

  explicit ParallelPipeline(Options options);

  /// Drains every queued batch, stops the workers, and joins them. Staged
  /// (unsealed) updates are NOT flushed — call Flush() first if they must
  /// reach the sinks.
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Registers one logical structure by its k per-shard replicas, which
  /// must be constructed identically (same parameters and seeds) and
  /// outlive the pipeline's last Drive/Flush/MergeShards call. replicas[0]
  /// is the merge target. Must be called before ingestion starts. Returns
  /// *this for chaining.
  ParallelPipeline& Add(std::string name, std::vector<LinearSketch*> replicas);

  /// PushBatch + Flush: partitions `count` updates across the shards,
  /// feeds the workers, and quiesces (every update applied on return).
  /// Returns `count`.
  size_t Drive(const Update* updates, size_t count);
  size_t Drive(const UpdateStream& stream);

  /// Buffered single-update ingestion; sealed batches flow to the workers
  /// while the producer keeps pushing. Drive == Push per update + final
  /// Flush, state-wise — for every thread count.
  void Push(Update u);

  /// Push for a run of updates, without the quiesce Drive ends with —
  /// the entry point for async feeders (src/io/StreamFeeder) that must
  /// keep the workers busy across arbitrarily chunked arrivals.
  /// State-identical to calling Push on each update: chunk boundaries
  /// stay governed by the producer-side fill rule, so how the arrivals
  /// were chunked never shows in the final state. With one shard and no
  /// workers, a full batch_size run arriving while staging is empty goes
  /// to the sinks straight from `updates` (zero-copy); only a remainder
  /// is staged.
  void PushBatch(const Update* updates, size_t count);

  /// Seals every shard's staged remainder and waits until the workers
  /// have applied every queued batch (the quiesce barrier). On return the
  /// replicas jointly hold the whole stream so far and no worker touches
  /// them until the next Push.
  void Flush();

  /// Closes an epoch: Flush (quiesce), then for every registered
  /// structure Merge replicas 1..k-1 into replica 0 (which afterwards
  /// holds the whole stream's sketch) and Reset the merged-from replicas
  /// so they are ready for the next epoch. Safe to query replica 0 after.
  void MergeShards();

  int shards() const { return static_cast<int>(staging_.size()); }
  int threads() const { return static_cast<int>(workers_.size()); }
  size_t batch_size() const { return batch_size_; }
  size_t queue_capacity() const { return queue_capacity_; }
  size_t sink_count() const { return sinks_.size(); }
  size_t updates_driven() const { return updates_driven_; }
  uint64_t epochs_merged() const { return epochs_merged_; }

 private:
  struct Sink {
    std::string name;
    std::vector<LinearSketch*> replicas;  // one per shard
  };

  /// One sealed chunk of a shard's sub-stream, in producer seal order.
  struct Batch {
    int shard = 0;
    std::vector<Update> updates;
  };

  /// Bounded MPSC ring buffer of Batches. Producers block while the ring
  /// is full (backpressure); the single consumer blocks while it is
  /// empty. in_flight counts batches enqueued but not yet fully applied,
  /// so WaitDrained() doubles as the quiesce barrier — and, because the
  /// counter is updated under the same mutex the consumer holds after
  /// applying, it also publishes the consumer's sketch writes to the
  /// waiting producer (the happens-before edge MergeShards relies on).
  class BatchQueue {
   public:
    explicit BatchQueue(size_t capacity);

    void Push(Batch batch);    ///< blocks while full; CHECK-fails if stopped
    bool Pop(Batch* out);      ///< false once stopped and drained
    void MarkApplied();        ///< consumer: the popped batch is applied
    void WaitDrained();        ///< blocks until in_flight == 0
    void Stop();               ///< no more pushes; consumer drains and exits

   private:
    std::mutex mutex_;
    std::condition_variable can_push_;
    std::condition_variable can_pop_;
    std::condition_variable drained_;
    std::vector<Batch> ring_;  // fixed capacity, head_/size_ window
    size_t head_ = 0;
    size_t size_ = 0;
    size_t in_flight_ = 0;
    bool stopped_ = false;
  };

  int ShardOf(const Update& u);
  /// Staging buffer -> queue (or inline apply when threads == 0).
  void SealShard(int s);
  void ApplyBatch(int s, const Update* updates, size_t count);
  void WorkerMain(int w);

  Partition partition_;
  size_t batch_size_;
  size_t queue_capacity_;
  uint64_t round_robin_next_ = 0;
  std::vector<Sink> sinks_;
  std::vector<std::vector<Update>> staging_;  // per-shard, producer-owned
  size_t updates_driven_ = 0;
  uint64_t epochs_merged_ = 0;

  std::vector<std::unique_ptr<BatchQueue>> queues_;  // one per worker
  std::vector<std::thread> workers_;
};

}  // namespace lps::stream
