#include "src/stream/parallel_pipeline.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::stream {

// ------------------------------------------------------------ BatchQueue --

ParallelPipeline::BatchQueue::BatchQueue(size_t capacity)
    : ring_(capacity) {
  LPS_CHECK(capacity >= 1);
}

void ParallelPipeline::BatchQueue::Push(Batch batch) {
  std::unique_lock<std::mutex> lock(mutex_);
  can_push_.wait(lock, [this] { return size_ < ring_.size() || stopped_; });
  LPS_CHECK(!stopped_);  // pushing into a stopped queue is a caller bug
  ring_[(head_ + size_) % ring_.size()] = std::move(batch);
  ++size_;
  ++in_flight_;
  can_pop_.notify_one();
}

bool ParallelPipeline::BatchQueue::Pop(Batch* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  can_pop_.wait(lock, [this] { return size_ > 0 || stopped_; });
  if (size_ == 0) return false;  // stopped and drained
  *out = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --size_;
  can_push_.notify_one();
  return true;
}

void ParallelPipeline::BatchQueue::MarkApplied() {
  std::unique_lock<std::mutex> lock(mutex_);
  LPS_CHECK(in_flight_ >= 1);
  --in_flight_;
  if (in_flight_ == 0) drained_.notify_all();
}

void ParallelPipeline::BatchQueue::WaitDrained() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

void ParallelPipeline::BatchQueue::Stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_ = true;
  can_pop_.notify_all();
  can_push_.notify_all();
}

// ------------------------------------------------------ ParallelPipeline --

ParallelPipeline::ParallelPipeline(Options options)
    : partition_(options.partition), batch_size_(options.batch_size),
      queue_capacity_(options.queue_capacity),
      staging_(static_cast<size_t>(options.shards)) {
  LPS_CHECK(options.shards >= 1);
  LPS_CHECK(options.threads >= 0);
  LPS_CHECK(options.batch_size >= 1);
  LPS_CHECK(options.queue_capacity >= 1);
  for (auto& buffer : staging_) buffer.reserve(batch_size_);
  const int threads = std::min(options.threads, options.shards);
  queues_.reserve(static_cast<size_t>(threads));
  workers_.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    queues_.push_back(std::make_unique<BatchQueue>(queue_capacity_));
  }
  // Spawn only after every queue exists: a worker indexes queues_[w].
  for (int w = 0; w < threads; ++w) {
    workers_.emplace_back([this, w] { WorkerMain(w); });
  }
}

ParallelPipeline::~ParallelPipeline() {
  for (auto& queue : queues_) queue->Stop();
  for (auto& worker : workers_) worker.join();
}

ParallelPipeline& ParallelPipeline::Add(std::string name,
                                        std::vector<LinearSketch*> replicas) {
  LPS_CHECK(replicas.size() == staging_.size());
  for (const LinearSketch* replica : replicas) LPS_CHECK(replica != nullptr);
  sinks_.push_back(Sink{std::move(name), std::move(replicas)});
  return *this;
}

int ParallelPipeline::ShardOf(const Update& u) {
  const uint64_t k = staging_.size();
  if (partition_ == Partition::kByIndex) {
    return static_cast<int>(Mix64(u.index) % k);
  }
  return static_cast<int>(round_robin_next_++ % k);
}

void ParallelPipeline::ApplyBatch(int s, const Update* updates,
                                  size_t count) {
  for (auto& sink : sinks_) {
    sink.replicas[static_cast<size_t>(s)]->UpdateBatch(updates, count);
  }
}

void ParallelPipeline::SealShard(int s) {
  auto& staging = staging_[static_cast<size_t>(s)];
  if (staging.empty()) return;
  if (workers_.empty()) {
    ApplyBatch(s, staging.data(), staging.size());
    staging.clear();
    return;
  }
  Batch batch;
  batch.shard = s;
  batch.updates = std::move(staging);
  queues_[static_cast<size_t>(s) % workers_.size()]->Push(std::move(batch));
  staging = std::vector<Update>();
  staging.reserve(batch_size_);
}

void ParallelPipeline::WorkerMain(int w) {
  BatchQueue& queue = *queues_[static_cast<size_t>(w)];
  Batch batch;
  while (queue.Pop(&batch)) {
    // This worker is the only consumer for every shard mapped to it, so
    // the shard's replicas are touched by exactly one thread here.
    ApplyBatch(batch.shard, batch.updates.data(), batch.updates.size());
    queue.MarkApplied();
  }
}

size_t ParallelPipeline::Drive(const Update* updates, size_t count) {
  PushBatch(updates, count);
  Flush();
  return count;
}

size_t ParallelPipeline::Drive(const UpdateStream& stream) {
  return Drive(stream.data(), stream.size());
}

void ParallelPipeline::PushBatch(const Update* updates, size_t count) {
  if (staging_.size() > 1 || !workers_.empty()) {
    for (size_t t = 0; t < count; ++t) Push(updates[t]);
    return;
  }
  // One inline shard: the batches Push would seal are runs of the
  // caller's buffer, so apply those in place and stage only what tops up
  // a partial batch or is left over.
  auto& staging = staging_[0];
  updates_driven_ += count;
  while (count > 0) {
    size_t take = batch_size_;
    if (staging.empty() && count >= batch_size_) {
      ApplyBatch(0, updates, batch_size_);
    } else {
      take = std::min(batch_size_ - staging.size(), count);
      staging.insert(staging.end(), updates, updates + take);
      if (staging.size() >= batch_size_) SealShard(0);
    }
    updates += take;
    count -= take;
  }
}

void ParallelPipeline::Push(Update u) {
  const int s = ShardOf(u);
  auto& staging = staging_[static_cast<size_t>(s)];
  staging.push_back(u);
  ++updates_driven_;
  if (staging.size() >= batch_size_) SealShard(s);
}

void ParallelPipeline::Flush() {
  for (int s = 0; s < shards(); ++s) SealShard(s);
  // Quiesce barrier: every queued batch applied, and the workers' sketch
  // writes published to this thread through the queues' mutexes.
  for (auto& queue : queues_) queue->WaitDrained();
}

void ParallelPipeline::MergeShards() {
  Flush();
  for (auto& sink : sinks_) {
    LinearSketch* target = sink.replicas[0];
    for (size_t s = 1; s < sink.replicas.size(); ++s) {
      target->Merge(*sink.replicas[s]);
      sink.replicas[s]->Reset();
    }
  }
  ++epochs_merged_;
}

}  // namespace lps::stream
