#include "src/io/stream_feeder.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "src/util/check.h"

namespace lps::io {

namespace {

using Clock = std::chrono::steady_clock;

/// Decoded batches buffered between decode and ingest; the bound is the
/// backpressure.
constexpr size_t kQueueBatches = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Bounded queue of decoded batches between the decode thread and the
/// ingesting caller. Same discipline as the pipeline's BatchQueue: a
/// full queue blocks the producer (backpressure), a drained-and-closed
/// queue tells the consumer the stream ended (with its final Status).
class DecodedQueue {
 public:
  void Push(stream::UpdateStream batch) {
    std::unique_lock<std::mutex> lock(mutex_);
    can_push_.wait(lock, [this] { return queue_.size() < kQueueBatches; });
    queue_.push_back(std::move(batch));
    can_pop_.notify_one();
  }

  void Close(Status status) {
    std::unique_lock<std::mutex> lock(mutex_);
    status_ = std::move(status);
    closed_ = true;
    can_pop_.notify_one();
  }

  /// False once the queue is closed and drained; *wait accumulates the
  /// consumer's blocked time.
  bool Pop(stream::UpdateStream* out, double* wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.empty() && !closed_) {
      const auto start = Clock::now();
      can_pop_.wait(lock, [this] { return !queue_.empty() || closed_; });
      *wait += SecondsSince(start);
    }
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    can_push_.notify_one();
    return true;
  }

  Status status() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return status_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<stream::UpdateStream> queue_;
  bool closed_ = false;
  Status status_;
};

}  // namespace

StreamFeeder::StreamFeeder(std::unique_ptr<ByteSource> source,
                           Options options)
    : source_(std::move(source)), options_(options) {
  LPS_CHECK(source_ != nullptr);
  LPS_CHECK(options_.batch_size >= 1);
}

Result<uint64_t> StreamFeeder::ReadHeader() {
  while (!decoder_.have_header() && !source_done_) {
    auto chunk = source_->Next();
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().size == 0) {
      source_done_ = true;
      break;
    }
    decoder_.Consume(chunk.value().data, chunk.value().size, &pending_);
  }
  if (!decoder_.have_header()) {
    // Give Finish its shot (sub-magic-length text streams); otherwise
    // surface the structural error.
    auto status = decoder_.Finish(&pending_);
    if (!status.ok()) return status;
  }
  return decoder_.n();
}

Status StreamFeeder::DecodeAll(const BatchSink& deliver) {
  // Header-adjacent updates first, then the rest of the stream. Batches
  // are re-cut to batch_size so the sink sees a bounded granularity.
  stream::UpdateStream buffer = std::move(pending_);
  pending_ = stream::UpdateStream();
  auto drain = [&](bool final) {
    // Deliver full batches; keep a partial tail unless the stream ended.
    size_t done = 0;
    while (buffer.size() - done >= options_.batch_size) {
      deliver(buffer.data() + done, options_.batch_size);
      done += options_.batch_size;
    }
    if (final && done < buffer.size()) {
      deliver(buffer.data() + done, buffer.size() - done);
      done = buffer.size();
    }
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<ptrdiff_t>(done));
  };
  while (!source_done_) {
    auto chunk = source_->Next();
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().size == 0) break;
    decoder_.Consume(chunk.value().data, chunk.value().size, &buffer);
    drain(/*final=*/false);
  }
  auto status = decoder_.Finish(&buffer);
  if (!status.ok()) return status;
  drain(/*final=*/true);
  return Status();
}

Result<FeedStats> StreamFeeder::Feed(const BatchSink& sink) {
  LPS_CHECK(!fed_);  // single-shot: the source was consumed
  fed_ = true;
  FeedStats stats;
  const auto start = Clock::now();
  Status status;
  if (!options_.async_decode) {
    status = DecodeAll([&](const stream::Update* updates, size_t count) {
      const auto sink_start = Clock::now();
      sink(updates, count);
      stats.sink_seconds += SecondsSince(sink_start);
    });
  } else {
    DecodedQueue queue;
    std::thread decode([this, &queue] {
      Status decode_status =
          DecodeAll([&queue](const stream::Update* updates, size_t count) {
            queue.Push(stream::UpdateStream(updates, updates + count));
          });
      queue.Close(std::move(decode_status));
    });
    stream::UpdateStream batch;
    while (queue.Pop(&batch, &stats.ingest_wait_seconds)) {
      const auto sink_start = Clock::now();
      sink(batch.data(), batch.size());
      stats.sink_seconds += SecondsSince(sink_start);
    }
    decode.join();
    status = queue.status();
  }
  if (!status.ok()) return status;
  stats.updates = decoder_.decoded();
  stats.malformed = decoder_.malformed();
  stats.bytes = source_->bytes_read();
  stats.read_wait_seconds = source_->wait_seconds();
  stats.wall_seconds = SecondsSince(start);
  return stats;
}

// ------------------------------------------------------------ PipelineSink --

void PipelineSink::operator()(const stream::Update* updates, size_t count) {
  const Status pushed = state_.Push(updates, count);
  // Cannot fail: a non-owning state has no universe bound and no hook.
  LPS_CHECK(pushed.ok());
}

}  // namespace lps::io
