// StreamFeeder — drives a ByteSource through the UpdateDecoder into any
// batch sink, overlapping read, decode, and ingest.
//
// Stages (async_decode, the default): the ByteSource's prefetcher reads
// chunk t+2 while the feeder's decode thread parses chunk t+1 into
// update batches and the caller's thread ingests batch t — a three-stage
// pipeline whose wall time approaches max(read, decode, ingest) instead
// of their sum. The decoded-batch queue is bounded, so a slow sink
// backpressures the decoder, which backpressures the reader: memory
// stays at ring + queue, never the stream.
//
// Determinism: the sink sees every update exactly once, in stream
// order. Downstream chunk boundaries are the SINK's business — a
// ParallelPipeline re-cuts per-shard batches by its own fill rule — so
// feeding through this path is bit-identical to in-memory ingest for
// the same reasons the pipeline is bit-identical across thread counts
// (tests/io_test.cc holds serialized state equal across the matrix).
//
// PipelineSink adapts a caller's ParallelPipeline (and window) to a
// BatchSink through stream::StreamState's seal rule.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/io/byte_source.h"
#include "src/io/update_decoder.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/stream_state.h"
#include "src/stream/update.h"
#include "src/stream/window_manager.h"
#include "src/util/status.h"

namespace lps::io {

/// Receives decoded updates in stream order, in feeder-sized batches.
using BatchSink = std::function<void(const stream::Update*, size_t)>;

/// What a Feed() run did and where its time went. The three *_seconds
/// components let callers compute overlap efficiency: wall close to
/// max(component) means the stages overlapped; wall close to the sum
/// means they serialized (bench_io gates on this).
struct FeedStats {
  uint64_t updates = 0;        ///< well-formed updates delivered
  uint64_t malformed = 0;      ///< records skipped by the decoder
  uint64_t bytes = 0;          ///< payload bytes consumed from the source
  double wall_seconds = 0;     ///< end-to-end Feed() duration
  double read_wait_seconds = 0;    ///< decoder blocked on the ByteSource
  double ingest_wait_seconds = 0;  ///< sink thread blocked on decoded batches
  double sink_seconds = 0;         ///< time inside the sink callbacks
};

class StreamFeeder {
 public:
  struct Options {
    /// Max updates per sink call. The default matches the pipeline's
    /// batch size, but the value does not affect final sketch state
    /// (see the determinism note above).
    size_t batch_size = stream::ParallelPipeline::kDefaultBatchSize;
    /// Decode on a dedicated thread (three-stage overlap). When false,
    /// decode runs inline on the Feed() caller — the deterministic
    /// low-thread mode, and the honest baseline for overlap numbers.
    bool async_decode = true;
  };

  StreamFeeder(std::unique_ptr<ByteSource> source, Options options);
  explicit StreamFeeder(std::unique_ptr<ByteSource> source)
      : StreamFeeder(std::move(source), Options{}) {}

  /// Consumes just enough of the stream to decode the trace header and
  /// returns the universe size n — call before constructing sketches.
  /// Updates decoded alongside the header are buffered for Feed().
  Result<uint64_t> ReadHeader();

  /// Streams every remaining update into `sink`. Call at most once,
  /// after ReadHeader(). Malformed records are counted, not fatal; a
  /// source I/O error is.
  Result<FeedStats> Feed(const BatchSink& sink);

  const ByteSource& source() const { return *source_; }
  UpdateDecoder::Format format() const { return decoder_.format(); }

 private:
  /// Inline (single-thread) feed loop; also the decode stage body.
  Status DecodeAll(const BatchSink& deliver);

  std::unique_ptr<ByteSource> source_;
  Options options_;
  UpdateDecoder decoder_;
  stream::UpdateStream pending_;  // decoded with the header, not yet fed
  bool fed_ = false;
  bool source_done_ = false;
};

/// A BatchSink feeding a ParallelPipeline in exact epochs: a non-owning
/// stream::StreamState over the pipeline and the optional window. With
/// epoch_interval == 0 there are no intermediate epochs and Finish()
/// merges once; with k, every k-th update closes an epoch. Pass the
/// object by std::ref when handing it to Feed.
class PipelineSink {
 public:
  PipelineSink(stream::ParallelPipeline* pipeline,
               stream::WindowManager* window, uint64_t epoch_interval)
      : state_(pipeline, window, epoch_interval) {}

  void operator()(const stream::Update* updates, size_t count);
  /// Closes the trailing (partial) epoch; call after Feed returns.
  void Finish() { state_.Quiesce(); }

  uint64_t updates() const { return state_.updates_seen(); }

 private:
  stream::StreamState state_;
};

}  // namespace lps::io
