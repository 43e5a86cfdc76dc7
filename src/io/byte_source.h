// ByteSource — the async ingest front-end's byte layer.
//
// Every ingest path used to materialize its updates before the first
// Push, so long-horizon replays stalled the ParallelPipeline on
// synchronous reads. A ByteSource decouples the two: a background
// producer fills a ring of aligned buffers ahead of the consumer, so the
// pipeline ingests chunk t while the kernel reads chunk t+1. Next()
// hands out zero-copy views into the ring — no per-chunk allocation, no
// whole-file residency — and the ring's bounded depth is the
// backpressure (a slow consumer simply stops the prefetcher).
//
// Implementations:
//   - MemorySource: a view over a caller-owned buffer, cut into
//     chunk-sized views. The in-memory baseline and the decoder tests'
//     torn-boundary harness.
//   - The file reader (internal, behind MakeFileSource): a producer
//     thread issues pread into a four-slot ring, so reads run ahead of
//     the consumer.
//   - The socket source (behind MakeSocketSource): the same ring fed by
//     read() on a non-seekable fd — sockets, pipes, stdin ("-" in the
//     tools).
//
// Error discipline: I/O failures surface as Status through Next(), never
// as an abort — a hostile or vanishing input is an ordinary runtime
// condition here, exactly as in the server's frame decoding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/util/status.h"

namespace lps::io {

/// A view of the next run of bytes. Valid until the next Next() call on
/// the source that returned it (the ring slot is recycled), or until the
/// source is destroyed. size == 0 means end of stream.
struct Chunk {
  const char* data = nullptr;
  size_t size = 0;
};

class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Returns the next chunk of the stream, blocking until the producer
  /// has one ready. A zero-size chunk is end-of-stream (sticky). An
  /// error Status is also sticky: the stream is unusable after it.
  virtual Result<Chunk> Next() = 0;

  /// Total payload bytes handed out so far.
  virtual uint64_t bytes_read() const = 0;

  /// Seconds the CONSUMER spent blocked inside Next() waiting for the
  /// producer — the unoverlapped read time. Zero when the prefetcher
  /// always stays ahead; bench_io reports it as the overlap residual.
  virtual double wait_seconds() const = 0;

  /// Which backend feeds this source: "memory" or "thread".
  virtual const char* backend() const = 0;
};

/// A ByteSource over caller-owned bytes, returned in chunk_size views —
/// the zero-I/O baseline, and the way to drive the decoder through
/// arbitrary (torn) chunk boundaries in tests. The buffer must outlive
/// the source.
class MemorySource : public ByteSource {
 public:
  MemorySource(const char* data, size_t size, size_t chunk_size = 1 << 20);

  Result<Chunk> Next() override;
  uint64_t bytes_read() const override { return position_; }
  double wait_seconds() const override { return 0.0; }
  const char* backend() const override { return "memory"; }

 private:
  const char* data_;
  size_t size_;
  size_t chunk_size_;
  size_t position_ = 0;
};

struct FileSourceOptions {
  /// Bytes per ring slot (one read per slot fill). Tests shrink it to
  /// tear records across chunks.
  size_t buffer_bytes = 1 << 20;
};

/// Opens `path` ("-" = stdin) as an async-prefetched ByteSource. Regular
/// files are read with pread on the prefetch thread; stdin and other
/// non-seekable files stream through the socket source. Fails with
/// InvalidArgument when the path cannot be opened.
Result<std::unique_ptr<ByteSource>> MakeFileSource(
    const std::string& path, const FileSourceOptions& options = {});

/// Wraps an already-open non-seekable fd (socket, pipe) in the
/// prefetching ring. Takes ownership of the fd iff `owns_fd`.
std::unique_ptr<ByteSource> MakeSocketSource(
    int fd, bool owns_fd, const FileSourceOptions& options = {});

/// The backend that reads files: always "thread" — the io analogue of
/// kernels::ActiveBackendName(), reported by `lps_cli version` and
/// bench_io.
const char* IoBackendName();

}  // namespace lps::io
