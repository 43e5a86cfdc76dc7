// Internals of the thread-fed byte sources: the bounded prefetch ring
// (the producer fills aligned slots ahead of the consumer; ring depth is
// the backpressure). Not part of the public facade — include
// src/io/byte_source.h instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/io/byte_source.h"
#include "src/util/status.h"

namespace lps::io {

/// Ring-slot alignment: one page, so positional reads land page-aligned.
inline constexpr size_t kIoAlignment = 4096;

/// Ring depth: reads the producer may run ahead of the consumer. Two is
/// the minimum (one slot filling while the consumer reads another).
inline constexpr size_t kPrefetchSlots = 4;

struct FreeDeleter {
  void operator()(char* p) const { std::free(p); }
};
using AlignedBuffer = std::unique_ptr<char, FreeDeleter>;

/// Allocates kIoAlignment-aligned storage of at least `bytes`.
AlignedBuffer AllocateAligned(size_t bytes);

/// Bounded ring of filled buffers between one producer (the prefetch
/// thread) and one consumer (Next()).
/// The producer blocks while every slot is filled — that bound is the
/// backpressure that keeps a fast reader from outrunning a slow
/// pipeline. The consumer blocks while no slot is filled, and that wait
/// is metered: it is exactly the read time ingestion failed to overlap.
class PrefetchRing {
 public:
  explicit PrefetchRing(size_t slot_bytes);

  // Producer side.
  /// Blocks until a slot is free; returns its buffer, or nullptr once
  /// the consumer has stopped (destruction) — the producer must exit.
  char* AcquireFree();
  void CommitFilled(size_t size);
  void FinishEof();
  void FinishError(Status status);

  // Consumer side (ByteSource::Next semantics: recycles the previously
  // returned slot, then blocks for the next filled one).
  Result<Chunk> Next();
  /// Unblocks a producer stuck in AcquireFree; call before joining it.
  void Stop();

  size_t slot_bytes() const { return slot_bytes_; }
  uint64_t bytes_read() const { return bytes_read_; }
  double wait_seconds() const { return wait_seconds_; }

 private:
  struct Slot {
    AlignedBuffer buffer;
    size_t size = 0;
  };

  const size_t slot_bytes_;
  std::mutex mutex_;
  std::condition_variable can_fill_;
  std::condition_variable can_consume_;
  std::vector<Slot> slots_;
  size_t head_ = 0;        // oldest filled slot
  size_t filled_ = 0;      // filled, not yet recycled (includes held one)
  bool holding_ = false;   // consumer holds slots_[head_]
  bool done_ = false;      // producer finished (EOF or error_)
  bool stopped_ = false;   // consumer gone; producer must exit
  Status error_;
  uint64_t bytes_read_ = 0;
  double wait_seconds_ = 0;
};

}  // namespace lps::io
