#include "src/io/byte_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/io/io_internal.h"
#include "src/util/check.h"

namespace lps::io {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// ----------------------------------------------------------- MemorySource --

MemorySource::MemorySource(const char* data, size_t size, size_t chunk_size)
    : data_(data), size_(size), chunk_size_(chunk_size) {
  LPS_CHECK(chunk_size_ >= 1);
}

Result<Chunk> MemorySource::Next() {
  if (position_ >= size_) return Chunk{};
  const size_t take = std::min(chunk_size_, size_ - position_);
  Chunk chunk{data_ + position_, take};
  position_ += take;
  return chunk;
}

// ----------------------------------------------------------- PrefetchRing --

AlignedBuffer AllocateAligned(size_t bytes) {
  // Page-align both the base and the length: pread into aligned buffers
  // keeps the copy path friendly to O_DIRECT-like access patterns and to
  // the kernel's own page-sized fills.
  const size_t rounded = (bytes + kIoAlignment - 1) & ~(kIoAlignment - 1);
  void* raw = std::aligned_alloc(kIoAlignment, rounded);
  LPS_CHECK(raw != nullptr);
  return AlignedBuffer(static_cast<char*>(raw));
}

PrefetchRing::PrefetchRing(size_t slot_bytes) : slot_bytes_(slot_bytes) {
  LPS_CHECK(slot_bytes >= 1);
  slots_.resize(kPrefetchSlots);
  for (Slot& slot : slots_) slot.buffer = AllocateAligned(slot_bytes);
}

char* PrefetchRing::AcquireFree() {
  std::unique_lock<std::mutex> lock(mutex_);
  can_fill_.wait(lock, [this] { return filled_ < slots_.size() || stopped_; });
  if (stopped_) return nullptr;
  return slots_[(head_ + filled_) % slots_.size()].buffer.get();
}

void PrefetchRing::CommitFilled(size_t size) {
  std::unique_lock<std::mutex> lock(mutex_);
  slots_[(head_ + filled_) % slots_.size()].size = size;
  ++filled_;
  can_consume_.notify_one();
}

void PrefetchRing::FinishEof() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_ = true;
  can_consume_.notify_one();
}

void PrefetchRing::FinishError(Status status) {
  std::unique_lock<std::mutex> lock(mutex_);
  error_ = std::move(status);
  done_ = true;
  can_consume_.notify_one();
}

Result<Chunk> PrefetchRing::Next() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (holding_) {
    // Recycle the slot handed out by the previous Next().
    head_ = (head_ + 1) % slots_.size();
    --filled_;
    holding_ = false;
    can_fill_.notify_one();
  }
  if (filled_ == 0 && !done_) {
    const auto start = std::chrono::steady_clock::now();
    can_consume_.wait(lock, [this] { return filled_ > 0 || done_; });
    wait_seconds_ += SecondsSince(start);
  }
  if (filled_ == 0) {
    // Drained: report the terminal condition (sticky).
    if (!error_.ok()) return error_;
    return Chunk{};
  }
  const Slot& slot = slots_[head_];
  holding_ = true;
  bytes_read_ += slot.size;
  return Chunk{slot.buffer.get(), slot.size};
}

void PrefetchRing::Stop() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_ = true;
  can_fill_.notify_all();
}

// -------------------------------------------------- thread-backed sources --

namespace {

/// Shared shape of the thread-prefetched sources: a producer thread runs
/// `fill` (a positional or streaming read) into ring slots until EOF,
/// error, or the consumer stops caring (destruction). The file reader
/// and the socket source differ only in the fill function and whether
/// they own the fd.
class ThreadPrefetchSource : public ByteSource {
 public:
  /// fill(buffer, capacity, offset) returns bytes read (0 = EOF) or -1
  /// with errno set.
  using FillFn = ssize_t (*)(int fd, char* buffer, size_t capacity,
                             uint64_t offset);

  ThreadPrefetchSource(int fd, bool owns_fd, FillFn fill,
                       const FileSourceOptions& options)
      : ring_(options.buffer_bytes), fd_(fd), owns_fd_(owns_fd), fill_(fill) {
    producer_ = std::thread([this] { ProducerMain(); });
  }

  ~ThreadPrefetchSource() override {
    ring_.Stop();
    producer_.join();
    if (owns_fd_) ::close(fd_);
  }

  Result<Chunk> Next() override { return ring_.Next(); }
  uint64_t bytes_read() const override { return ring_.bytes_read(); }
  double wait_seconds() const override { return ring_.wait_seconds(); }
  const char* backend() const override { return IoBackendName(); }

 private:
  void ProducerMain() {
    uint64_t offset = 0;
    for (;;) {
      char* buffer = ring_.AcquireFree();
      if (buffer == nullptr) return;  // consumer stopped
      const ssize_t got = fill_(fd_, buffer, ring_.slot_bytes(), offset);
      if (got < 0) {
        ring_.FinishError(
            Status::Failed(std::string("read failed: ") + std::strerror(errno)));
        return;
      }
      if (got == 0) {
        ring_.FinishEof();
        return;
      }
      offset += static_cast<uint64_t>(got);
      ring_.CommitFilled(static_cast<size_t>(got));
    }
  }

  PrefetchRing ring_;
  const int fd_;
  const bool owns_fd_;
  const FillFn fill_;
  std::thread producer_;
};

ssize_t FillPread(int fd, char* buffer, size_t capacity, uint64_t offset) {
  for (;;) {
    const ssize_t got =
        ::pread(fd, buffer, capacity, static_cast<off_t>(offset));
    if (got >= 0 || errno != EINTR) return got;
  }
}

ssize_t FillRead(int fd, char* buffer, size_t capacity, uint64_t /*offset*/) {
  for (;;) {
    const ssize_t got = ::read(fd, buffer, capacity);
    if (got >= 0 || errno != EINTR) return got;
  }
}

}  // namespace

const char* IoBackendName() { return "thread"; }

std::unique_ptr<ByteSource> MakeSocketSource(int fd, bool owns_fd,
                                             const FileSourceOptions& options) {
  return std::make_unique<ThreadPrefetchSource>(fd, owns_fd, FillRead,
                                                options);
}

Result<std::unique_ptr<ByteSource>> MakeFileSource(
    const std::string& path, const FileSourceOptions& options) {
  if (path == "-") {
    // stdin is a stream: prefetch through the socket path, never seek.
    return MakeSocketSource(STDIN_FILENO, /*owns_fd=*/false, options);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open for reading: " + path);
  }
  struct stat st {};
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (!regular) {
    // Pipes / devices: positional reads are meaningless; stream them.
    return std::unique_ptr<ByteSource>(
        MakeSocketSource(fd, /*owns_fd=*/true, options));
  }
  return std::unique_ptr<ByteSource>(std::make_unique<ThreadPrefetchSource>(
      fd, /*owns_fd=*/true, FillPread, options));
}

}  // namespace lps::io
