// Append-only durable record store for sketch checkpoints and server
// snapshots.
//
// Layout: a directory of numbered segment files. The active segment
// carries an `.open` suffix and is appended to in place; when it reaches
// the roll threshold it is fsync'd and renamed to its sealed name (atomic
// publish), and a new active segment starts. Each segment begins with a
// magic/version header; each record is a length-prefixed frame with a
// CRC32 over its body:
//
//   segment  := header record*
//   header   := magic:u32 ("LPSS") version:u32
//   record   := body_len:u32 crc32(body):u32 body
//   body     := record_kind:u8 key_len:u16 key payload
//
// All fixed-width fields are little-endian. Records for one key form an
// ordered stream (the WindowManager spill chain; a tenant's snapshot
// history); the in-memory index is rebuilt by scanning the segments at
// Open.
//
// Crash-recovery contract: a record is durable once Append + Sync have
// returned. A crash mid-append leaves a torn tail — a truncated frame or
// one whose CRC does not match — which the recovery scan TRUNCATES
// (physically, through the atomic-rewrite helper) rather than aborting
// on (physically, via truncate(2)): everything before the tear is
// intact, everything after it was never acknowledged. A corrupt sealed
// segment likewise drops the damaged suffix and every later segment,
// preserving the log's prefix semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/status.h"

namespace lps::persist {

class CheckpointStore {
 public:
  struct Options {
    /// Roll the active segment once it exceeds this many bytes.
    uint64_t max_segment_bytes = 64ull << 20;
  };

  /// Opens (creating if needed) the store in `dir`, scanning existing
  /// segments to rebuild the index and truncating any torn tail.
  static Result<std::unique_ptr<CheckpointStore>> Open(
      const std::string& dir, const Options& options);
  static Result<std::unique_ptr<CheckpointStore>> Open(const std::string& dir) {
    return Open(dir, Options());
  }

  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Appends one record to the active segment. `record_kind` is an
  /// application tag (the store does not interpret it). Thread-safe.
  Status Append(const std::string& key, uint8_t record_kind,
                const void* payload, size_t size);

  /// Makes every previously appended record durable.
  Status Sync();

  /// Number of records appended under `key` (across all segments).
  size_t RecordCount(const std::string& key) const;

  /// Reads the payload of the index-th record of `key` (0-based, in
  /// append order). Fails on an out-of-range index.
  Result<std::vector<uint8_t>> ReadRecord(const std::string& key,
                                          size_t index) const;

  /// The record_kind tag of the index-th record of `key`; 0xFF if out of
  /// range.
  uint8_t RecordKind(const std::string& key, size_t index) const;

  /// Total payload bytes stored under `key`.
  uint64_t KeyBytes(const std::string& key) const;

  /// Every key with at least one record, in unspecified order.
  std::vector<std::string> Keys() const;

  /// Bytes discarded by the recovery scan at Open (torn tails + corrupt
  /// suffixes). Observability only.
  uint64_t recovered_truncated_bytes() const {
    return recovered_truncated_bytes_;
  }

  const std::string& dir() const { return dir_; }

 private:
  struct RecordRef {
    uint32_t segment = 0;  // index into segment_paths_
    uint64_t offset = 0;   // payload offset within the segment file
    uint32_t size = 0;     // payload size
    uint8_t kind = 0;
  };

  CheckpointStore(std::string dir, Options options);

  Status ScanExisting();
  Status ScanSegment(const std::string& path, uint32_t segment_index,
                     bool* clean);
  Status OpenActiveSegment();
  Status RollActiveSegmentLocked();
  Result<std::vector<uint8_t>> ReadRef(const RecordRef& ref) const;

  const std::string dir_;
  const Options options_;

  mutable std::mutex mutex_;
  // Sealed + active segment paths, ascending by segment number; the last
  // entry is the active (`.open`) segment once OpenActiveSegment ran.
  std::vector<std::string> segment_paths_;
  uint64_t next_segment_number_ = 0;
  int active_fd_ = -1;
  uint64_t active_bytes_ = 0;
  std::unordered_map<std::string, std::vector<RecordRef>> index_;
  uint64_t recovered_truncated_bytes_ = 0;
};

/// CRC32 (IEEE 802.3 polynomial, reflected) over `size` bytes — the
/// record checksum. Exposed for tests.
uint32_t Crc32(const void* data, size_t size);

}  // namespace lps::persist
