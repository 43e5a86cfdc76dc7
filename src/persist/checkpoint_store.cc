#include "src/persist/checkpoint_store.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "src/util/atomic_file.h"
#include "src/util/byte_io.h"
#include "src/util/check.h"

namespace lps::persist {

namespace {

constexpr uint32_t kSegmentMagic = 0x5353504C;  // "LPSS" little-endian
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 8;
constexpr size_t kFrameHeaderBytes = 8;  // body_len:u32 crc:u32
constexpr size_t kBodyPrefixBytes = 3;   // record_kind:u8 key_len:u16

std::string SegmentName(uint64_t number, bool open_suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.log",
                static_cast<unsigned long long>(number));
  return open_suffix ? std::string(buf) + ".open" : std::string(buf);
}

// Parses "seg-NNNNNN.log[.open]"; returns false for other directory
// entries (temporaries, dotfiles).
bool ParseSegmentName(const std::string& name, uint64_t* number,
                      bool* is_open) {
  if (name.rfind("seg-", 0) != 0) return false;
  const size_t dash = 4;
  size_t pos = dash;
  uint64_t n = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    n = n * 10 + static_cast<uint64_t>(name[pos] - '0');
    ++pos;
  }
  if (pos == dash) return false;
  const std::string rest = name.substr(pos);
  if (rest == ".log") {
    *is_open = false;
  } else if (rest == ".log.open") {
    *is_open = true;
  } else {
    return false;
  }
  *number = n;
  return true;
}

}  // namespace

// Slicing-by-8 (Kounavis and Berry, 2005): table[k][b] is the CRC of byte
// b followed by k zero bytes, so eight table lookups advance the CRC by
// eight bytes at once. table[0] is the bytewise table.
uint32_t Crc32(const void* data, size_t size) {
  static const auto table = [] {
    std::array<std::array<uint32_t, 256>, 8> t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLE<uint32_t>(p) ^ crc;
    const uint32_t hi = LoadLE<uint32_t>(p + 4);
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
          table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
          table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = table[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

CheckpointStore::CheckpointStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

CheckpointStore::~CheckpointStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ >= 0) {
    fsync(active_fd_);
    close(active_fd_);
    active_fd_ = -1;
  }
}

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    const std::string& dir, const Options& options) {
  Status st = EnsureDirectory(dir);
  if (!st.ok()) return st;
  std::unique_ptr<CheckpointStore> store(new CheckpointStore(dir, options));
  st = store->ScanExisting();
  if (!st.ok()) return st;
  return store;
}

Status CheckpointStore::ScanExisting() {
  struct Found {
    uint64_t number;
    bool is_open;
    std::string name;
  };
  std::vector<Found> found;
  DIR* d = opendir(dir_.c_str());
  if (d == nullptr) return Errno(errno, "cannot open directory", dir_);
  while (struct dirent* entry = readdir(d)) {
    uint64_t number = 0;
    bool is_open = false;
    if (ParseSegmentName(entry->d_name, &number, &is_open)) {
      found.push_back({number, is_open, entry->d_name});
    }
  }
  closedir(d);
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.number < b.number; });

  bool dropping = false;  // true once a tear was found: later segments go
  for (const Found& f : found) {
    const std::string path = dir_ + "/" + f.name;
    if (dropping) {
      struct stat st;
      if (stat(path.c_str(), &st) == 0) {
        recovered_truncated_bytes_ += static_cast<uint64_t>(st.st_size);
      }
      unlink(path.c_str());
      continue;
    }
    // A crash can leave a `.open` segment behind; its contents up to the
    // tear are durable history. Seal it (rename) so the scan below
    // indexes it under its immutable name.
    std::string sealed_path = path;
    if (f.is_open) {
      sealed_path = dir_ + "/" + SegmentName(f.number, false);
      if (rename(path.c_str(), sealed_path.c_str()) != 0) {
        return Errno(errno, "cannot seal recovered segment", path);
      }
    }
    bool clean = false;
    Status st = ScanSegment(sealed_path,
                            static_cast<uint32_t>(segment_paths_.size()),
                            &clean);
    if (!st.ok()) return st;
    segment_paths_.push_back(sealed_path);
    next_segment_number_ = std::max(next_segment_number_, f.number + 1);
    if (!clean) dropping = true;
  }
  return Status::OK();
}

Status CheckpointStore::ScanSegment(const std::string& path,
                                    uint32_t segment_index, bool* clean) {
  *clean = false;
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno(errno, "cannot open segment", path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    close(fd);
    return Errno(err, "cannot stat segment", path);
  }
  std::vector<uint8_t> data(static_cast<size_t>(st.st_size));
  const Status read = PreadAll(fd, data.data(), data.size(), 0, path);
  close(fd);
  if (!read.ok()) return read;

  // Walk the frames, remembering the last position where the segment was
  // still well-formed; anything after that position is a torn tail.
  size_t good = 0;
  std::vector<std::pair<std::string, RecordRef>> records;
  if (data.size() >= kSegmentHeaderBytes &&
      LoadLE<uint32_t>(data.data()) == kSegmentMagic &&
      LoadLE<uint32_t>(data.data() + 4) == kSegmentVersion) {
    size_t pos = kSegmentHeaderBytes;
    good = pos;
    while (pos + kFrameHeaderBytes <= data.size()) {
      const uint32_t body_len = LoadLE<uint32_t>(data.data() + pos);
      if (body_len < kBodyPrefixBytes ||
          body_len > data.size() - pos - kFrameHeaderBytes) {
        break;
      }
      const uint32_t want_crc = LoadLE<uint32_t>(data.data() + pos + 4);
      const uint8_t* body = data.data() + pos + kFrameHeaderBytes;
      if (Crc32(body, body_len) != want_crc) break;
      const uint8_t kind = body[0];
      const uint16_t key_len = LoadLE<uint16_t>(body + 1);
      if (static_cast<size_t>(key_len) + kBodyPrefixBytes > body_len) break;
      std::string key(reinterpret_cast<const char*>(body + kBodyPrefixBytes),
                      key_len);
      RecordRef ref;
      ref.segment = segment_index;
      ref.offset = pos + kFrameHeaderBytes + kBodyPrefixBytes + key_len;
      ref.size = body_len - static_cast<uint32_t>(kBodyPrefixBytes) - key_len;
      ref.kind = kind;
      records.emplace_back(std::move(key), ref);
      pos += kFrameHeaderBytes + body_len;
      good = pos;
    }
  }

  if (good == 0) {
    // Not even a valid header — crash debris from a segment that never
    // finished its first write. Remove it so it cannot shadow a future
    // segment of the same number; recovery continues (not an error).
    recovered_truncated_bytes_ += data.size();
    unlink(path.c_str());
    return Status::OK();
  }
  if (good < data.size()) {
    recovered_truncated_bytes_ += data.size() - good;
    if (truncate(path.c_str(), static_cast<off_t>(good)) != 0) {
      return Errno(errno, "cannot truncate torn tail", path);
    }
  } else {
    *clean = true;
  }
  for (auto& [key, ref] : records) {
    index_[key].push_back(ref);
  }
  return Status::OK();
}

Status CheckpointStore::OpenActiveSegment() {
  const std::string path =
      dir_ + "/" + SegmentName(next_segment_number_, /*open_suffix=*/true);
  const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno(errno, "cannot create segment", path);
  uint8_t header[kSegmentHeaderBytes];
  StoreLE(kSegmentMagic, header);
  StoreLE(kSegmentVersion, header + 4);
  Status st = WriteAll(fd, header, sizeof(header), path);
  if (!st.ok()) {
    close(fd);
    unlink(path.c_str());
    return st;
  }
  ++next_segment_number_;
  segment_paths_.push_back(path);
  active_fd_ = fd;
  active_bytes_ = kSegmentHeaderBytes;
  return Status::OK();
}

Status CheckpointStore::RollActiveSegmentLocked() {
  LPS_CHECK(active_fd_ >= 0);
  const std::string open_path = segment_paths_.back();
  LPS_CHECK(open_path.size() > 5);
  const std::string sealed_path =
      open_path.substr(0, open_path.size() - 5);  // strip ".open"
  if (fsync(active_fd_) != 0) return Errno(errno, "fsync failed", open_path);
  if (close(active_fd_) != 0) {
    return Errno(errno, "close failed", open_path);
  }
  active_fd_ = -1;
  if (rename(open_path.c_str(), sealed_path.c_str()) != 0) {
    return Errno(errno, "cannot seal segment", open_path);
  }
  segment_paths_.back() = sealed_path;
  return SyncParentDirectory(sealed_path);
}

Status CheckpointStore::Append(const std::string& key, uint8_t record_kind,
                               const void* payload, size_t size) {
  if (key.empty() || key.size() > 0xFFFF) {
    return Status::InvalidArgument("record key length out of range");
  }
  if (size > 0xFFFFFFFFu - kBodyPrefixBytes - key.size()) {
    return Status::InvalidArgument("record payload too large");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ < 0) {
    Status st = OpenActiveSegment();
    if (!st.ok()) return st;
  }
  // One buffer: frame header, then the body the CRC covers.
  const size_t body_size = kBodyPrefixBytes + key.size() + size;
  std::vector<uint8_t> frame(kFrameHeaderBytes + body_size);
  uint8_t* body = frame.data() + kFrameHeaderBytes;
  body[0] = record_kind;
  StoreLE(static_cast<uint16_t>(key.size()), body + 1);
  std::memcpy(body + kBodyPrefixBytes, key.data(), key.size());
  if (size > 0) {
    std::memcpy(body + kBodyPrefixBytes + key.size(), payload, size);
  }
  StoreLE(static_cast<uint32_t>(body_size), frame.data());
  StoreLE(Crc32(body, body_size), frame.data() + 4);

  const std::string& path = segment_paths_.back();
  Status st = WriteAll(active_fd_, frame.data(), frame.size(), path);
  if (!st.ok()) return st;

  RecordRef ref;
  ref.segment = static_cast<uint32_t>(segment_paths_.size() - 1);
  ref.offset = active_bytes_ + kFrameHeaderBytes + kBodyPrefixBytes +
               key.size();
  ref.size = static_cast<uint32_t>(size);
  ref.kind = record_kind;
  index_[key].push_back(ref);
  active_bytes_ += frame.size();

  if (active_bytes_ >= options_.max_segment_bytes) {
    return RollActiveSegmentLocked();
  }
  return Status::OK();
}

Status CheckpointStore::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ >= 0 && fsync(active_fd_) != 0) {
    return Errno(errno, "fsync failed", segment_paths_.back());
  }
  return Status::OK();
}

size_t CheckpointStore::RecordCount(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.size();
}

Result<std::vector<uint8_t>> CheckpointStore::ReadRecord(
    const std::string& key, size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || index >= it->second.size()) {
    return Status::InvalidArgument("no such record: " + key + "[" +
                                   std::to_string(index) + "]");
  }
  return ReadRef(it->second[index]);
}

Result<std::vector<uint8_t>> CheckpointStore::ReadRef(
    const RecordRef& ref) const {
  const std::string& path = segment_paths_[ref.segment];
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno(errno, "cannot open segment", path);
  std::vector<uint8_t> payload(ref.size);
  const Status read = PreadAll(fd, payload.data(), ref.size, ref.offset, path);
  close(fd);
  if (!read.ok()) return read;
  return payload;
}

uint8_t CheckpointStore::RecordKind(const std::string& key,
                                    size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || index >= it->second.size()) return 0xFF;
  return it->second[index].kind;
}

uint64_t CheckpointStore::KeyBytes(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return 0;
  uint64_t total = 0;
  for (const RecordRef& ref : it->second) total += ref.size;
  return total;
}

std::vector<std::string> CheckpointStore::Keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(index_.size());
  for (const auto& [key, refs] : index_) {
    if (!refs.empty()) keys.push_back(key);
  }
  return keys;
}

}  // namespace lps::persist
