#include "src/server/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace lps::server {

namespace {

// The body bit stream is carried as [u64 LE bit count][packed words LE];
// bytes are assembled explicitly so the wire format does not depend on
// host endianness.
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

/// Reads exactly `size` bytes. Returns the byte count actually read
/// (short only on EOF), or -1 on a hard socket error.
ssize_t ReadFull(int fd, uint8_t* buffer, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, buffer + done, size - done);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += size_t(n);
  }
  return ssize_t(done);
}

Status WriteFull(int fd, const uint8_t* buffer, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the daemon with SIGPIPE.
    const ssize_t n =
        ::send(fd, buffer + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Failed(std::string("send: ") + std::strerror(errno));
    }
    done += size_t(n);
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- payloads --

void WriteString(BitWriter* writer, const std::string& s) {
  writer->WriteBits(s.size(), 32);
  for (char c : s) writer->WriteBits(uint8_t(c), 8);
}

std::string ReadString(BitReader* reader) {
  const uint64_t size = reader->ReadBits(32);
  // The claimed length is attacker-controlled: validate it against what
  // the stream can actually hold before reserving or looping.
  if (size * 8 > reader->bits_remaining()) {
    reader->Fail();
    return std::string();
  }
  std::string s;
  s.reserve(size_t(size));
  for (uint64_t i = 0; i < size; ++i) {
    s.push_back(char(uint8_t(reader->ReadBits(8))));
  }
  return s;
}

void WriteUpdates(BitWriter* writer, const stream::Update* updates,
                  size_t count) {
  writer->WriteU64(count);
  for (size_t i = 0; i < count; ++i) {
    writer->WriteU64(updates[i].index);
    writer->WriteU64(uint64_t(updates[i].delta));
  }
}

std::vector<stream::Update> ReadUpdates(BitReader* reader) {
  const uint64_t count = reader->ReadU64();
  // 128 bits per update; a count the body cannot hold is a lie.
  if (count > reader->bits_remaining() / 128) {
    reader->Fail();
    return {};
  }
  std::vector<stream::Update> updates;
  updates.reserve(size_t(count));
  for (uint64_t i = 0; i < count; ++i) {
    stream::Update u;
    u.index = reader->ReadU64();
    u.delta = int64_t(reader->ReadU64());
    updates.push_back(u);
  }
  return updates;
}

void WriteState(BitWriter* writer, const std::vector<uint64_t>& words,
                size_t bits) {
  writer->WriteU64(bits);
  const size_t count = (bits + 63) / 64;
  for (size_t i = 0; i < count; ++i) writer->WriteU64(words[i]);
}

void ReadState(BitReader* reader, std::vector<uint64_t>* words, size_t* bits) {
  words->clear();
  const uint64_t claimed = reader->ReadU64();
  // The state is packed as ceil(bits/64) whole words; reject a claimed
  // bit count the body cannot hold before sizing the buffer. The first
  // comparison also rules out the (claimed + 63) wraparound.
  if (claimed > reader->bits_remaining() ||
      ((claimed + 63) / 64) * 64 > reader->bits_remaining()) {
    *bits = 0;
    reader->Fail();
    return;
  }
  *bits = size_t(claimed);
  const size_t count = (*bits + 63) / 64;
  words->reserve(count);
  for (size_t i = 0; i < count; ++i) words->push_back(reader->ReadU64());
}

void SerializeConfig(const SketchConfig& config, BitWriter* writer) {
  SerializeSpec(config.spec, writer);
  writer->WriteU64(config.window_checkpoint);
  writer->WriteU64(config.max_checkpoints);
  writer->WriteBits(uint32_t(config.shards), 32);
  writer->WriteBits(uint32_t(config.threads), 32);
}

SketchConfig DeserializeConfig(BitReader* reader) {
  SketchConfig config;
  config.spec = DeserializeSpec(reader);
  config.window_checkpoint = reader->ReadU64();
  config.max_checkpoints = reader->ReadU64();
  config.shards = int32_t(uint32_t(reader->ReadBits(32)));
  config.threads = int32_t(uint32_t(reader->ReadBits(32)));
  return config;
}

void SerializeSnapshot(const SnapshotBlob& blob, BitWriter* writer) {
  SerializeConfig(blob.config, writer);
  writer->WriteU64(blob.updates_seen);
  WriteState(writer, blob.state_words, blob.state_bits);
}

SnapshotBlob DeserializeSnapshot(BitReader* reader) {
  SnapshotBlob blob;
  blob.config = DeserializeConfig(reader);
  blob.updates_seen = reader->ReadU64();
  ReadState(reader, &blob.state_words, &blob.state_bits);
  return blob;
}

void SerializeStats(const ServerStats& stats, BitWriter* writer) {
  writer->WriteU64(stats.tenants);
  writer->WriteU64(stats.updates);
  writer->WriteU64(stats.ingests);
  writer->WriteU64(stats.queries);
  writer->WriteU64(stats.snapshots);
  // Appended persistence fields (older peers simply stop reading here).
  writer->WriteU64(stats.resident_bytes);
  writer->WriteU64(stats.spilled_bytes);
  writer->WriteU64(stats.per_tenant.size());
  for (const TenantPersistStats& tenant : stats.per_tenant) {
    WriteString(writer, tenant.name);
    writer->WriteU64(tenant.resident_bytes);
    writer->WriteU64(tenant.spilled_bytes);
    writer->WriteBits(tenant.resident ? 1 : 0, 8);
  }
  // Appended kernel-dispatch field (same stop-reading compatibility rule).
  WriteString(writer, stats.kernel_backend);
}

ServerStats DeserializeStats(BitReader* reader) {
  ServerStats stats;
  stats.tenants = reader->ReadU64();
  stats.updates = reader->ReadU64();
  stats.ingests = reader->ReadU64();
  stats.queries = reader->ReadU64();
  stats.snapshots = reader->ReadU64();
  // A frame from an older server ends here; the appended persistence
  // fields then stay zero (this read is only reached on frames the
  // counters fully occupied, so remaining bits == appended fields).
  if (reader->bits_remaining() == 0) return stats;
  stats.resident_bytes = reader->ReadU64();
  stats.spilled_bytes = reader->ReadU64();
  const uint64_t count = reader->ReadU64();
  // Each entry is at least string length (64) + two u64 + flag bits;
  // bound the claimed count by what the body can hold before reserving.
  if (count > reader->bits_remaining() / (64 + 64 + 64 + 8)) {
    reader->Fail();
    return stats;
  }
  stats.per_tenant.reserve(size_t(count));
  for (uint64_t i = 0; i < count && !reader->failed(); ++i) {
    TenantPersistStats tenant;
    tenant.name = ReadString(reader);
    tenant.resident_bytes = reader->ReadU64();
    tenant.spilled_bytes = reader->ReadU64();
    tenant.resident = reader->ReadBits(8) != 0;
    stats.per_tenant.push_back(std::move(tenant));
  }
  // Frames carry an exact bit count, so an older server's frame ends
  // precisely here and the appended backend field stays empty.
  if (reader->failed() || reader->bits_remaining() == 0) return stats;
  stats.kernel_backend = ReadString(reader);
  return stats;
}

void SerializeEpoch(const EpochBlob& blob, BitWriter* writer) {
  WriteString(writer, blob.tenant);
  WriteString(writer, blob.key);
  WriteString(writer, blob.worker_id);
  writer->WriteU64(blob.session);
  writer->WriteU64(blob.seq);
  writer->WriteU64(blob.count);
  writer->WriteBits(blob.final_epoch ? 1 : 0, 8);
  SerializeConfig(blob.config, writer);
  WriteState(writer, blob.state_words, blob.state_bits);
}

EpochBlob DeserializeEpoch(BitReader* reader) {
  EpochBlob blob;
  blob.tenant = ReadString(reader);
  blob.key = ReadString(reader);
  blob.worker_id = ReadString(reader);
  blob.session = reader->ReadU64();
  blob.seq = reader->ReadU64();
  blob.count = reader->ReadU64();
  blob.final_epoch = reader->ReadBits(8) != 0;
  blob.config = DeserializeConfig(reader);
  ReadState(reader, &blob.state_words, &blob.state_bits);
  return blob;
}

void SerializeEpochAck(const EpochAck& ack, BitWriter* writer) {
  writer->WriteBits(ack.applied ? 1 : 0, 8);
  writer->WriteU64(ack.next_seq);
}

EpochAck DeserializeEpochAck(BitReader* reader) {
  EpochAck ack;
  ack.applied = reader->ReadBits(8) != 0;
  ack.next_seq = reader->ReadU64();
  return ack;
}

void SerializeDistStats(const DistStats& stats, BitWriter* writer) {
  writer->WriteU64(stats.epochs_folded);
  writer->WriteU64(stats.updates_folded);
  writer->WriteU64(stats.gaps);
  writer->WriteU64(stats.sessions);
  writer->WriteU64(stats.interrupted);
  writer->WriteU64(stats.fold_ns);
  writer->WriteBits(stats.combiner ? 1 : 0, 8);
  writer->WriteU64(stats.workers.size());
  for (const DistWorkerStats& worker : stats.workers) {
    WriteString(writer, worker.stream);
    WriteString(writer, worker.worker_id);
    writer->WriteU64(worker.session);
    writer->WriteU64(worker.next_seq);
    writer->WriteU64(worker.epochs);
    writer->WriteU64(worker.updates);
    writer->WriteU64(worker.gaps);
    writer->WriteBits(worker.finished ? 1 : 0, 8);
    writer->WriteBits(worker.connected ? 1 : 0, 8);
  }
}

DistStats DeserializeDistStats(BitReader* reader) {
  DistStats stats;
  stats.epochs_folded = reader->ReadU64();
  stats.updates_folded = reader->ReadU64();
  stats.gaps = reader->ReadU64();
  stats.sessions = reader->ReadU64();
  stats.interrupted = reader->ReadU64();
  stats.fold_ns = reader->ReadU64();
  stats.combiner = reader->ReadBits(8) != 0;
  const uint64_t count = reader->ReadU64();
  // Two length-prefixed strings, five u64s, two flags per entry; bound
  // the claimed count by what the body can hold before reserving.
  if (count > reader->bits_remaining() / (64 + 64 + 5 * 64 + 16)) {
    reader->Fail();
    return stats;
  }
  stats.workers.reserve(size_t(count));
  for (uint64_t i = 0; i < count && !reader->failed(); ++i) {
    DistWorkerStats worker;
    worker.stream = ReadString(reader);
    worker.worker_id = ReadString(reader);
    worker.session = reader->ReadU64();
    worker.next_seq = reader->ReadU64();
    worker.epochs = reader->ReadU64();
    worker.updates = reader->ReadU64();
    worker.gaps = reader->ReadU64();
    worker.finished = reader->ReadBits(8) != 0;
    worker.connected = reader->ReadBits(8) != 0;
    stats.workers.push_back(std::move(worker));
  }
  return stats;
}

// --------------------------------------------------------------- framing --

std::vector<uint8_t> EncodeFrame(uint8_t first, const BitWriter& body) {
  const std::vector<uint64_t>& words = body.words();
  const uint64_t word_count = (uint64_t(body.bit_count()) + 63) / 64;
  const uint64_t payload = 1 + 8 + 8 * word_count;
  // A body that does not fit the u32 length prefix (or the protocol's
  // own frame ceiling) must fail loudly, not wrap and emit a corrupt
  // frame. A valid frame is never empty (>= 13 bytes), so the empty
  // vector is an unambiguous failure sentinel.
  if (payload > kMaxFrameBytes) return {};
  std::vector<uint8_t> out;
  out.reserve(size_t(4 + payload));
  PutU32(&out, uint32_t(payload));
  out.push_back(first);
  PutU64(&out, body.bit_count());
  for (uint64_t i = 0; i < word_count; ++i) PutU64(&out, words[i]);
  return out;
}

Result<Frame> DecodeFramePayload(const uint8_t* payload, size_t size) {
  if (size < 1 + 8) {
    return Status::InvalidArgument("frame payload shorter than its header");
  }
  const uint8_t first = payload[0];
  const uint64_t bit_count = GetU64(payload + 1);
  // Bound the declared bit count by the bits actually delivered before
  // any ceil-division: for bit_count near 2^64 the (bit_count + 63)
  // rounding wraps to a tiny word count that would slip past the
  // truncation check below.
  if (bit_count > uint64_t(size - (1 + 8)) * 8) {
    return Status::InvalidArgument("frame body truncated");
  }
  const size_t word_count = size_t((bit_count + 63) / 64);
  if (size < 1 + 8 + 8 * word_count) {
    return Status::InvalidArgument("frame body truncated");
  }
  std::vector<uint64_t> words;
  words.reserve(word_count);
  for (size_t i = 0; i < word_count; ++i) {
    words.push_back(GetU64(payload + 1 + 8 + 8 * i));
  }
  BitReader body(std::move(words), size_t(bit_count));
  // Frames arrive from the network: a body that lies about its interior
  // lengths must read as failed(), never CHECK-abort the process.
  body.set_permissive(true);
  return Frame{first, std::move(body)};
}

Status WriteFrame(int fd, uint8_t first, const BitWriter& body) {
  const std::vector<uint8_t> bytes = EncodeFrame(first, body);
  if (bytes.empty()) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBytes");
  }
  return WriteFull(fd, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(int fd) {
  uint8_t header[4];
  const ssize_t got = ReadFull(fd, header, sizeof(header));
  if (got < 0) {
    return Status::Failed(std::string("read: ") + std::strerror(errno));
  }
  if (got == 0) return Status::Failed("eof");
  if (size_t(got) < sizeof(header)) {
    return Status::InvalidArgument("truncated length prefix");
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) length |= uint32_t(header[i]) << (8 * i);
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds limit");
  }
  std::vector<uint8_t> payload(length);
  const ssize_t body = ReadFull(fd, payload.data(), payload.size());
  if (body < 0) {
    return Status::Failed(std::string("read: ") + std::strerror(errno));
  }
  if (size_t(body) < payload.size()) {
    return Status::InvalidArgument("frame payload truncated");
  }
  return DecodeFramePayload(payload.data(), payload.size());
}

}  // namespace lps::server
