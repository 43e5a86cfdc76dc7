#include "src/server/protocol.h"

#include <algorithm>
#include <cstddef>

#include "src/util/byte_io.h"

namespace lps::server {

namespace {

// A frame up to this size (an ingest batch of up to ~65,000 updates) is
// read into one buffer sized by its length prefix. A longer one grows
// with the bytes that actually arrive, so a peer that sends a length
// prefix and stalls commits at most this much, not kMaxFrameBytes.
constexpr size_t kFrameAllowance = size_t{1} << 20;

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

// An update is two 64-bit words, index then delta, so a batch moves as
// one run of words.
static_assert(sizeof(stream::Update) == 16 &&
                  offsetof(stream::Update, delta) == 8,
              "Update must be the words (index, delta)");

void WriteUpdates(BitWriter* writer, const stream::Update* updates,
                  size_t count) {
  writer->WriteU64(count);
  writer->WriteWords(updates, 2 * count);
}

std::vector<stream::Update> ReadUpdates(BitReader* reader) {
  const uint64_t count = reader->ReadU64();
  // 128 bits per update; a count the body cannot hold is a lie.
  if (count > reader->bits_remaining() / 128) {
    reader->Fail();
    return {};
  }
  std::vector<stream::Update> updates(static_cast<size_t>(count));
  reader->ReadWords(updates.data(), 2 * updates.size());
  return updates;
}

void WriteState(BitWriter* writer, const std::vector<uint64_t>& words,
                size_t bits) {
  writer->WriteU64(bits);
  writer->WriteWords(words.data(), size_t(WordsForBits(bits)));
}

void ReadState(BitReader* reader, std::vector<uint64_t>* words, size_t* bits) {
  words->clear();
  const uint64_t claimed = reader->ReadU64();
  // The state is packed as whole words; reject a claimed bit count the
  // body cannot hold before sizing the buffer.
  const uint64_t count = WordsForBits(claimed);
  if (count > reader->bits_remaining() / 64) {
    *bits = 0;
    reader->Fail();
    return;
  }
  *bits = size_t(claimed);
  words->resize(size_t(count));
  reader->ReadWords(words->data(), words->size());
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
  const uint64_t payload = 1 + uint64_t(ImageSize(body));
  // A body that does not fit the u32 length prefix (or the protocol's
  // own frame ceiling) must fail loudly, not wrap and emit a corrupt
  // frame. A valid frame is never empty (>= 13 bytes), so the empty
  // vector is an unambiguous failure sentinel.
  if (payload > kMaxFrameBytes) return {};
  std::vector<uint8_t> out(size_t(4 + payload));
  StoreLE(uint32_t(payload), out.data());
  out[4] = first;
  WriteImage(body, out.data() + 5);
  return out;
}

Result<Frame> DecodeFramePayload(const uint8_t* payload, size_t size) {
  if (size == 0) return Status::InvalidArgument("empty frame payload");
  auto body = ParseImage(payload + 1, size - 1);
  if (!body.ok()) return body.status();
  return Frame{payload[0], std::move(body.value())};
}

Status WriteFrame(int fd, uint8_t first, const BitWriter& body) {
  const std::vector<uint8_t> bytes = EncodeFrame(first, body);
  if (bytes.empty()) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBytes");
  }
  return SendAll(fd, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(int fd) {
  // ReadAll fails a socket error as Failed("read: ...") and calls EOF
  // before the last byte InvalidArgument.
  uint8_t prefix[4];
  size_t got = 0;
  Status status = ReadAll(fd, prefix, sizeof(prefix), &got);
  if (!status.ok()) {
    if (status.IsFailed()) return status;
    if (got == 0) return Status::Failed("eof");
    return Status::InvalidArgument("truncated length prefix");
  }
  const uint32_t length = LoadLE<uint32_t>(prefix);
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds limit");
  }
  // The prefix is a claim: past the allowance the buffer at most doubles
  // per read, so it never exceeds twice the bytes delivered.
  std::vector<uint8_t> payload;
  size_t have = 0;
  while (have < length) {
    const size_t grown = std::max(kFrameAllowance, 2 * have);
    payload.resize(std::min<size_t>(length, grown));
    status = ReadAll(fd, payload.data() + have, payload.size() - have, &got);
    have += got;
    if (!status.ok()) {
      if (status.IsFailed()) return status;
      return Status::InvalidArgument("frame payload truncated");
    }
  }
  return DecodeFramePayload(payload.data(), payload.size());
}

}  // namespace lps::server
