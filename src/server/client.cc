#include "src/server/client.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/byte_io.h"

namespace lps::server {

Result<Client> Client::Connect(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(uint16_t(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Failed(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::Failed(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Frame> Client::RoundTrip(Opcode opcode, const BitWriter& body) {
  const Status sent = WriteFrame(fd_, uint8_t(opcode), body);
  if (!sent.ok()) return sent;
  Result<Frame> reply = ReadFrame(fd_);
  if (!reply.ok()) return reply.status();
  if (reply.value().first == kStatusError) {
    return Status::Failed(ReadString(&reply.value().body));
  }
  return reply;
}

Status Client::Create(const std::string& tenant, const std::string& key,
                      const SketchConfig& config) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  SerializeConfig(config, &body);
  return RoundTrip(Opcode::kCreate, body).status();
}

Result<uint64_t> Client::Ingest(const std::string& tenant,
                                const std::string& key,
                                const std::vector<stream::Update>& updates) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  WriteUpdates(&body, updates.data(), updates.size());
  Result<Frame> reply = RoundTrip(Opcode::kIngest, body);
  if (!reply.ok()) return reply.status();
  return reply.value().body.ReadU64();
}

Result<QueryResult> Client::Query(const std::string& tenant,
                                  const std::string& key) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  Result<Frame> reply = RoundTrip(Opcode::kQuery, body);
  if (!reply.ok()) return reply.status();
  return DeserializeQueryResult(&reply.value().body);
}

Result<Client::WindowReply> Client::Window(const std::string& tenant,
                                           const std::string& key, uint64_t w,
                                           bool want_state) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  body.WriteU64(w);
  body.WriteBits(want_state ? 1 : 0, 8);
  Result<Frame> frame = RoundTrip(Opcode::kWindow, body);
  if (!frame.ok()) return frame.status();
  BitReader& reader = frame.value().body;
  WindowReply reply;
  reply.result = DeserializeQueryResult(&reader);
  reply.start = reader.ReadU64();
  reply.length = reader.ReadU64();
  reply.has_state = reader.ReadBits(8) != 0;
  if (reply.has_state) {
    ReadState(&reader, &reply.state_words, &reply.state_bits);
  }
  return reply;
}

Result<SnapshotBlob> Client::Snapshot(const std::string& tenant,
                                      const std::string& key) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  Result<Frame> reply = RoundTrip(Opcode::kSnapshot, body);
  if (!reply.ok()) return reply.status();
  return DeserializeSnapshot(&reply.value().body);
}

Status Client::Restore(const std::string& tenant, const std::string& key,
                       const SnapshotBlob& blob) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  SerializeSnapshot(blob, &body);
  return RoundTrip(Opcode::kRestore, body).status();
}

Status Client::Drop(const std::string& tenant, const std::string& key) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  return RoundTrip(Opcode::kDrop, body).status();
}

Result<ServerStats> Client::Stats() {
  Result<Frame> reply = RoundTrip(Opcode::kStats, BitWriter());
  if (!reply.ok()) return reply.status();
  return DeserializeStats(&reply.value().body);
}

Status Client::StreamIngest(const std::string& tenant, const std::string& key,
                            const std::vector<stream::Update>& updates) {
  BitWriter body;
  WriteString(&body, tenant);
  WriteString(&body, key);
  WriteUpdates(&body, updates.data(), updates.size());
  // Fire-and-forget: the server replies only to the closing sync.
  return WriteFrame(fd_, uint8_t(Opcode::kIngestStream), body);
}

Result<Client::StreamAck> Client::StreamSync() {
  Result<Frame> reply = RoundTrip(Opcode::kIngestSync, BitWriter());
  if (!reply.ok()) return reply.status();
  StreamAck ack;
  ack.count = reply.value().body.ReadU64();
  ack.updates_seen = reply.value().body.ReadU64();
  return ack;
}

Result<EpochAck> Client::ShipEpoch(const EpochBlob& blob) {
  BitWriter body;
  SerializeEpoch(blob, &body);
  Result<Frame> reply = RoundTrip(Opcode::kEpoch, body);
  if (!reply.ok()) return reply.status();
  return DeserializeEpochAck(&reply.value().body);
}

Result<DistStats> Client::FetchDistStats() {
  Result<Frame> reply = RoundTrip(Opcode::kDistStats, BitWriter());
  if (!reply.ok()) return reply.status();
  return DeserializeDistStats(&reply.value().body);
}

Status Client::SendRaw(const std::vector<uint8_t>& bytes) {
  return SendAll(fd_, bytes.data(), bytes.size());
}

Result<Frame> Client::ReadReply() { return ReadFrame(fd_); }

}  // namespace lps::server
