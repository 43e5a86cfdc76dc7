#include "src/server/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/util/byte_io.h"

namespace lps::server {

namespace {

constexpr char kMalformedBody[] = "malformed request body";

}  // namespace

// --------------------------------------------------------------- Server --

Server::Server(Options options) : options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!options_.data_dir.empty()) {
    auto opened = persist::CheckpointStore::Open(options_.data_dir);
    if (!opened.ok()) return opened.status();
    store_ = std::move(opened.value());
    TenantRegistry::PersistOptions persist;
    persist.resident_checkpoints = options_.resident_checkpoints;
    registry_.AttachStore(store_.get(), persist);
    // Boot recovery happens BEFORE the listener exists: the first
    // accepted connection already sees every restored tenant.
    restored_tenants_ = registry_.RestoreAll(&restore_failures_);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Failed(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(uint16_t(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::Failed(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    const Status status =
        Status::Failed(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = int(ntohs(bound.sin_port));

  listen_fd_.store(fd);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (store_ != nullptr && options_.snapshot_interval_ms > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  return Status::OK();
}

void Server::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(snapshot_mutex_);
  while (!snapshot_stop_) {
    snapshot_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.snapshot_interval_ms),
        [this] { return snapshot_stop_; });
    if (snapshot_stop_) return;
    // The passes run WITHOUT snapshot_mutex_ held — they take entry
    // locks and can block behind ingest, which must not delay Stop()'s
    // shutdown signal.
    lock.unlock();
    registry_.PersistTenants(/*only_dirty=*/true);
    if (options_.idle_timeout_ms > 0) {
      registry_.EvictIdle(options_.idle_timeout_ms);
    }
    lock.lock();
  }
}

void Server::Stop() {
  const bool was_running = running_.exchange(false);
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_stop_ = true;
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a blocked accept(); close() finishes the fd.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    // Wakes a reader blocked in read() or in send() to a stalled peer.
    ::shutdown(connection->fd, SHUT_RDWR);
    if (connection->reader.joinable()) connection->reader.join();
    ::close(connection->fd);
  }
  // Every serving thread is gone — a final full snapshot makes a clean
  // shutdown lossless (only run once; Stop is otherwise idempotent).
  if (was_running && store_ != nullptr) {
    registry_.PersistTenants(/*only_dirty=*/false);
  }
}

void Server::AcceptLoop() {
  while (running_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) break;  // Stop() already retired the listener
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (Stop) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_unique<Connection>(
        fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed));
    Connection* raw = connection.get();
    raw->reader = std::thread([this, raw] { ReaderMain(raw); });
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    ReapFinished();
  }
}

void Server::ReapFinished() {
  // Unlink finished connections under the lock, but JOIN outside it: a
  // reader flags done just before its thread returns, and Stop() takes
  // the same mutex — joining under it would stall the accept loop
  // behind one straggling connection.
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection->reader.joinable()) connection->reader.join();
    ::close(connection->fd);
  }
}

void Server::ReaderMain(Connection* connection) {
  while (running_.load()) {
    Result<Frame> frame = ReadFrame(connection->fd);
    if (!frame.ok()) {
      // A protocol violation (oversized prefix, truncated payload)
      // leaves the stream unsynchronized: answer once, then close.
      // EOF/read errors just close.
      if (frame.status().code() == Code::kInvalidArgument) {
        SendError(connection, frame.status().message());
      }
      break;
    }
    if (!HandleFrame(connection, std::move(frame.value()))) break;
  }
  if (extension_ != nullptr) extension_->OnConnectionClosed(connection->id);
  // The last reply is on the wire (or the peer is gone): signal EOF. The
  // fd itself is closed when the connection is reaped or the server
  // stops, after this thread is joined.
  ::shutdown(connection->fd, SHUT_RDWR);
  connection->done.store(true);
}

bool Server::SendOk(Connection* connection, BitWriter body) {
  const std::vector<uint8_t> frame = EncodeFrame(kStatusOk, body);
  // Only the frame stays alive while the send blocks on a slow peer.
  body = BitWriter();
  if (frame.empty()) {
    // Body larger than a frame can carry: answer with an error rather
    // than silently dropping the reply (the client is owed exactly one
    // response per request).
    return SendError(connection, "response exceeds the frame size limit");
  }
  return SendAll(connection->fd, frame.data(), frame.size()).ok();
}

bool Server::SendError(Connection* connection, const std::string& message) {
  BitWriter body;
  WriteString(&body, message);
  const std::vector<uint8_t> frame = EncodeFrame(kStatusError, body);
  return SendAll(connection->fd, frame.data(), frame.size()).ok();
}

bool Server::Reply(Connection* connection, const Status& status,
                   BitWriter body) {
  return status.ok() ? SendOk(connection, std::move(body))
                     : SendError(connection, status.message());
}

bool Server::HandleFrame(Connection* connection, Frame frame) {
  // A body that lies about its interior lengths is answered with
  // kMalformedBody: the frame boundary was sound, so the byte stream is
  // still synchronized and the connection keeps serving, like the
  // unknown-opcode case.
  BitReader& body = frame.body;
  switch (Opcode(frame.first)) {
    case Opcode::kCreate: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      const SketchConfig config = DeserializeConfig(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      return Reply(connection, registry_.Create(tenant, key, config));
    }
    case Opcode::kIngest: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      const std::vector<stream::Update> updates = ReadUpdates(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      const Result<uint64_t> seen = registry_.Ingest(tenant, key, updates);
      if (!seen.ok()) return SendError(connection, seen.status().message());
      BitWriter reply;
      reply.WriteU64(updates.size());
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kIngestStream: {
      // Pipelined ingest: NO response frame. The sender streams a run
      // of these back-to-back and collects one cumulative INGEST_SYNC
      // ack, so neither side pays a per-batch round trip. Errors are
      // deferred: the first one poisons the run (later frames are
      // decoded but not applied) and surfaces exactly once, on the
      // sync — the frame boundary stays sound throughout, so the
      // connection itself keeps serving.
      StreamRun& run = connection->run;
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      const std::vector<stream::Update> updates = ReadUpdates(&body);
      if (body.failed()) {
        if (run.error.empty()) run.error = kMalformedBody;
        return true;
      }
      if (!run.error.empty()) return true;
      const Result<uint64_t> seen = registry_.Ingest(tenant, key, updates);
      if (!seen.ok()) {
        run.error = seen.status().message();
        return true;
      }
      run.count += updates.size();
      run.seen = seen.value();
      return true;
    }
    case Opcode::kIngestSync: {
      // Close the streamed run: one ack carrying the cumulative accepted
      // count and the target stream's updates_seen, or the run's first
      // deferred error. Either way the run state resets.
      const StreamRun run = std::exchange(connection->run, StreamRun());
      if (!run.error.empty()) return SendError(connection, run.error);
      BitWriter reply;
      reply.WriteU64(run.count);
      reply.WriteU64(run.seen);
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kQuery: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      const Result<QueryResult> result = registry_.Query(tenant, key);
      if (!result.ok()) return SendError(connection, result.status().message());
      BitWriter reply;
      SerializeQueryResult(*result, &reply);
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kWindow: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      const uint64_t w = body.ReadU64();
      const bool want_state = body.ReadBits(8) != 0;
      if (body.failed()) return SendError(connection, kMalformedBody);
      BitWriter reply;
      {
        Result<TenantRegistry::WindowAnswer> answer =
            registry_.Window(tenant, key, w, want_state);
        if (!answer.ok()) {
          return SendError(connection, answer.status().message());
        }
        SerializeQueryResult(answer->result, &reply);
        reply.WriteU64(answer->start);
        reply.WriteU64(answer->length);
        reply.WriteBits(want_state ? 1 : 0, 8);
        if (want_state) {
          WriteState(&reply, answer.value().state_words,
                     answer.value().state_bits);
        }
      }  // the answer's copy of the state goes before the frame is built
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kSnapshot: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      BitWriter reply;
      {
        const Result<SnapshotBlob> blob = registry_.Snapshot(tenant, key);
        if (!blob.ok()) return SendError(connection, blob.status().message());
        SerializeSnapshot(*blob, &reply);
      }  // the blob's copy of the state goes before the frame is built
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kRestore: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      const SnapshotBlob blob = DeserializeSnapshot(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      return Reply(connection, registry_.Restore(tenant, key, blob));
    }
    case Opcode::kDrop: {
      const std::string tenant = ReadString(&body);
      const std::string key = ReadString(&body);
      if (body.failed()) return SendError(connection, kMalformedBody);
      return Reply(connection, registry_.Drop(tenant, key));
    }
    case Opcode::kStats: {
      BitWriter reply;
      SerializeStats(registry_.Stats(), &reply);
      return SendOk(connection, std::move(reply));
    }
    case Opcode::kEpoch:
    case Opcode::kDistStats:
      break;  // dist-tier opcodes: handled by the extension below
  }
  // Not a core opcode: offer it to the extension (the dist-tier
  // aggregator) before declaring it unknown.
  if (extension_ != nullptr) {
    BitWriter reply;
    Status status = Status::OK();
    if (extension_->HandleOpcode(connection->id, frame.first, &body, &reply,
                                 &status)) {
      return Reply(connection, status, std::move(reply));
    }
  }
  // Well-formed frame, unknown opcode: report and keep serving — the
  // stream is still synchronized.
  return SendError(connection,
                   "unknown opcode " + std::to_string(int(frame.first)));
}

}  // namespace lps::server
