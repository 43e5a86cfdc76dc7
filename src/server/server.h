// Server — the TCP transport of lps_serve.
//
// Threading model: one accept thread owns the listening socket; each
// accepted connection gets ONE thread, which reads a length-prefixed
// frame, decodes the request, calls the matching TenantRegistry method
// and sends the encoded reply before it reads the next frame. Replies
// therefore leave in request order, and a connection holds at most one
// encoded reply: a peer that stops reading blocks only its own thread,
// in send(), once the socket buffers are full. A failed send (the peer
// reset or went away) ends the connection.
//
// No lock is held across socket I/O. Cross-tenant parallelism comes
// from the registry's entry-level locking: N connections ingesting into
// N tenants proceed concurrently, serialized only per stream.
//
// Failure containment: a malformed frame must never take the daemon
// down. An oversized length prefix or truncated payload makes the byte
// stream unsynchronized — the connection gets a best-effort error frame
// and is closed; an unknown opcode inside a well-formed frame gets an
// error response and the connection continues, as does a well-formed
// frame whose BODY lies about its interior lengths (bodies decode
// through a permissive BitReader and every claimed count is checked
// against the delivered bits — see protocol.h). Request VALUES that
// would trip a library precondition (out-of-range spec parameters,
// update indices past the declared universe, snapshot state that does
// not match its config) are rejected by the registry before they reach
// CHECK-guarded code. Registry-level errors (unknown tenant, duplicate
// CREATE, ...) are ordinary error responses. Other connections are
// never affected; tests/server_test.cc drives all of these against a
// live server.
//
// Durability (optional, data_dir != ""): Start() opens a
// persist::CheckpointStore in data_dir, restores every tenant whose
// latest record is a snapshot (so a SIGKILL'd daemon reboots answering
// identically), and spawns one background thread that periodically
// snapshots dirty tenants — and, with idle_timeout_ms set, evicts idle
// ones to the store, from which they rehydrate lazily on next touch.
// Stop() takes a final full snapshot, so a clean shutdown loses
// nothing; a crash loses at most the updates since the last periodic
// snapshot (bounded by snapshot_interval_ms).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/persist/checkpoint_store.h"
#include "src/server/protocol.h"
#include "src/server/tenant_registry.h"

namespace lps::server {

/// Extension point for opcodes the core transport does not implement
/// (the distributed-aggregation tier in src/dist/ registers one).
/// Server offers every non-core opcode here before answering "unknown
/// opcode". Implementations must be thread-safe: HandleOpcode runs
/// concurrently on connection threads.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// Returns true when this handler owns `opcode`; the server then
  /// sends either an error response carrying `status`'s message (when
  /// non-OK) or an ok response with `*reply` as its body. `body` is the
  /// request's permissive reader; a handler that finds it failed()
  /// should answer "malformed request body" like the core opcodes do.
  /// `connection_id` is stable for the life of the TCP connection and
  /// never reused within one server.
  virtual bool HandleOpcode(uint64_t connection_id, uint8_t opcode,
                            BitReader* body, BitWriter* reply,
                            Status* status) = 0;

  /// The connection's reader exited (peer EOF, protocol violation, or
  /// server shutdown) — runs exactly once per accepted connection.
  virtual void OnConnectionClosed(uint64_t connection_id) = 0;
};

class Server {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an
    /// ephemeral port (tests/bench), reported by port() after Start().
    int port = 0;
    /// Durable checkpoint-store directory; "" disables persistence.
    std::string data_dir;
    /// Cadence of the background dirty-tenant snapshot pass (the crash
    /// loss bound). 0 disables the background thread.
    uint64_t snapshot_interval_ms = 1000;
    /// Tenants untouched this long are persisted + evicted from RAM
    /// (lazy rehydration on next touch). 0 disables eviction.
    uint64_t idle_timeout_ms = 0;
    /// Window checkpoints kept resident per tenant; older ones spill
    /// delta-compressed into the store. 0 disables window spill.
    size_t resident_checkpoints = 4;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread. InvalidArgument /
  /// Failed on socket errors (e.g. port in use).
  Status Start();

  /// Shuts down every connection, joins every thread, closes the
  /// listener. Idempotent; also run by the destructor.
  void Stop();

  /// The actually bound port (resolves port 0 after Start()).
  int port() const { return port_; }

  TenantRegistry& registry() { return registry_; }

  /// Attaches the non-core-opcode handler (the dist-tier aggregator).
  /// Must run before Start(); `handler` must outlive the server.
  void set_extension(FrameHandler* handler) { extension_ = handler; }

  /// Tenants rebuilt from the store during Start() (0 without data_dir).
  size_t restored_tenants() const { return restored_tenants_; }

  /// Tenants whose store snapshot Start() could not rebuild, with why.
  const std::vector<TenantRegistry::RestoreFailure>& restore_failures() const {
    return restore_failures_;
  }

  /// The open checkpoint store; null without data_dir / before Start().
  persist::CheckpointStore* store() { return store_.get(); }

 private:
  /// An INGEST_STREAM run: what the next INGEST_SYNC acknowledges.
  struct StreamRun {
    uint64_t count = 0;  ///< updates accepted since the last sync
    uint64_t seen = 0;   ///< target stream's updates_seen, last frame
    std::string error;   ///< first deferred error; empty = clean run
  };

  struct Connection {
    Connection(int fd_in, uint64_t id_in) : fd(fd_in), id(id_in) {}
    int fd;
    /// Monotonic per-server id, handed to the FrameHandler extension so
    /// it can track per-connection peers (never reused).
    uint64_t id;
    std::thread reader;
    std::atomic<bool> done{false};
    StreamRun run;  ///< touched by the connection's thread only
  };

  void AcceptLoop();
  void ReaderMain(Connection* connection);
  /// Decodes and executes one request and sends its reply (INGEST_STREAM
  /// has none). Returns false when the connection must close: the
  /// stream is unsynchronized or the reply could not be sent.
  bool HandleFrame(Connection* connection, Frame frame);
  /// Each returns false when the send failed (the peer is gone). SendOk
  /// frees `body` once the frame is built, so a reply blocked on a slow
  /// peer holds one copy of its bytes.
  bool SendOk(Connection* connection, BitWriter body);
  bool SendError(Connection* connection, const std::string& message);
  /// An ok reply with `body` when `status` is OK, else its error.
  bool Reply(Connection* connection, const Status& status,
             BitWriter body = BitWriter());
  /// Unlinks finished connections under connections_mutex_, then joins
  /// them outside it (called from the accept loop so long-lived servers
  /// do not accumulate dead threads, without the accept loop ever
  /// blocking on a join while holding the mutex).
  void ReapFinished();
  /// Background persistence: periodic dirty snapshots + idle eviction.
  void SnapshotLoop();

  Options options_;
  FrameHandler* extension_ = nullptr;  // set before Start(), then const
  std::atomic<uint64_t> next_connection_id_{1};
  /// Declared BEFORE registry_: entries hold WindowManagers whose spill
  /// chains reference the store, so the registry must die first.
  std::unique_ptr<persist::CheckpointStore> store_;
  TenantRegistry registry_;
  /// Atomic: the accept loop re-reads it per iteration while Stop()
  /// (another thread) swaps in -1 before closing the socket.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  size_t restored_tenants_ = 0;
  std::vector<TenantRegistry::RestoreFailure> restore_failures_;
  std::thread snapshot_thread_;
  std::mutex snapshot_mutex_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;  // under snapshot_mutex_
};

}  // namespace lps::server
