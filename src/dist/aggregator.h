// Aggregator — the fold half of the distributed aggregation tier.
//
// Registered as the Server's FrameHandler extension, it owns the two
// dist-tier opcodes: EPOCH (fold one worker delta) and DIST_STATS (the
// fold/gap observability surface). One class, two modes:
//
//   ROOT (options.registry != nullptr): every epoch folds straight into
//   the TenantRegistry with Merge, so the folded global prefix is
//   served by the UNCHANGED query surface — QUERY/WINDOW/SNAPSHOT see a
//   stream indistinguishable from one ingested locally, and for
//   exact-arithmetic kinds bit-identical to it.
//
//   COMBINER (options.upstream_host set): an interior node of the
//   fan-in tree. Child epochs fold into one pending delta per stream; a
//   background thread ships the combined delta upstream every
//   flush_interval_ms under the combiner's own (session, seq) lane.
//   W workers behind C combiners cost the root C lanes instead of W,
//   and fold depth grows O(log W) instead of a root bottleneck.
//
// Epoch ordering per (stream, worker) lane: a re-sent sequence below
// next_seq is acked but NOT re-folded (the at-least-once uplink's
// idempotence); a sequence above next_seq counts the skipped epochs as
// gaps and folds anyway (late data beats no data — the prefix is then
// missing exactly the skipped deltas). A session change without a final
// marker, or a disconnect without one, marks the lane interrupted; the
// aggregator keeps serving every epoch already folded.
//
// Hostile-input stance (same bar as the core server): epoch state is
// validated by DecodeSketchState (src/api/sketch_spec.h) before any
// Merge, so a blob lying about its parameters gets an error response,
// never a CHECK abort.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/dist/worker.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/tenant_registry.h"
#include "src/stream/linear_sketch.h"
#include "src/util/status.h"

namespace lps::dist {

class Aggregator : public server::FrameHandler {
 public:
  struct Options {
    /// Root mode: fold epochs into this registry (must outlive the
    /// aggregator). Null selects combiner mode.
    server::TenantRegistry* registry = nullptr;
    /// Combiner mode: where the combined deltas ship.
    std::string upstream_host = "127.0.0.1";
    int upstream_port = 0;
    /// This combiner's worker_id on its upstream lane.
    std::string node_id = "combiner";
    /// Per-boot nonce for the upstream lane (a restarted combiner must
    /// present a new one, like any worker).
    uint64_t upstream_session = 1;
    /// Cadence of the combined-delta flush to upstream.
    uint64_t flush_interval_ms = 20;
  };

  explicit Aggregator(Options options);
  ~Aggregator() override;

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Combiner mode: spawns the upstream flush thread. Root mode: no-op.
  Status Start();

  /// Joins the flush thread after a final flush (combined tails and, if
  /// every child finished cleanly, the upstream final markers).
  /// Idempotent; also run by the destructor.
  void Stop();

  bool HandleOpcode(uint64_t connection_id, uint8_t opcode, BitReader* body,
                    BitWriter* reply, Status* status) override;
  void OnConnectionClosed(uint64_t connection_id) override;

  /// The DIST_STATS answer (also available in-process for tools/tests).
  server::DistStats Stats();

 private:
  /// One (stream, worker) delivery lane.
  struct Lane {
    std::string stream;  ///< "tenant/key" display name
    std::string worker_id;
    uint64_t session = 0;
    uint64_t next_seq = 0;
    uint64_t epochs = 0;
    uint64_t updates = 0;
    uint64_t gaps = 0;
    bool finished = false;
    bool connected = false;
    uint64_t connection_id = 0;
  };

  /// Combiner-mode per-stream accumulator: child deltas Merge here
  /// between flushes; Reset() after each ship keeps it a pure delta.
  struct Pending {
    std::string tenant;
    std::string key;
    server::SketchConfig config;
    std::unique_ptr<LinearSketch> sketch;
    uint64_t count = 0;
    bool dirty = false;
    uint64_t ship_seq = 0;
    bool final_sent = false;
  };

  Status HandleEpoch(uint64_t connection_id, const server::EpochBlob& blob,
                     server::EpochAck* ack);
  /// Combiner fold target (root folds into the registry instead).
  Status FoldPendingLocked(const server::EpochBlob& blob);
  void FlushLoop();
  /// Ships dirty combined deltas upstream, plus the final markers of
  /// streams whose children have all finished.
  void FlushPending();

  Options options_;
  std::mutex mutex_;
  std::unordered_map<std::string, Lane> lanes_;      // lane key
  std::unordered_map<std::string, Pending> pending_;  // stream key
  uint64_t epochs_folded_ = 0;
  uint64_t updates_folded_ = 0;
  uint64_t gaps_ = 0;
  uint64_t sessions_ = 0;
  uint64_t fold_ns_ = 0;
  std::unique_ptr<EpochShipper> upstream_;  // combiner mode only
  std::thread flush_thread_;
  std::condition_variable flush_cv_;
  bool stop_ = false;  // under mutex_
};

}  // namespace lps::dist
