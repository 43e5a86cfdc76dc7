// Worker — the ingest half of the distributed aggregation tier.
//
// A Worker owns one stream's LOCAL ingestion topology (a
// stream::StreamState, the same one TenantRegistry builds server-side)
// and turns it into a sequence of epoch DELTAS: at every epoch boundary
// the state's hook serializes replica 0, Reset()s it, and ships the
// serialized state upstream as an EpochBlob over the lps_serve frame
// protocol. Because replica 0 restarts from zero after every ship, each
// blob carries exactly one epoch's worth of stream, and the aggregator
// reconstructs the whole prefix by folding the deltas with Merge — for
// exact-arithmetic kinds bit-identically to solo ingest, in any fold
// order, by linearity.
//
// Failure model: shipping is at-least-once. The uplink (EpochShipper)
// reconnects with backoff and RE-SENDS the epoch it holds under the
// same (session, seq); the aggregator acks duplicate sequences without
// re-folding, so retries never double-count. A worker that dies loses
// only its unshipped tail — the aggregator keeps serving every epoch
// that was acked, and flags the stream as interrupted (no final
// marker). A RESTARTED worker must present a fresh `session`, which the
// aggregator counts as a gap for the old one.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/stream/stream_state.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace lps::dist {

/// Blocking epoch uplink with reconnect-and-resend. Used by workers and
/// by combiners shipping their folded deltas one level up. Not
/// thread-safe; each shipping thread owns one.
class EpochShipper {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
  };

  explicit EpochShipper(Options options) : options_(std::move(options)) {}

  /// Ships one epoch and waits for its ack, reconnecting and re-sending
  /// on any transport failure: 50 attempts 100 ms apart, so a worker
  /// rides out an aggregator restart of up to ~5 s. A duplicate-sequence
  /// ack (applied == false: the aggregator folded this epoch before the
  /// connection died) is success. An ERROR response is fatal, not
  /// retried — it means the aggregator rejected the epoch's content.
  Result<server::EpochAck> Ship(const server::EpochBlob& blob);

  /// Drops the connection; the next Ship reconnects (test hook for the
  /// resend path).
  void Disconnect() { client_.reset(); }

 private:
  Options options_;
  std::optional<server::Client> client_;
};

class Worker {
 public:
  struct Options {
    EpochShipper::Options uplink;
    std::string tenant;
    std::string key;
    /// Stream spec + windowing + this worker's LOCAL pipeline topology
    /// (config.shards/threads — the aggregator folds inline regardless).
    server::SketchConfig config;
    /// Updates per shipped epoch. 0 defaults to the config's
    /// window_checkpoint (so aggregator-side window seals align with
    /// epoch boundaries), or 8192 when that is 0 too.
    uint64_t epoch_interval = 0;
    std::string worker_id = "w0";
    /// Per-boot nonce; a restarted worker MUST present a new one.
    uint64_t session = 1;
  };

  /// Validates the spec/topology (same bounds as the server's CREATE)
  /// and builds the local stream.
  static Result<std::unique_ptr<Worker>> Create(Options options);

  // The stream's epoch hook holds `this`.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Appends updates to the local stream, sealing and shipping an epoch
  /// at every epoch_interval boundary. Fails on an out-of-universe
  /// index or when an epoch could not be delivered within the uplink's
  /// retry budget.
  Status Push(const stream::Update* updates, size_t count);
  Status Push(const std::vector<stream::Update>& updates) {
    return Push(updates.data(), updates.size());
  }

  /// Seals and ships the trailing partial epoch with the final marker
  /// (shipped even when empty, so the aggregator learns the stream
  /// ended cleanly). The worker is done afterwards; Push fails.
  Status Finish();

  uint64_t epochs_shipped() const { return seq_; }
  uint64_t updates_pushed() const { return stream_->updates_seen(); }

 private:
  Worker(Options options, std::unique_ptr<stream::StreamState> stream);

  /// Serializes replica 0's delta of `count` updates (the stream is
  /// quiesced), Resets it, ships.
  Status ShipEpoch(uint64_t count, bool final_epoch);

  Options options_;
  std::unique_ptr<stream::StreamState> stream_;
  EpochShipper shipper_;
  uint64_t seq_ = 0;
  bool finished_ = false;
};

}  // namespace lps::dist
