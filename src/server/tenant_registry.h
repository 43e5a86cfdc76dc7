// TenantRegistry — the named-sketch store behind lps_serve.
//
// Each (tenant, key) pair owns one stream::StreamState built from the
// CREATE request's SketchSpec and topology (replicas, optional pipeline,
// optional window — sealed at the positions solo ingestion would, see
// src/stream/stream_state.h). The transport layer above just decodes
// frames and calls one method per opcode.
//
// Concurrency model (two levels, both sized for many tenants):
//
//   - The map from the length-prefixed (tenant, key) name to entries
//     is sharded across
//     kLockShards independently locked submaps, so CREATE/DROP/lookup
//     traffic for different tenants rarely contends. Lookups copy the
//     shared_ptr and release the shard lock immediately.
//   - Each entry has its own mutex serializing ingest/query/snapshot on
//     that one stream — exactly the external serialization StreamState
//     demands. Two tenants never share an entry lock, so 64 tenants
//     ingest on 64 connections with no shared mutable state beyond the
//     stats counters (atomics). DROP under a concurrent operation is
//     safe: the operation's shared_ptr keeps the entry alive until it
//     returns.
//
// Queries, snapshots and folds quiesce the stream first, so a sharded
// tenant's replica 0 and window are current when read.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/query_result.h"
#include "src/persist/checkpoint_store.h"
#include "src/server/protocol.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/stream_state.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace lps::server {

class TenantRegistry {
 public:
  /// A materialized window answer: the query result plus the actual
  /// window bounds after checkpoint rounding. want_state additionally
  /// returns the window sketch's full serialized state, so a client can
  /// compare bit-for-bit against a locally materialized window.
  struct WindowAnswer {
    QueryResult result;
    uint64_t start = 0;
    uint64_t length = 0;
    std::vector<uint64_t> state_words;
    size_t state_bits = 0;
  };

  /// Durability knobs (active only once AttachStore ran).
  struct PersistOptions {
    /// Newest window checkpoints kept in RAM per tenant; older ones are
    /// delta-compressed into the store. 0 disables window spill.
    size_t resident_checkpoints = 4;
    /// Keyframe cadence of each tenant's spill chain.
    size_t keyframe_interval = 16;
  };

  TenantRegistry() = default;

  /// Attaches the durable store. Must run before any Create/Restore and
  /// before traffic (lps_serve wires it between store open and
  /// Server::Start). `store` must outlive the registry.
  void AttachStore(persist::CheckpointStore* store, PersistOptions options);

  /// A tenant whose latest store record is a snapshot that boot could not
  /// rebuild.
  struct RestoreFailure {
    std::string store_key;  ///< the tenant's store key, "t:" + map key
    Status status;          ///< why the snapshot did not decode
  };

  /// Rebuilds every tenant whose latest store record is a snapshot (boot
  /// recovery). Returns the number restored. A snapshot that fails to
  /// decode (a damaged record, or state of a layout this library no
  /// longer reads) is skipped, not fatal; each such tenant is appended to
  /// `failures`, when given, with its store key and the reason.
  size_t RestoreAll(std::vector<RestoreFailure>* failures = nullptr);

  /// Snapshots tenants into the store and fsyncs: every tenant when
  /// `only_dirty` is false, else only those with updates since their
  /// last persisted snapshot. Returns the number written.
  size_t PersistTenants(bool only_dirty);

  /// Persists then drops every live tenant idle for at least
  /// `idle_timeout_ms` (measured from its last opcode touch). Evicted
  /// tenants rehydrate lazily from their store snapshot on next touch.
  /// Returns the number evicted.
  size_t EvictIdle(uint64_t idle_timeout_ms);

  /// Registers (tenant, key). InvalidArgument if it already exists, the
  /// spec's kind is unknown, or the topology is malformed.
  Status Create(const std::string& tenant, const std::string& key,
                const SketchConfig& config);

  /// Appends a batch of updates to the stream. InvalidArgument for an
  /// index outside the spec's universe. Returns the stream's
  /// updates_seen after the batch (the cumulative position INGEST_SYNC
  /// acks report).
  Result<uint64_t> Ingest(const std::string& tenant, const std::string& key,
                          const std::vector<stream::Update>& updates);

  /// Folds one distributed epoch delta into (tenant, key): Merge into
  /// the whole-prefix sketch, seal a window checkpoint at the epoch
  /// boundary, advance updates_seen by `count`. Creates the entry from
  /// `config` on first fold, with an inline topology — the aggregator
  /// needs no pipeline; its fan-in parallelism IS the worker processes.
  /// `delta` must already be validated against `config` (the aggregator
  /// runs DecodeSketchState first); this method cross-checks `config`
  /// against the entry's with IdenticalSpecs so a stream created with
  /// different parameters can never reach Merge's parameter CHECK.
  Status FoldEpoch(const std::string& tenant, const std::string& key,
                   const SketchConfig& config, const LinearSketch& delta,
                   uint64_t count);

  /// Whole-stream query: quiesces any open pipeline epoch, then answers
  /// from replica 0 with the same unified QueryResult the CLI prints.
  Result<QueryResult> Query(const std::string& tenant, const std::string& key);

  /// Trailing-window query over (at least) the last `w` updates.
  /// InvalidArgument when the entry was created without windowing.
  Result<WindowAnswer> Window(const std::string& tenant,
                              const std::string& key, uint64_t w,
                              bool want_state);

  /// Full restorable state of the stream (config + serialized sketch).
  Result<SnapshotBlob> Snapshot(const std::string& tenant,
                                const std::string& key);

  /// Recreates (tenant, key) from a snapshot, e.g. after a daemon
  /// restart. The restored state becomes the stream's new origin for
  /// windowing (checkpoint position 0). InvalidArgument if the key is
  /// live or the blob's state does not match its declared kind.
  Status Restore(const std::string& tenant, const std::string& key,
                 const SnapshotBlob& blob);

  Status Drop(const std::string& tenant, const std::string& key);

  ServerStats Stats() const;

 private:
  /// One (tenant, key) stream.
  struct Entry {
    std::mutex mutex;
    SketchConfig config;
    std::unique_ptr<stream::StreamState> stream;
    // ---- persistence bookkeeping (all under `mutex`) ----
    std::string tenant;  // wire names, for self-describing store records
    std::string key;
    /// updates_seen at the last store snapshot; SIZE_MAX = never.
    uint64_t persisted_updates = ~uint64_t{0};
    /// Monotonic ms of the last opcode touching this entry (idle clock).
    uint64_t last_touch_ms = 0;
    /// Set (under `mutex`) when EvictIdle removed this entry from the
    /// map after persisting it. An operation that raced the eviction —
    /// grabbed the shared_ptr, then blocked on the mutex — sees the flag
    /// and retries through Find, which rehydrates the snapshot; without
    /// it the operation would mutate an orphan and lose its updates.
    bool evicted = false;
  };

  struct MapShard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries;
  };

  static constexpr size_t kLockShards = 16;

  static std::string MapKey(const std::string& tenant, const std::string& key) {
    // Wire strings are length-prefixed and may contain ANY byte, so a
    // separator alone is ambiguous: ("a\0b", "c") and ("a", "b\0c")
    // must not alias. Prefixing the tenant's decimal length keeps the
    // parse unambiguous — the digits run ends at the first ':', and the
    // tenant's own bytes are covered by the count.
    return std::to_string(tenant.size()) + ':' + tenant + key;
  }
  MapShard& ShardFor(const std::string& map_key) {
    return shards_[std::hash<std::string>()(map_key) % kLockShards];
  }
  std::shared_ptr<Entry> Find(const std::string& tenant,
                              const std::string& key);

  /// Find + lock, retrying past entries evicted between the lookup and
  /// the lock acquisition. On success `lock` owns the entry's mutex.
  std::shared_ptr<Entry> FindLive(const std::string& tenant,
                                  const std::string& key,
                                  std::unique_lock<std::mutex>* lock);

  /// Builds an entry's stream from its config — restored from `blob`'s
  /// state when given, which becomes checkpoint position 0. Returns
  /// InvalidArgument without mutating the registry on a bad config or
  /// state. The entry is NOT yet inserted and carries no tenant/key names.
  static Result<std::shared_ptr<Entry>> BuildEntry(const SketchConfig& config,
                                                   const SnapshotBlob* blob);

  /// Names a built entry, wires its spill and inserts it. InvalidArgument
  /// when `built` failed or the key is already live.
  Status Insert(const std::string& tenant, const std::string& key,
                Result<std::shared_ptr<Entry>> built);

  /// Quiesces the stream and captures its restorable state. Caller holds
  /// the entry mutex.
  static SnapshotBlob SnapshotLocked(Entry* entry);

  /// Wires window spill into a freshly built entry (no-op without a
  /// store or window, or with resident_checkpoints == 0).
  void AttachEntrySpill(Entry* entry, const std::string& map_key);

  /// Serializes a snapshot record ([tenant][key][SnapshotBlob] as a bit
  /// stream) and appends it under "t:<map_key>". Caller holds the entry
  /// mutex. Updates persisted_updates on success.
  Status PersistEntryLocked(Entry* entry, const std::string& map_key);

  /// Rebuilds an entry from the latest snapshot record under
  /// "t:<map_key>" and inserts it (no-op if the key went live again in
  /// the meantime). Returns the live entry; null when the store holds no
  /// snapshot for the key (never persisted, or tombstoned); an error when
  /// the snapshot does not decode.
  Result<std::shared_ptr<Entry>> RehydrateTenant(const std::string& map_key);

  /// Every live entry with its map key (snapshot of the sharded map).
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> AllEntries()
      const;

  MapShard shards_[kLockShards];
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> ingests_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> snapshots_{0};
  persist::CheckpointStore* store_ = nullptr;  // null = no durability
  PersistOptions persist_options_;
};

}  // namespace lps::server
