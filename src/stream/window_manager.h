// WindowManager — sliding-window queries over any LinearSketch, by
// subtraction instead of re-ingestion.
//
// Every structure in this library is a linear function of the stream
// vector x, so the sketch of a window is the difference of two prefix
// sketches: if S(t) sketches the first t updates, then
//
//     WindowSketch(w) = S(now) - S(expired)      (MergeNegated)
//
// sketches exactly the updates in (expired, now]. The WindowManager
// maintains that subtraction cheaply: a ring of CHECKPOINTS — serialized
// prefix snapshots of the live sketch, sealed every checkpoint_interval
// updates — plus the live sketch itself as S(now). Materializing any
// trailing window costs O(sketch size): deserialize the current state,
// deserialize the newest checkpoint at or before the window start, and
// fold -1 x its counters in. No update is ever re-ingested, and the
// stream itself is never buffered.
//
// Window starts round DOWN to a checkpoint boundary: WindowSketch(w)
// returns the smallest materializable window that CONTAINS the last w
// updates (up to checkpoint_interval - 1 extra leading updates; exact
// when the window start lands on a checkpoint). The returned Window
// reports the actual start/length so callers can see the rounding.
//
// Exactness follows the Merge taxonomy (tests/merge_test.cc): for the
// exact-arithmetic families (GF(2^61-1) fingerprints/syndromes and
// integer-valued double counters) the materialized window is
// BIT-IDENTICAL to a sketch fed only the window's updates; for genuinely
// real-scaled counters (p-stable rows, the Lp sampler's t_i^{-1/p}
// scaling) it agrees up to floating-point reassociation, which the
// samplers' index selection tolerates. The duplicates finders add their
// shared (i, -1) init sketch back inside MergeNegated, so a materialized
// window behaves as a finder that saw exactly the window's letters.
//
// Composition with the parallel runtime: when ingestion flows through a
// ParallelPipeline, replica 0 holds the full prefix only after a
// MergeShards() epoch — so checkpoints must be sealed AT epoch
// boundaries, not mid-epoch. SealEpoch(count) is that hook: call it right
// after MergeShards() and the epoch boundary becomes a checkpoint,
// making any trailing run of epochs materializable. When the
// WindowManager owns ingestion instead (Push/PushBatch/Drive forwarding
// to the live sketch), it seals automatically every checkpoint_interval
// updates, splitting batches at the boundary so checkpoints land exactly.
//
// Memory: ring size x serialized sketch size. max_checkpoints bounds the
// ring (oldest snapshots are evicted first), trading farthest-back window
// start for memory; CheckpointBytes() reports the current footprint so
// deployments can size the ring (bench/bench_window.cc tracks it).
//
// Spill (AttachSpill): with a persist::CheckpointStore attached, only the
// newest `resident_checkpoints` snapshots stay in RAM; older ones are
// delta-compressed against their predecessor (persist::EncodeBestDelta,
// with a keyframe every keyframe_interval records so no rehydration
// replays an unbounded chain) and appended to the store. WindowSketch()
// rehydrates spilled checkpoints transparently — decode the chain from
// the nearest keyframe — so windowed queries are BIT-IDENTICAL to the
// all-RAM ring for the exact-arithmetic families (the codec never
// interprets the serialized bytes, so this holds for every kind).
// max_checkpoints then bounds the starts a window can select, resident +
// spilled together, exactly as in the all-RAM ring (the oldest SPILLED
// entries stop being selectable first). It does not bound which records
// stay decodable: a selectable entry's chain back to its keyframe is
// kept, and only entries in front of that keyframe are dropped (their
// records stay in the append-only store, unreachable). When the store
// fails, answers clamp rather than change: a failed append stops
// spilling and forgets the spilled entries (the store is no longer
// read), and a spilled record that can no longer be read or decoded
// makes WindowSketch clamp to the oldest start it can still build, as
// ring eviction does. SpilledBytes() reports the compressed on-disk
// footprint next to CheckpointBytes()'s resident one.
//
// Thread-safety: none of its own — like the pipeline's producer side,
// Push/Drive/Seal/WindowSketch must be externally serialized with any
// concurrent use of the live sketch.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/checkpoint_store.h"
#include "src/persist/delta_codec.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/update.h"

namespace lps::stream {

class WindowManager {
 public:
  struct Options {
    /// Updates between automatically sealed checkpoints (Push/Drive
    /// ingestion). Smaller = finer window granularity, more snapshots.
    uint64_t checkpoint_interval = 4096;
    /// Ring capacity in checkpoints; 0 = unbounded. When full, the OLDEST
    /// checkpoint is evicted: windows reaching farther back than the ring
    /// clamp to the oldest retained boundary (Window reports the clamp).
    size_t max_checkpoints = 0;
  };

  /// A materialized trailing window: the sketch of updates
  /// [start, start + length), where start is the chosen checkpoint
  /// boundary and start + length == updates_seen().
  struct Window {
    std::unique_ptr<LinearSketch> sketch;
    uint64_t start = 0;
    uint64_t length = 0;
  };

  /// Spill configuration: see the class comment. `store` must outlive
  /// this object; `stream_key` names this manager's record stream inside
  /// the store (records from earlier processes under the same key are
  /// ignored — the chain restarts at a keyframe).
  struct SpillOptions {
    persist::CheckpointStore* store = nullptr;
    std::string stream_key;
    /// Newest checkpoints kept in RAM (>= 1).
    size_t resident_checkpoints = 4;
    /// Every keyframe_interval-th spilled record is self-contained.
    size_t keyframe_interval = 16;
  };

  /// Attaches to `live`, which must outlive this object. The live
  /// sketch's CURRENT state becomes the position-0 checkpoint — attach at
  /// construction time (or treat prior state as permanently in-window).
  WindowManager(LinearSketch* live, Options options);

  /// Ingestion-owning mode: forwards to the live sketch's batch fast
  /// path, sealing a checkpoint every checkpoint_interval updates
  /// (batches are split at the boundary, so checkpoint positions are
  /// exact multiples regardless of chunking).
  void Push(Update u) { PushBatch(&u, 1); }
  void PushBatch(const Update* updates, size_t count);
  size_t Drive(const UpdateStream& stream);

  /// Epoch mode: the caller ingested `count` updates into the live sketch
  /// out of band (e.g. a ParallelPipeline epoch, closed by MergeShards()
  /// so replica 0 holds the full prefix) — record them and seal a
  /// checkpoint at the new position.
  void SealEpoch(uint64_t count);

  /// Seals a checkpoint at the current position (idempotent at a given
  /// position). Called automatically by PushBatch and SealEpoch.
  void Seal();

  /// Materializes the sketch of (at least) the last `w` updates in
  /// O(sketch size): current state minus the newest checkpoint at or
  /// before the window start. w >= updates_seen() (or w reaching behind
  /// an evicted checkpoint) clamps to the oldest retained boundary; a
  /// spilled checkpoint that cannot be read clamps to the next newer one
  /// that can (the resident ring at the latest).
  Window WindowSketch(uint64_t w) const;

  /// Enables spill-to-store for checkpoints beyond the resident budget.
  /// Attach before ingesting (checkpoints already beyond the budget are
  /// spilled immediately). If a store append ever fails (e.g. disk
  /// full), spilling is disabled, the checkpoint stays resident, the
  /// spilled checkpoints are forgotten, and the error is retained in
  /// last_spill_error().
  void AttachSpill(SpillOptions spill);

  uint64_t updates_seen() const { return updates_seen_; }
  uint64_t checkpoint_interval() const { return interval_; }
  /// Checkpoints a window can start at: resident + selectable spilled.
  size_t checkpoint_count() const { return ring_.size() + spilled_count(); }
  /// Spilled checkpoints a window can start at (not those kept only to
  /// decode them).
  size_t spilled_count() const { return spilled_.size() - anchor_only_; }
  /// Earliest window start currently selectable (the oldest retained
  /// checkpoint's position, spilled or resident).
  uint64_t oldest_start() const {
    return spilled_count() == 0 ? ring_.front().count
                                : spilled_[anchor_only_].count;
  }
  /// Serialized bytes held by the RESIDENT checkpoint ring — the memory
  /// the sliding-window capability costs on top of the live sketch.
  size_t CheckpointBytes() const;
  /// Compressed bytes this manager has appended to the spill store.
  uint64_t SpilledBytes() const { return spilled_bytes_; }
  Status last_spill_error() const { return last_spill_error_; }

 private:
  struct Checkpoint {
    uint64_t count = 0;            // prefix length at seal time
    std::vector<uint64_t> words;   // full serialized state (BitWriter)
    size_t bits = 0;
  };

  /// A spilled checkpoint: where its compressed delta lives in the store
  /// and whether it is a self-contained keyframe.
  struct SpilledCheckpoint {
    uint64_t count = 0;
    size_t record_index = 0;       // index in the store's key stream
    bool keyframe = false;
  };

  /// Moves ring_.front() into the store as a compressed delta record.
  void SpillOldest();
  /// Applies ring / spill retention after a seal.
  void Trim();
  /// Reconstructs the spilled checkpoint at spilled_[meta_index] into
  /// `*out` by decoding the delta chain from its nearest keyframe (reusing
  /// the rehydrate cache when it lies on the chain). A record that cannot
  /// be read or decoded is an error, and `*failed` is its spilled_ index.
  Status Rehydrate(size_t meta_index, Checkpoint* out, size_t* failed) const;
  /// Forgets the unreadable spilled_[failed] and the deltas chained on it,
  /// so no count or later query lists them again; returns the index the
  /// entry after them now has.
  size_t ForgetUnreadable(size_t failed) const;

  LinearSketch* live_;
  uint64_t interval_;
  size_t max_checkpoints_;
  uint64_t updates_seen_ = 0;
  uint64_t next_seal_;               // position of the next automatic seal
  std::deque<Checkpoint> ring_;      // ascending by count; front = oldest

  SpillOptions spill_;               // spill_.store == nullptr -> disabled
  // Ascending; all older than ring_. Mutable, as are the two fields
  // below: a query that meets an unreadable record forgets it
  // (ForgetUnreadable).
  mutable std::deque<SpilledCheckpoint> spilled_;
  // Leading spilled_ entries kept only as the chain a selectable entry
  // decodes from: no window starts at them.
  mutable size_t anchor_only_ = 0;
  // Plaintext of the most recently spilled checkpoint — the predecessor
  // the next spilled record deltas against.
  mutable std::vector<uint64_t> last_spilled_words_;
  size_t last_spilled_bits_ = 0;
  size_t spill_records_ = 0;         // spilled by THIS manager (keyframe cadence)
  uint64_t spilled_bytes_ = 0;
  Status last_spill_error_;
  // Single-entry rehydrate cache, keyed by checkpoint position.
  mutable bool cache_valid_ = false;
  mutable Checkpoint cache_;
};

}  // namespace lps::stream
