// StreamState — one ingestion stream, composed once: k identically seeded
// replicas of a SketchSpec, a ParallelPipeline over them when the
// topology is sharded or threaded, and a WindowManager over replica 0
// when windowing is on. The server's tenants, the distributed worker,
// io::PipelineSink and lps_cli all ingest through this class; nothing
// else composes those three runtimes.
//
// The seal rule. Every structure in the library is a linear sketch, so
// sharded, windowed and epoch-shipped ingestion are all exact by one
// argument: close each pipeline epoch, and seal each window checkpoint,
// at the position solo ingestion would.
//   - Push feeds the pipeline with PushBatch, never quiescing per call;
//     the pipeline cuts per-shard batches by its own fill rule.
//   - An epoch closes every epoch_interval updates, counted from the
//     stream's origin (creation or restore). Push cuts its input at each
//     boundary, calls MergeShards (replica 0 then holds the whole prefix)
//     and WindowManager::SealEpoch, then the optional epoch hook.
//   - Inline (one shard, no threads) there is no pipeline to merge. A
//     windowed inline stream seals through WindowManager::PushBatch,
//     which splits batches at the same multiples of the interval.
//   - Quiesce() closes the open partial epoch only when replica 0 lags,
//     i.e. only with a pipeline: MergeShards, then SealEpoch at the
//     current, possibly unaligned, position. The epoch schedule does not
//     move, so later checkpoints still land on multiples of the interval.
//     An inline windowed stream gains no unaligned checkpoint.
// Integer-counter kinds are therefore bit-identical to solo ingestion at
// every topology and every push chunking, windows included; the
// floating-point kinds agree up to reassociation
// (tests/stream_state_test.cc).
//
// Thread-safety: none of its own. As with the pipeline's producer side
// and the window manager, every call must be externally serialized.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/api/sketch_spec.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/parallel_pipeline.h"
#include "src/stream/update.h"
#include "src/stream/window_manager.h"
#include "src/util/status.h"

namespace lps::stream {

class StreamState {
 public:
  struct Options {
    int shards = 1;   ///< replicas; in [1, 1024]
    int threads = 0;  ///< pipeline workers; in [0, 1024], 0 = inline
    /// Window checkpoint interval; 0 = no window.
    uint64_t window_checkpoint = 0;
    /// Window ring bound; 0 = unbounded.
    size_t max_checkpoints = 0;
    /// Updates per epoch; 0 = window_checkpoint.
    uint64_t epoch_interval = 0;
  };

  /// Runs after an epoch closed, with the epoch's update count; replica 0
  /// is quiesced and may be read or Reset. An error stops Push.
  using EpochHook = std::function<Status(uint64_t count)>;

  /// Validates the topology and the spec, then builds the replicas, the
  /// pipeline and the window. InvalidArgument, never an abort, on any
  /// out-of-range value.
  static Result<std::unique_ptr<StreamState>> Create(const SketchSpec& spec,
                                                     const Options& options);

  /// Create, with replica 0 restored from a serialized state of `spec`
  /// before the window takes its position-0 checkpoint: the restored
  /// prefix is the window's origin. The state goes through
  /// DecodeSketchState, so corrupt bytes and state of any other spec are
  /// InvalidArgument. updates_seen() starts at `updates_seen`.
  static Result<std::unique_ptr<StreamState>> Restore(
      const SketchSpec& spec, const Options& options,
      const std::vector<uint64_t>& state_words, size_t state_bits,
      uint64_t updates_seen);

  /// Non-owning: drives a caller's pipeline (and window over its replica
  /// 0) by the same rule. Both must outlive this object; a window needs
  /// epoch_interval > 0. No universe check; sketch() is unavailable.
  StreamState(ParallelPipeline* pipeline, WindowManager* window,
              uint64_t epoch_interval);

  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  void set_epoch_hook(EpochHook hook) { hook_ = std::move(hook); }

  /// Appends updates. An index outside the spec's enforced universe is
  /// InvalidArgument before anything is applied; a hook error is returned
  /// as soon as it happens, with the updates after that boundary unapplied.
  Status Push(const Update* updates, size_t count);

  /// Closes the open partial epoch when replica 0 lags the stream (only
  /// with a pipeline), so replica 0 and the window are current. The epoch
  /// hook does not run.
  void Quiesce();

  /// Folds an out-of-band delta of `count` updates (a distributed epoch)
  /// into replica 0 and seals a window checkpoint after it. The next
  /// epoch closes a full interval later.
  void Fold(const LinearSketch& delta, uint64_t count);

  /// Quiesces and hands over replica 0; the state may only be destroyed
  /// afterwards.
  std::unique_ptr<LinearSketch> ReleaseSketch();

  /// Replica 0: the whole stream's sketch once quiesced.
  LinearSketch& sketch() const { return *replicas_[0]; }
  /// Null when windowing is off.
  WindowManager* window() const { return window_; }
  uint64_t updates_seen() const { return updates_seen_; }
  /// Updates since the last epoch boundary (boundaries exist only with a
  /// pipeline or an epoch hook).
  uint64_t epoch_fill() const { return fill_; }

 private:
  StreamState() = default;

  static Result<std::unique_ptr<StreamState>> Build(
      const SketchSpec& spec, const Options& options,
      const std::vector<uint64_t>* state_words, size_t state_bits);

  // Owned storage (null/empty in the non-owning form). Member order is
  // destruction order in reverse: the window and the pipeline point into
  // the replicas, so both die first.
  std::vector<std::unique_ptr<LinearSketch>> replicas_;
  std::unique_ptr<ParallelPipeline> owned_pipeline_;
  std::unique_ptr<WindowManager> owned_window_;

  ParallelPipeline* pipeline_ = nullptr;  // null = inline
  WindowManager* window_ = nullptr;       // null = no window
  EpochHook hook_;
  uint64_t interval_ = 0;       // 0 = no epoch boundaries
  uint64_t universe_ = 0;       // EnforcedUniverse(spec); 0 = unchecked
  uint64_t updates_seen_ = 0;
  uint64_t fill_ = 0;           // updates since the last epoch boundary
  uint64_t lag_ = 0;            // updates pushed since the last MergeShards
};

}  // namespace lps::stream
