#include "src/stream/stream_state.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/util/check.h"
#include "src/util/serialize.h"

namespace lps::stream {

namespace {

// Low 16 bits of every serialized sketch ("LS").
constexpr uint64_t kSketchMagic = 0x4C53;

// Deserialize CHECK-aborts on corrupt state, which must stay unreachable
// from the wire and from a store record damaged below the CRC's notice:
// everything is pre-validated with plain integer tests.
Status RestoreReplica(LinearSketch* fresh, const SketchSpec& spec,
                      const std::vector<uint64_t>& words, size_t bits) {
  if (bits < 32 || bits > words.size() * 64) {
    return Status::InvalidArgument("snapshot state truncated");
  }
  const uint64_t head = words[0];
  if ((head & 0xFFFF) != kSketchMagic) {
    return Status::InvalidArgument("snapshot state is not a serialized sketch");
  }
  if (((head >> 16) & 0xFF) != uint64_t(spec.kind)) {
    return Status::InvalidArgument(
        "snapshot state kind does not match its config");
  }
  const auto version = uint32_t((head >> 24) & 0xFF);
  if (version < 1 || version > kSketchFormatVersion) {
    return Status::InvalidArgument("snapshot state version unsupported");
  }
  // Serialized size and the leading word (header + first parameter bits)
  // are pure functions of the spec — counters only change values, never
  // layout. The fresh replica is therefore an exact template for both,
  // which rejects truncated, padded, or version-skewed state before
  // Deserialize walks it.
  BitWriter probe;
  fresh->Serialize(&probe);
  if (bits != probe.bit_count() || words[0] != probe.words()[0]) {
    return Status::InvalidArgument(
        "snapshot state does not match its declared config");
  }
  BitReader reader(words, bits);
  fresh->Deserialize(&reader);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<StreamState>> StreamState::Create(
    const SketchSpec& spec, const Options& options) {
  return Build(spec, options, nullptr, 0);
}

Result<std::unique_ptr<StreamState>> StreamState::Restore(
    const SketchSpec& spec, const Options& options,
    const std::vector<uint64_t>& state_words, size_t state_bits,
    uint64_t updates_seen) {
  auto built = Build(spec, options, &state_words, state_bits);
  if (built.ok()) built.value()->updates_seen_ = updates_seen;
  return built;
}

Result<std::unique_ptr<StreamState>> StreamState::Build(
    const SketchSpec& spec, const Options& options,
    const std::vector<uint64_t>* state_words, size_t state_bits) {
  if (options.shards < 1 || options.shards > 1024) {
    return Status::InvalidArgument("shards must be in [1, 1024]");
  }
  if (options.threads < 0 || options.threads > 1024) {
    return Status::InvalidArgument("threads must be in [0, 1024]");
  }
  // Specs may arrive from the wire: out-of-range values would CHECK-abort
  // inside the sketch constructors.
  const Status valid = ValidateSpec(spec);
  if (!valid.ok()) return valid;
  std::unique_ptr<StreamState> state(new StreamState());
  std::vector<LinearSketch*> raw;
  for (int s = 0; s < options.shards; ++s) {
    auto replica = MakeSketch(spec);
    if (replica == nullptr) {
      return Status::InvalidArgument("unknown sketch kind");
    }
    raw.push_back(replica.get());
    state->replicas_.push_back(std::move(replica));
  }
  if (state_words != nullptr) {
    const Status restored =
        RestoreReplica(raw[0], spec, *state_words, state_bits);
    if (!restored.ok()) return restored;
  }
  if (options.shards > 1 || options.threads > 0) {
    ParallelPipeline::Options topology;
    topology.shards = options.shards;
    topology.threads = options.threads;
    state->owned_pipeline_ = std::make_unique<ParallelPipeline>(topology);
    state->owned_pipeline_->Add("sketch", std::move(raw));
    state->pipeline_ = state->owned_pipeline_.get();
  }
  if (options.window_checkpoint > 0) {
    WindowManager::Options window;
    window.checkpoint_interval = options.window_checkpoint;
    window.max_checkpoints = options.max_checkpoints;
    state->owned_window_ = std::make_unique<WindowManager>(
        state->replicas_[0].get(), window);
    state->window_ = state->owned_window_.get();
  }
  state->interval_ = options.epoch_interval > 0 ? options.epoch_interval
                                                : options.window_checkpoint;
  state->universe_ = EnforcedUniverse(spec);
  return state;
}

StreamState::StreamState(ParallelPipeline* pipeline, WindowManager* window,
                         uint64_t epoch_interval)
    : pipeline_(pipeline), window_(window), interval_(epoch_interval) {
  LPS_CHECK(pipeline_ != nullptr);
  // A window needs epoch boundaries to seal checkpoints at.
  LPS_CHECK(window_ == nullptr || interval_ > 0);
}

Status StreamState::Push(const Update* updates, size_t count) {
  // The sampler/recovery kinds CHECK index < n on every update; an index
  // from the wire or a trace file must be an error, not an abort.
  if (universe_ != 0) {
    for (size_t i = 0; i < count; ++i) {
      if (updates[i].index >= universe_) {
        return Status::InvalidArgument(
            "update index " + std::to_string(updates[i].index) +
            " outside universe [0, " + std::to_string(universe_) + ")");
      }
    }
  }
  // Boundaries matter only where something happens at them: a pipeline
  // to merge or a hook to run. Inline windows seal on their own.
  const bool epochs = interval_ > 0 && (pipeline_ != nullptr || hook_);
  while (count > 0) {
    const size_t take =
        epochs ? size_t(std::min<uint64_t>(count, interval_ - fill_)) : count;
    if (pipeline_ != nullptr) {
      pipeline_->PushBatch(updates, take);
      lag_ += take;
    } else if (window_ != nullptr) {
      window_->PushBatch(updates, take);
    } else {
      replicas_[0]->UpdateBatch(updates, take);
    }
    updates += take;
    count -= take;
    updates_seen_ += take;
    if (!epochs) continue;
    fill_ += take;
    if (fill_ < interval_) continue;
    fill_ = 0;
    Quiesce();
    if (hook_) {
      const Status hooked = hook_(interval_);
      if (!hooked.ok()) return hooked;
    }
  }
  return Status::OK();
}

void StreamState::Quiesce() {
  if (lag_ == 0) return;  // inline streams never lag
  pipeline_->MergeShards();
  if (window_ != nullptr) window_->SealEpoch(lag_);
  lag_ = 0;
}

void StreamState::Fold(const LinearSketch& delta, uint64_t count) {
  Quiesce();
  replicas_[0]->Merge(delta);
  updates_seen_ += count;
  if (count == 0) return;
  // Checkpoint positions follow fold ARRIVAL order across workers: window
  // starts are aggregator-local, only the whole prefix is order-free.
  if (window_ != nullptr) window_->SealEpoch(count);
  fill_ = 0;
}

std::unique_ptr<LinearSketch> StreamState::ReleaseSketch() {
  Quiesce();
  return std::move(replicas_[0]);
}

}  // namespace lps::stream
