#include "src/stream/stream_state.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/util/check.h"

namespace lps::stream {

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
  if (state_words != nullptr) {
    auto restored = DecodeSketchState(spec, *state_words, state_bits);
    if (!restored.ok()) return restored.status();
    state->replicas_.push_back(std::move(restored.value()));
  }
  while (state->replicas_.size() < size_t(options.shards)) {
    auto replica = MakeSketch(spec);
    if (replica == nullptr) {
      return Status::InvalidArgument("unknown sketch kind");
    }
    state->replicas_.push_back(std::move(replica));
  }
  if (options.shards > 1 || options.threads > 0) {
    std::vector<LinearSketch*> raw;
    for (const auto& replica : state->replicas_) raw.push_back(replica.get());
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
