#include "src/dist/worker.h"

#include <chrono>
#include <thread>
#include <utility>

namespace lps::dist {

namespace {

// Ship's retry budget (its doc comment states the resulting bound).
constexpr int kMaxAttempts = 50;
constexpr uint64_t kRetryMs = 100;

}  // namespace

Result<server::EpochAck> EpochShipper::Ship(const server::EpochBlob& blob) {
  Status last = Status::Failed("no attempts made");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kRetryMs));
    }
    if (!client_.has_value()) {
      auto connected = server::Client::Connect(options_.host, options_.port);
      if (!connected.ok()) {
        last = connected.status();
        continue;
      }
      client_.emplace(std::move(connected.value()));
    }
    Result<server::EpochAck> acked = client_->ShipEpoch(blob);
    if (acked.ok()) return acked;
    // The Client unwraps ERROR responses into Failed(server message)
    // after a complete round trip — those are content rejections, fatal
    // by contract. Transport failures (connect reset, eof, short read)
    // surface as read/send/eof statuses; retry those on a fresh
    // connection, re-sending the same (session, seq) blob.
    const std::string& message = acked.status().message();
    const bool transport = message.rfind("read:", 0) == 0 ||
                           message.rfind("send:", 0) == 0 ||
                           message == "eof";
    if (!transport) return acked.status();
    last = acked.status();
    client_.reset();
  }
  return Status::Failed("epoch undeliverable after retries: " +
                        last.message());
}

Result<std::unique_ptr<Worker>> Worker::Create(Options options) {
  const server::SketchConfig& config = options.config;
  // The window lives aggregator-side; its interval only defaults the
  // epoch length, so aggregator seals align with epoch boundaries.
  uint64_t interval = options.epoch_interval;
  if (interval == 0) interval = config.window_checkpoint;
  if (interval == 0) interval = 8192;
  stream::StreamState::Options local;
  local.shards = config.shards;
  local.threads = config.threads;
  local.epoch_interval = interval;
  auto built = stream::StreamState::Create(config.spec, local);
  if (!built.ok()) return built.status();
  return std::unique_ptr<Worker>(
      new Worker(std::move(options), std::move(built.value())));
}

Worker::Worker(Options options, std::unique_ptr<stream::StreamState> stream)
    : options_(std::move(options)),
      stream_(std::move(stream)),
      shipper_(options_.uplink) {
  stream_->set_epoch_hook(
      [this](uint64_t count) { return ShipEpoch(count, false); });
}

Status Worker::Push(const stream::Update* updates, size_t count) {
  if (finished_) return Status::Failed("worker already finished");
  return stream_->Push(updates, count);
}

Status Worker::Finish() {
  if (finished_) return Status::OK();
  // Ship the partial tail — even an empty one, as the clean-end marker.
  stream_->Quiesce();
  const Status shipped = ShipEpoch(stream_->epoch_fill(), true);
  if (!shipped.ok()) return shipped;
  finished_ = true;
  return Status::OK();
}

Status Worker::ShipEpoch(uint64_t count, bool final_epoch) {
  server::EpochBlob blob;
  blob.tenant = options_.tenant;
  blob.key = options_.key;
  blob.worker_id = options_.worker_id;
  blob.session = options_.session;
  blob.seq = seq_;
  blob.count = count;
  blob.final_epoch = final_epoch;
  blob.config = options_.config;
  BitWriter state;
  stream_->sketch().Serialize(&state);
  blob.state_bits = state.bit_count();
  blob.state_words = state.TakeWords();
  // Reset BEFORE shipping: replica 0 must restart from zero so the next
  // epoch is again a pure delta. The blob keeps the serialized bytes,
  // so a reconnect re-send needs no sketch state.
  stream_->sketch().Reset();
  Result<server::EpochAck> acked = shipper_.Ship(blob);
  if (!acked.ok()) return acked.status();
  ++seq_;
  return Status::OK();
}

}  // namespace lps::dist
