#include "src/dist/aggregator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace lps::dist {

namespace {

/// Unambiguous map keys for wire strings that may contain any byte
/// (same length-prefix trick as TenantRegistry::MapKey; both fields are
/// prefixed here because FlushPending matches lanes to streams by
/// prefix, which must never alias across streams).
std::string StreamKey(const std::string& tenant, const std::string& key) {
  return std::to_string(tenant.size()) + ':' + tenant +
         std::to_string(key.size()) + ':' + key;
}

std::string LaneKey(const server::EpochBlob& blob) {
  return StreamKey(blob.tenant, blob.key) + '/' +
         std::to_string(blob.worker_id.size()) + ':' + blob.worker_id;
}

uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

}  // namespace

Aggregator::Aggregator(Options options) : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    EpochShipper::Options uplink;
    uplink.host = options_.upstream_host;
    uplink.port = options_.upstream_port;
    upstream_ = std::make_unique<EpochShipper>(uplink);
  }
}

Aggregator::~Aggregator() { Stop(); }

Status Aggregator::Start() {
  if (upstream_ == nullptr) return Status::OK();  // root: nothing to run
  flush_thread_ = std::thread([this] { FlushLoop(); });
  return Status::OK();
}

void Aggregator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  if (flush_thread_.joinable()) flush_thread_.join();
  // Last chance for combined tails and final markers to go upstream.
  if (upstream_ != nullptr) FlushPending();
}

bool Aggregator::HandleOpcode(uint64_t connection_id, uint8_t opcode,
                              BitReader* body, BitWriter* reply,
                              Status* status) {
  switch (server::Opcode(opcode)) {
    case server::Opcode::kEpoch: {
      const server::EpochBlob blob = server::DeserializeEpoch(body);
      if (body->failed()) {
        *status = Status::InvalidArgument("malformed request body");
        return true;
      }
      server::EpochAck ack;
      *status = HandleEpoch(connection_id, blob, &ack);
      if (status->ok()) server::SerializeEpochAck(ack, reply);
      return true;
    }
    case server::Opcode::kDistStats: {
      server::SerializeDistStats(Stats(), reply);
      return true;
    }
    default:
      return false;
  }
}

Status Aggregator::HandleEpoch(uint64_t connection_id,
                               const server::EpochBlob& blob,
                               server::EpochAck* ack) {
  std::lock_guard<std::mutex> lock(mutex_);
  Lane& lane = lanes_[LaneKey(blob)];
  if (lane.stream.empty()) {
    lane.stream = blob.tenant + "/" + blob.key;
    lane.worker_id = blob.worker_id;
  }
  if (blob.session != lane.session) {
    // A new session on a lane that never finished means the old
    // worker's unshipped tail is gone for good.
    if (lane.session != 0 && !lane.finished) {
      ++lane.gaps;
      ++gaps_;
    }
    lane.session = blob.session;
    lane.next_seq = 0;
    lane.finished = false;
    ++sessions_;
  }
  lane.connected = true;
  lane.connection_id = connection_id;
  if (blob.seq < lane.next_seq) {
    // A reconnecting worker re-sent an epoch folded before its old
    // connection died: ack without re-folding (idempotence).
    ack->applied = false;
    ack->next_seq = lane.next_seq;
    return Status::OK();
  }
  if (blob.seq > lane.next_seq) {
    // Skipped sequences are epochs known lost; fold what DID arrive —
    // late data beats no data — but account the loss.
    const uint64_t lost = blob.seq - lane.next_seq;
    lane.gaps += lost;
    gaps_ += lost;
  }
  const uint64_t fold_start = NowNs();
  Status folded;
  if (options_.registry != nullptr) {
    auto delta = DecodeSketchState(blob.config.spec, blob.state_words,
                                   blob.state_bits);
    folded = delta.ok()
                 ? options_.registry->FoldEpoch(blob.tenant, blob.key,
                                                blob.config, *delta.value(),
                                                blob.count)
                 : delta.status();
  } else {
    folded = FoldPendingLocked(blob);
  }
  fold_ns_ += NowNs() - fold_start;
  // A rejected epoch does not advance the lane: the worker sees the
  // error (its shipper treats it as fatal) and the stream stays where
  // it was.
  if (!folded.ok()) return folded;
  lane.next_seq = blob.seq + 1;
  ++lane.epochs;
  lane.updates += blob.count;
  ++epochs_folded_;
  updates_folded_ += blob.count;
  if (blob.final_epoch) lane.finished = true;
  ack->applied = true;
  ack->next_seq = lane.next_seq;
  if (upstream_ != nullptr && blob.final_epoch) flush_cv_.notify_all();
  return Status::OK();
}

Status Aggregator::FoldPendingLocked(const server::EpochBlob& blob) {
  const std::string stream_key = StreamKey(blob.tenant, blob.key);
  auto it = pending_.find(stream_key);
  if (it == pending_.end()) {
    auto decoded =
        DecodeSketchState(blob.config.spec, blob.state_words, blob.state_bits);
    if (!decoded.ok()) return decoded.status();
    Pending pending;
    pending.tenant = blob.tenant;
    pending.key = blob.key;
    pending.config = blob.config;
    pending.sketch = std::move(decoded.value());
    pending.count = blob.count;
    pending.dirty = true;
    pending_.emplace(stream_key, std::move(pending));
    return Status::OK();
  }
  Pending& pending = it->second;
  if (!IdenticalSpecs(pending.config.spec, blob.config.spec)) {
    return Status::InvalidArgument("epoch spec does not match stream " +
                                   blob.tenant + "/" + blob.key);
  }
  auto decoded = DecodeSketchState(pending.config.spec, blob.state_words,
                                   blob.state_bits);
  if (!decoded.ok()) return decoded.status();
  pending.sketch->Merge(*decoded.value());
  pending.count += blob.count;
  pending.dirty = true;
  return Status::OK();
}

void Aggregator::FlushLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    flush_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.flush_interval_ms),
                       [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    FlushPending();
    lock.lock();
  }
}

void Aggregator::FlushPending() {
  // Serialize the blobs under the lock, ship OUTSIDE it: an upstream
  // riding out a restart must not stall child folds for the shipper's
  // whole retry budget.
  std::vector<server::EpochBlob> outbound;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [stream_key, pending] : pending_) {
      bool all_finished = false;
      if (!pending.final_sent) {
        size_t lanes_seen = 0;
        size_t lanes_finished = 0;
        for (const auto& [lane_key, lane] : lanes_) {
          if (lane_key.rfind(stream_key + '/', 0) != 0) continue;
          ++lanes_seen;
          if (lane.finished) ++lanes_finished;
        }
        all_finished = lanes_seen > 0 && lanes_seen == lanes_finished;
      }
      if (!pending.dirty && !all_finished) continue;
      server::EpochBlob blob;
      blob.tenant = pending.tenant;
      blob.key = pending.key;
      blob.worker_id = options_.node_id;
      blob.session = options_.upstream_session;
      blob.seq = pending.ship_seq++;
      blob.count = pending.count;
      blob.final_epoch = all_finished;
      blob.config = pending.config;
      BitWriter state;
      pending.sketch->Serialize(&state);
      blob.state_bits = state.bit_count();
      blob.state_words = state.TakeWords();
      pending.sketch->Reset();
      pending.count = 0;
      pending.dirty = false;
      if (all_finished) pending.final_sent = true;
      outbound.push_back(std::move(blob));
    }
  }
  for (const server::EpochBlob& blob : outbound) {
    auto acked = upstream_->Ship(blob);
    if (!acked.ok()) {
      // Retry budget exhausted: the delta is lost to upstream, which
      // will account the sequence skip as a gap. Operator-visible, not
      // fatal — this node keeps folding its children.
      std::fprintf(stderr, "lps combiner %s: upstream ship failed: %s\n",
                   options_.node_id.c_str(),
                   acked.status().message().c_str());
    }
  }
}

void Aggregator::OnConnectionClosed(uint64_t connection_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [lane_key, lane] : lanes_) {
    if (lane.connected && lane.connection_id == connection_id) {
      lane.connected = false;
    }
  }
}

server::DistStats Aggregator::Stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  server::DistStats stats;
  stats.epochs_folded = epochs_folded_;
  stats.updates_folded = updates_folded_;
  stats.gaps = gaps_;
  stats.sessions = sessions_;
  stats.fold_ns = fold_ns_;
  stats.combiner = options_.registry == nullptr;
  stats.workers.reserve(lanes_.size());
  for (const auto& [lane_key, lane] : lanes_) {
    server::DistWorkerStats worker;
    worker.stream = lane.stream;
    worker.worker_id = lane.worker_id;
    worker.session = lane.session;
    worker.next_seq = lane.next_seq;
    worker.epochs = lane.epochs;
    worker.updates = lane.updates;
    worker.gaps = lane.gaps;
    worker.finished = lane.finished;
    worker.connected = lane.connected;
    if (!worker.connected && !worker.finished) ++stats.interrupted;
    stats.workers.push_back(std::move(worker));
  }
  std::sort(stats.workers.begin(), stats.workers.end(),
            [](const server::DistWorkerStats& a,
               const server::DistWorkerStats& b) {
              return a.stream != b.stream ? a.stream < b.stream
                                          : a.worker_id < b.worker_id;
            });
  return stats;
}

}  // namespace lps::dist
