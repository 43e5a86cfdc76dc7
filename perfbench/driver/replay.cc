// The traced run of a served workload: the measured run's request
// sequence replayed in-process against each layer's public entry point,
// one span per call. Every layer sees identical inputs — the same tenants
// restored from the same store image, the same warm-up, the same ingest
// batches, and QUERY/WINDOW interleaved at the measured ratio — so a
// layer's self time is its replay total minus that of the layer it calls
// (run.py does the subtraction). The layers take turns one schedule round
// at a time, so a slow stretch of the host lands on all of them alike.
//
//   client    server::Client -> in-process Server over a store copy
//   registry  TenantRegistry with the store attached
//   window    WindowManager (+ spill) over the restored sketch
//   sketch    LinearSketch::UpdateBatch / lps::Query / Merge, and a
//             standalone LpNormEstimator at the sampler's norm_rows
//   codec     the protocol.h INGEST frame encode / decode
//   persist   CheckpointStore open, restore, snapshot passes, and
//             EncodeBestDelta between consecutive checkpoint states
#include <algorithm>
#include <algorithm>
#include <filesystem>

#include "perfbench/driver/driver.h"
#include "src/core/lp_sampler.h"
#include "src/kernels/kernels.h"
#include "src/persist/delta_codec.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lps::server::SnapshotBlob;
using lps::server::TenantRegistry;

/// One request of the replayed sequence: ingest request `id` sends tenant
/// t its c-th batch, or query `id` asks tenant t (a WINDOW if `window`).
struct Event {
  bool query = false;
  uint64_t id = 0;
  size_t t = 0;
  uint64_t c = 0;
  bool window = false;
};

/// The `requests` ingest requests that follow the warm-up, with query k
/// issued once (ingest requests sent) * ratio passes k, cut into chunks of
/// one schedule round.
std::vector<std::vector<Event>> Chunks(const ServedWorkload& w,
                                       uint64_t requests, double ratio) {
  std::vector<std::vector<Event>> chunks;
  uint64_t k = 0;
  const uint64_t from = w.WarmEnd();
  w.ForRequests(from, from + requests, [&](uint64_t g, size_t t, uint64_t c) {
    if ((g - from) % w.schedule.size() == 0) chunks.emplace_back();
    chunks.back().push_back({false, g, t, c, false});
    for (; double(k) < double(g + 1 - from) * ratio; ++k) {
      chunks.back().push_back({true, k, w.QueryTenant(k), 0,
                               ServedWorkload::QueryIsWindow(k)});
    }
  });
  return chunks;
}

bool Fail(const char* what) {
  std::fprintf(stderr, "perfbench_driver: replay: %s\n", what);
  return false;
}

bool CopyStore(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(fs::path(to).parent_path(), ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

uint64_t StoreBytes(const lps::persist::CheckpointStore& store) {
  uint64_t total = 0;
  for (const std::string& key : store.Keys()) total += store.KeyBytes(key);
  return total;
}

struct Summary {
  double open_ms = 0;
  double restore_ms = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t seals = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_raw_bytes = 0;
  uint64_t frame_bytes = 0;
  uint64_t updates = 0;
  uint64_t sampler_answers = 0;
  uint64_t sampler_fails = 0;
  uint64_t wrong = 0;
  std::vector<std::pair<std::string, uint64_t>> state_bytes;  // label, bytes
};

/// One layer's replay: Start() builds its state and runs the warm-up,
/// Replay() times every event of a chunk, Finish() records what the
/// summary needs.
class Layer {
 public:
  Layer(const ServedWorkload& w, SpanLog* spans, Summary* summary)
      : w_(w), spans_(spans), summary_(summary) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual bool Start() = 0;
  virtual void Replay(const Event& e) = 0;
  virtual void Finish() {}

 protected:
  const char* Label(size_t t) const { return w_.tenants[t].label.c_str(); }
  void Record(const char* name, const Event& e, double start) {
    spans_->Add(name, Label(e.t), start, Now(), 0, e.id);
  }
  /// Runs f(t, c) over the warm-up stretch of the ingest sequence.
  template <typename F>
  void WarmUp(F&& f) const {
    w_.ForRequests(w_.PrepEnd(), w_.WarmEnd(),
                   [&](uint64_t, size_t t, uint64_t c) { f(t, c); });
  }

  const ServedWorkload& w_;
  SpanLog* spans_;
  Summary* summary_;
};

/// TenantRegistry with the store attached. Store open and restore are
/// timed here; the restored blobs seed the window and sketch layers. A
/// snapshot pass runs every `pass_every` ingest requests, the measured
/// run's requests per second.
class RegistryLayer : public Layer {
 public:
  RegistryLayer(const ServedWorkload& w, SpanLog* spans, Summary* summary,
                std::string dir, std::string store, uint64_t pass_every)
      : Layer(w, spans, summary),
        dir_(std::move(dir)),
        golden_(std::move(store)),
        pass_every_(pass_every) {}

  bool Start() override {
    if (!CopyStore(golden_, dir_)) return Fail("copy store");
    const double t0 = Now();
    auto store = lps::persist::CheckpointStore::Open(dir_);
    if (!store.ok()) return Fail("open store");
    store_ = std::move(store.value());
    const double t1 = Now();
    registry_.AttachStore(store_.get(), {});
    const size_t restored = registry_.RestoreAll();
    summary_->open_ms = (t1 - t0) * 1e3;
    summary_->restore_ms = (Now() - t1) * 1e3;
    if (restored != w_.T()) return Fail("restore");
    for (const Tenant& t : w_.tenants) {
      auto blob = registry_.Snapshot(t.name, t.key);
      if (!blob.ok()) return Fail("snapshot");
      blobs_.push_back(std::move(blob.value()));
    }
    bool ok = true;
    WarmUp([&](size_t t, uint64_t c) {
      ok &= registry_.Ingest(w_.tenants[t].name, w_.tenants[t].key,
                             w_.Batch(t, c)).ok();
    });
    for (const Tenant& t : w_.tenants) {
      ok &= registry_.Query(t.name, t.key).ok();
      ok &= registry_.Window(t.name, t.key, w_.window, false).ok();
    }
    return ok || Fail("registry warm-up");
  }

  void Replay(const Event& e) override {
    const Tenant& tenant = w_.tenants[e.t];
    const double s0 = Now();
    if (!e.query) {
      auto ack = registry_.Ingest(tenant.name, tenant.key, w_.Batch(e.t, e.c));
      Record("registry.ingest", e, s0);
      if (!ack.ok() || ack.value() != (e.c + 1) * w_.batch) ++summary_->wrong;
      if (++ingests_ % pass_every_ == 0) SnapshotPass();
    } else if (e.window) {
      registry_.Window(tenant.name, tenant.key, w_.window, false);
      Record("registry.window", e, s0);
    } else {
      registry_.Query(tenant.name, tenant.key);
      Record("registry.query", e, s0);
    }
  }

  const std::vector<SnapshotBlob>& blobs() const { return blobs_; }

 private:
  void SnapshotPass() {
    const uint64_t before = StoreBytes(*store_);
    const double p0 = Now();
    registry_.PersistTenants(true);
    spans_->Add("persist.snapshot_pass", "all", p0, Now(), 0, passes_++);
    summary_->snapshot_bytes += StoreBytes(*store_) - before;
  }

  const std::string dir_;
  const std::string golden_;
  const uint64_t pass_every_;
  // The registry's entries spill into the store: it must die first.
  std::unique_ptr<lps::persist::CheckpointStore> store_;
  TenantRegistry registry_;
  std::vector<SnapshotBlob> blobs_;
  uint64_t ingests_ = 0;
  uint64_t passes_ = 0;
};

/// Client -> in-process Server (with its background snapshot thread)
/// over a fresh copy of the store.
class ClientLayer : public Layer {
 public:
  ClientLayer(const ServedWorkload& w, SpanLog* spans, Summary* summary,
              std::string dir, std::string store)
      : Layer(w, spans, summary),
        dir_(std::move(dir)),
        golden_(std::move(store)) {}

  bool Start() override {
    if (!CopyStore(golden_, dir_)) return Fail("copy store");
    lps::server::Server::Options options;
    options.data_dir = dir_;
    server_ = std::make_unique<lps::server::Server>(options);
    if (!server_->Start().ok()) return Fail("server start");
    auto client = lps::server::Client::Connect("127.0.0.1", server_->port());
    if (!client.ok()) return Fail("connect");
    client_ = std::make_unique<lps::server::Client>(std::move(client.value()));
    bool ok = true;
    WarmUp([&](size_t t, uint64_t c) {
      ok &= client_->Ingest(w_.tenants[t].name, w_.tenants[t].key,
                            w_.Batch(t, c)).ok();
    });
    for (const Tenant& t : w_.tenants) {
      ok &= client_->Query(t.name, t.key).ok();
      ok &= client_->Window(t.name, t.key, w_.window, false).ok();
    }
    return ok || Fail("client warm-up");
  }

  void Replay(const Event& e) override {
    const Tenant& tenant = w_.tenants[e.t];
    const double s0 = Now();
    bool ok = true;
    if (!e.query) {
      auto ack = client_->Ingest(tenant.name, tenant.key, w_.Batch(e.t, e.c));
      Record("client.ingest", e, s0);
      ok = ack.ok() && ack.value() == w_.batch;
    } else if (e.window) {
      ok = client_->Window(tenant.name, tenant.key, w_.window, false).ok();
      Record("client.window", e, s0);
    } else {
      ok = client_->Query(tenant.name, tenant.key).ok();
      Record("client.query", e, s0);
    }
    if (!ok) ++summary_->wrong;
  }

  void Finish() override {
    client_.reset();
    server_->Stop();
  }

 private:
  const std::string dir_;
  const std::string golden_;
  std::unique_ptr<lps::server::Server> server_;
  std::unique_ptr<lps::server::Client> client_;
};

std::unique_ptr<lps::LinearSketch> Restored(const SnapshotBlob& blob) {
  lps::BitReader reader(blob.state_words, blob.state_bits);
  return lps::DeserializeAnySketch(&reader);
}

/// WindowManager over each restored sketch, spilling into an empty store
/// with the registry's default resident budget and keyframe cadence.
class WindowLayer : public Layer {
 public:
  WindowLayer(const ServedWorkload& w, SpanLog* spans, Summary* summary,
              std::string dir, const std::vector<SnapshotBlob>& blobs)
      : Layer(w, spans, summary), dir_(std::move(dir)), blobs_(blobs) {}

  bool Start() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    auto store = lps::persist::CheckpointStore::Open(dir_);
    if (!store.ok()) return Fail("open window store");
    store_ = std::move(store.value());
    const TenantRegistry::PersistOptions persist;
    for (size_t t = 0; t < w_.T(); ++t) {
      live_.push_back(Restored(blobs_[t]));
      const auto& config = w_.tenants[t].config;
      windows_.push_back(std::make_unique<lps::stream::WindowManager>(
          live_.back().get(),
          lps::stream::WindowManager::Options{config.window_checkpoint,
                                              config.max_checkpoints}));
      windows_.back()->AttachSpill({store_.get(), "w:" + w_.tenants[t].name,
                                    persist.resident_checkpoints,
                                    persist.keyframe_interval});
    }
    WarmUp([&](size_t t, uint64_t c) {
      const auto& b = w_.Batch(t, c);
      windows_[t]->PushBatch(b.data(), b.size());
    });
    for (const auto& wm : windows_) {
      lps::Query(*wm->WindowSketch(w_.window).sketch);
    }
    return true;
  }

  void Replay(const Event& e) override {
    auto& wm = *windows_[e.t];
    if (!e.query) {
      const auto& b = w_.Batch(e.t, e.c);
      const uint64_t seals = wm.updates_seen() / wm.checkpoint_interval();
      const double s0 = Now();
      wm.PushBatch(b.data(), b.size());
      const bool sealed = wm.updates_seen() / wm.checkpoint_interval() != seals;
      Record(sealed ? "window.push_seal" : "window.push", e, s0);
      if (sealed) ++summary_->seals;
    } else if (e.window) {
      const double s0 = Now();
      auto materialized = wm.WindowSketch(w_.window);
      const double s1 = Now();
      lps::Query(*materialized.sketch);
      const uint64_t id =
          spans_->Add("window.window", Label(e.t), s0, Now(), 0, e.id);
      spans_->Add("window.materialize", Label(e.t), s0, s1, id, e.id);
    }
  }

  void Finish() override {
    for (const auto& wm : windows_) {
      summary_->checkpoint_bytes += wm->CheckpointBytes();
    }
  }

 private:
  const std::string dir_;
  const std::vector<SnapshotBlob>& blobs_;
  // Declared before the managers that spill into it and the sketches
  // they reference, so it is destroyed after both.
  std::unique_ptr<lps::persist::CheckpointStore> store_;
  std::vector<std::unique_ptr<lps::LinearSketch>> live_;
  std::vector<std::unique_ptr<lps::stream::WindowManager>> windows_;
};

/// The sketch layer alone, the standalone norm estimator (lp tenants) on
/// the same batches, and EncodeBestDelta between the states at
/// consecutive checkpoint positions.
class SketchLayer : public Layer {
 public:
  SketchLayer(const ServedWorkload& w, SpanLog* spans, Summary* summary,
              const std::vector<SnapshotBlob>& blobs)
      : Layer(w, spans, summary), blobs_(blobs) {}

  bool Start() override {
    for (size_t t = 0; t < w_.T(); ++t) {
      sketches_.push_back(Restored(blobs_[t]));
      const auto* lp =
          dynamic_cast<const lps::core::LpSampler*>(sketches_.back().get());
      norms_.push_back(lp == nullptr
                           ? nullptr
                           : std::make_unique<lps::norm::LpNormEstimator>(
                                 lp->params().p, lp->params().norm_rows,
                                 lp->params().seed));
    }
    WarmUp([&](size_t t, uint64_t c) {
      const auto& b = w_.Batch(t, c);
      sketches_[t]->UpdateBatch(b.data(), b.size());
      if (norms_[t]) norms_[t]->UpdateBatch(b.data(), b.size());
    });
    prev_words_.resize(w_.T());
    prev_bits_.assign(w_.T(), 0);
    for (size_t t = 0; t < w_.T(); ++t) {
      lps::Query(*sketches_[t]);
      prev_words_[t] = StateWords(*sketches_[t], &prev_bits_[t]);
    }
    return true;
  }

  void Replay(const Event& e) override {
    if (e.query) {
      if (!e.window) Sample(e);
      return;
    }
    const auto& b = w_.Batch(e.t, e.c);
    double s0 = Now();
    sketches_[e.t]->UpdateBatch(b.data(), b.size());
    Record("sketch.update", e, s0);
    summary_->updates += b.size();
    if (norms_[e.t]) {
      s0 = Now();
      norms_[e.t]->UpdateBatch(b.data(), b.size());
      Record("norm.update", e, s0);
    }
    if ((e.c + 1) * w_.batch % w_.tenants[e.t].config.window_checkpoint == 0) {
      SpillEncode(e);
    }
  }

  void Finish() override {
    for (size_t t = 0; t < w_.T(); ++t) {
      auto replica = lps::MakeSketch(w_.tenants[t].config.spec);
      const double m0 = Now();
      sketches_[t]->Merge(*replica);
      spans_->Add("sketch.merge", Label(t), m0, Now(), 0, t);
      size_t bits = 0;
      StateWords(*sketches_[t], &bits);
      summary_->state_bytes.push_back({w_.tenants[t].label, (bits + 7) / 8});
    }
  }

 private:
  void Sample(const Event& e) {
    const double s0 = Now();
    const lps::QueryResult r = lps::Query(*sketches_[e.t]);
    Record("sketch.query", e, s0);
    if (w_.tenants[e.t].label == "hh") return;
    ++summary_->sampler_answers;
    if (r.type == lps::QueryResult::Type::kFailed) ++summary_->sampler_fails;
  }

  void SpillEncode(const Event& e) {
    size_t bits = 0;
    auto words = StateWords(*sketches_[e.t], &bits);
    const double s0 = Now();
    const auto delta = lps::persist::EncodeBestDelta(
        words, bits, prev_words_[e.t], prev_bits_[e.t]);
    Record("persist.spill_encode", e, s0);
    summary_->spill_bytes += delta.bytes.size();
    summary_->spill_raw_bytes += (bits + 7) / 8;
    prev_words_[e.t] = std::move(words);
    prev_bits_[e.t] = bits;
  }

  const std::vector<SnapshotBlob>& blobs_;
  std::vector<std::unique_ptr<lps::LinearSketch>> sketches_;
  std::vector<std::unique_ptr<lps::norm::LpNormEstimator>> norms_;
  std::vector<std::vector<uint64_t>> prev_words_;
  std::vector<size_t> prev_bits_;
};

/// The INGEST request body through the protocol.h codec, both ways.
class CodecLayer : public Layer {
 public:
  using Layer::Layer;
  bool Start() override { return true; }

  void Replay(const Event& e) override {
    if (e.query) return;
    const Tenant& tenant = w_.tenants[e.t];
    const auto& b = w_.Batch(e.t, e.c);
    const double s0 = Now();
    lps::BitWriter body;
    lps::server::WriteString(&body, tenant.name);
    lps::server::WriteString(&body, tenant.key);
    lps::server::WriteUpdates(&body, b.data(), b.size());
    const std::vector<uint8_t> frame =
        lps::server::EncodeFrame(uint8_t(lps::server::Opcode::kIngest), body);
    Record("codec.encode", e, s0);
    const double s1 = Now();
    auto decoded =
        lps::server::DecodeFramePayload(frame.data() + 4, frame.size() - 4);
    bool ok = decoded.ok();
    if (ok) {
      lps::BitReader& reader = decoded.value().body;
      ok = lps::server::ReadString(&reader) == tenant.name &&
           lps::server::ReadString(&reader) == tenant.key &&
           lps::server::ReadUpdates(&reader).size() == b.size();
    }
    Record("codec.decode", e, s1);
    summary_->frame_bytes += frame.size();
    if (!ok) ++summary_->wrong;
  }
};

}  // namespace

int CmdReplay(const Args& args) {
  ServedWorkload w;
  if (!MakeServedWorkload(args.workload, args.seed, &w)) return 2;
  SpanLog spans;
  Summary summary;
  const uint64_t per_second =
      std::max<uint64_t>(1, uint64_t(double(args.requests) / args.seconds));
  auto registry = std::make_unique<RegistryLayer>(
      w, &spans, &summary, args.work + "/registry", args.store, per_second);
  if (!registry->Start()) return 1;
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<ClientLayer>(
      w, &spans, &summary, args.work + "/client", args.store));
  layers.push_back(std::make_unique<WindowLayer>(
      w, &spans, &summary, args.work + "/window", registry->blobs()));
  layers.push_back(
      std::make_unique<SketchLayer>(w, &spans, &summary, registry->blobs()));
  layers.push_back(std::make_unique<CodecLayer>(w, &spans, &summary));
  for (const auto& layer : layers) {
    if (!layer->Start()) return 1;
  }
  layers.insert(layers.begin(), std::move(registry));
  for (const auto& chunk : Chunks(w, args.requests, args.query_ratio)) {
    for (const auto& layer : layers) {
      for (const Event& e : chunk) layer->Replay(e);
    }
  }
  for (const auto& layer : layers) layer->Finish();

  std::printf(
      "{\"open_ms\": %.4f, \"restore_ms\": %.4f, \"snapshot_bytes\": %llu, "
      "\"seals\": %llu, \"checkpoint_bytes\": %llu, \"spill_bytes\": %llu, "
      "\"spill_raw_bytes\": %llu, \"frame_bytes\": %llu, \"updates\": %llu, "
      "\"sampler_answers\": %llu, \"sampler_fails\": %llu, \"wrong\": %llu, "
      "\"batch\": %zu, \"kernel_backend\": \"%s\", \"state_bytes\": [",
      summary.open_ms, summary.restore_ms,
      (unsigned long long)summary.snapshot_bytes,
      (unsigned long long)summary.seals,
      (unsigned long long)summary.checkpoint_bytes,
      (unsigned long long)summary.spill_bytes,
      (unsigned long long)summary.spill_raw_bytes,
      (unsigned long long)summary.frame_bytes,
      (unsigned long long)summary.updates,
      (unsigned long long)summary.sampler_answers,
      (unsigned long long)summary.sampler_fails,
      (unsigned long long)summary.wrong, w.batch,
      lps::kernels::ActiveBackendName());
  for (size_t i = 0; i < summary.state_bytes.size(); ++i) {
    std::printf(i ? ", [\"%s\", %llu]" : "[\"%s\", %llu]",
                summary.state_bytes[i].first.c_str(),
                (unsigned long long)summary.state_bytes[i].second);
  }
  std::printf("]}\n");
  return spans.Write(args.spans) ? 0 : 1;
}

}  // namespace perfbench
