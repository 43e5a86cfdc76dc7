#include "src/server/tenant_registry.h"

#include <charconv>
#include <chrono>
#include <utility>

#include "src/kernels/kernels.h"

namespace lps::server {

namespace {

// record_kind tags for tenant records in the checkpoint store. Window
// delta records live under a different key prefix ("w:" vs "t:") with
// their own tag, so the namespaces cannot collide.
constexpr uint8_t kTenantSnapshotRecord = 1;
constexpr uint8_t kTenantTombstoneRecord = 2;

uint64_t NowMs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

}  // namespace

void TenantRegistry::AttachStore(persist::CheckpointStore* store,
                                 PersistOptions options) {
  store_ = store;
  persist_options_ = options;
}

Result<std::shared_ptr<TenantRegistry::Entry>> TenantRegistry::BuildEntry(
    const SketchConfig& config, const SnapshotBlob* blob) {
  stream::StreamState::Options options;
  options.shards = config.shards;
  options.threads = config.threads;
  options.window_checkpoint = config.window_checkpoint;
  options.max_checkpoints = size_t(config.max_checkpoints);
  auto built = blob == nullptr
                   ? stream::StreamState::Create(config.spec, options)
                   : stream::StreamState::Restore(
                         config.spec, options, blob->state_words,
                         blob->state_bits, blob->updates_seen);
  if (!built.ok()) return built.status();
  auto entry = std::make_shared<Entry>();
  entry->config = config;
  entry->stream = std::move(built.value());
  return entry;
}

std::shared_ptr<TenantRegistry::Entry> TenantRegistry::Find(
    const std::string& tenant, const std::string& key) {
  const std::string map_key = MapKey(tenant, key);
  {
    MapShard& shard = ShardFor(map_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(map_key);
    if (it != shard.entries.end()) return it->second;
  }
  // Not live — but with a store attached it may be an idle-evicted
  // tenant whose snapshot can be rehydrated transparently.
  if (store_ == nullptr) return nullptr;
  auto rehydrated = RehydrateTenant(map_key);
  return rehydrated.ok() ? rehydrated.value() : nullptr;
}

std::shared_ptr<TenantRegistry::Entry> TenantRegistry::FindLive(
    const std::string& tenant, const std::string& key,
    std::unique_lock<std::mutex>* lock) {
  for (;;) {
    auto entry = Find(tenant, key);
    if (entry == nullptr) return nullptr;
    std::unique_lock<std::mutex> held(entry->mutex);
    if (!entry->evicted) {
      *lock = std::move(held);
      return entry;
    }
    // Raced EvictIdle: the map no longer holds this entry, but its
    // snapshot is in the store — retry, which rehydrates it.
  }
}

void TenantRegistry::AttachEntrySpill(Entry* entry,
                                      const std::string& map_key) {
  stream::WindowManager* window = entry->stream->window();
  if (store_ == nullptr || window == nullptr ||
      persist_options_.resident_checkpoints == 0) {
    return;
  }
  stream::WindowManager::SpillOptions spill;
  spill.store = store_;
  spill.stream_key = "w:" + map_key;
  spill.resident_checkpoints = persist_options_.resident_checkpoints;
  spill.keyframe_interval = persist_options_.keyframe_interval;
  window->AttachSpill(std::move(spill));
}

Status TenantRegistry::Create(const std::string& tenant,
                              const std::string& key,
                              const SketchConfig& config) {
  return Insert(tenant, key, BuildEntry(config, nullptr));
}

Status TenantRegistry::Insert(const std::string& tenant,
                              const std::string& key,
                              Result<std::shared_ptr<Entry>> built) {
  if (!built.ok()) return built.status();
  std::shared_ptr<Entry> entry = std::move(built.value());
  const std::string map_key = MapKey(tenant, key);
  entry->tenant = tenant;
  entry->key = key;
  entry->last_touch_ms = NowMs();
  AttachEntrySpill(entry.get(), map_key);
  MapShard& shard = ShardFor(map_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (!shard.entries.emplace(map_key, std::move(entry)).second) {
    return Status::InvalidArgument("sketch already exists: " + tenant + "/" +
                                   key);
  }
  return Status::OK();
}

Result<uint64_t> TenantRegistry::Ingest(
    const std::string& tenant, const std::string& key,
    const std::vector<stream::Update>& updates) {
  std::unique_lock<std::mutex> lock;
  auto entry = FindLive(tenant, key, &lock);
  if (entry == nullptr) {
    return Status::InvalidArgument("no such sketch: " + tenant + "/" + key);
  }
  const Status pushed = entry->stream->Push(updates.data(), updates.size());
  if (!pushed.ok()) return pushed;
  entry->last_touch_ms = NowMs();
  updates_.fetch_add(updates.size(), std::memory_order_relaxed);
  ingests_.fetch_add(1, std::memory_order_relaxed);
  return entry->stream->updates_seen();
}

Status TenantRegistry::FoldEpoch(const std::string& tenant,
                                 const std::string& key,
                                 const SketchConfig& config,
                                 const LinearSketch& delta, uint64_t count) {
  std::unique_lock<std::mutex> lock;
  auto entry = FindLive(tenant, key, &lock);
  if (entry == nullptr) {
    SketchConfig inline_config = config;
    inline_config.shards = 1;
    inline_config.threads = 0;
    const Status created = Create(tenant, key, inline_config);
    // Two workers racing their first epoch both miss the lookup; losing
    // the CREATE race is fine as long as somebody won it.
    entry = FindLive(tenant, key, &lock);
    if (entry == nullptr) {
      return created.ok() ? Status::Failed("fold raced a concurrent drop")
                          : created;
    }
  }
  // The entry may predate this worker (created by a CREATE request or
  // another worker's first epoch): its spec must match the epoch's
  // byte-for-byte, else Merge would CHECK on mismatched parameters.
  if (!IdenticalSpecs(entry->config.spec, config.spec)) {
    return Status::InvalidArgument("epoch spec does not match stream " +
                                   tenant + "/" + key);
  }
  // Fold quiesces first: mixed ingest (direct INGEST plus folded
  // epochs) must not fold into a replica that lags an open epoch.
  entry->last_touch_ms = NowMs();
  entry->stream->Fold(delta, count);
  updates_.fetch_add(count, std::memory_order_relaxed);
  ingests_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<QueryResult> TenantRegistry::Query(const std::string& tenant,
                                          const std::string& key) {
  std::unique_lock<std::mutex> lock;
  auto entry = FindLive(tenant, key, &lock);
  if (entry == nullptr) {
    return Status::InvalidArgument("no such sketch: " + tenant + "/" + key);
  }
  entry->last_touch_ms = NowMs();
  entry->stream->Quiesce();
  queries_.fetch_add(1, std::memory_order_relaxed);
  return lps::Query(entry->stream->sketch());
}

Result<TenantRegistry::WindowAnswer> TenantRegistry::Window(
    const std::string& tenant, const std::string& key, uint64_t w,
    bool want_state) {
  std::unique_lock<std::mutex> lock;
  auto entry = FindLive(tenant, key, &lock);
  if (entry == nullptr) {
    return Status::InvalidArgument("no such sketch: " + tenant + "/" + key);
  }
  const stream::WindowManager* manager = entry->stream->window();
  if (manager == nullptr) {
    return Status::InvalidArgument("windowing not enabled for " + tenant +
                                   "/" + key);
  }
  entry->last_touch_ms = NowMs();
  entry->stream->Quiesce();
  stream::WindowManager::Window window = manager->WindowSketch(w);
  WindowAnswer answer;
  answer.result = lps::Query(*window.sketch);
  answer.start = window.start;
  answer.length = window.length;
  if (want_state) {
    BitWriter writer;
    window.sketch->Serialize(&writer);
    answer.state_bits = writer.bit_count();
    answer.state_words = writer.TakeWords();
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

Result<SnapshotBlob> TenantRegistry::Snapshot(const std::string& tenant,
                                              const std::string& key) {
  std::unique_lock<std::mutex> lock;
  auto entry = FindLive(tenant, key, &lock);
  if (entry == nullptr) {
    return Status::InvalidArgument("no such sketch: " + tenant + "/" + key);
  }
  entry->last_touch_ms = NowMs();
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return SnapshotLocked(entry.get());
}

SnapshotBlob TenantRegistry::SnapshotLocked(Entry* entry) {
  entry->stream->Quiesce();
  SnapshotBlob blob;
  blob.config = entry->config;
  blob.updates_seen = entry->stream->updates_seen();
  BitWriter state;
  entry->stream->sketch().Serialize(&state);
  blob.state_bits = state.bit_count();
  blob.state_words = state.TakeWords();
  return blob;
}

Status TenantRegistry::Restore(const std::string& tenant,
                               const std::string& key,
                               const SnapshotBlob& blob) {
  return Insert(tenant, key, BuildEntry(blob.config, &blob));
}

Status TenantRegistry::Drop(const std::string& tenant, const std::string& key) {
  const std::string map_key = MapKey(tenant, key);
  bool was_live = false;
  {
    MapShard& shard = ShardFor(map_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    was_live = shard.entries.erase(map_key) > 0;
  }
  if (store_ == nullptr) {
    return was_live ? Status::OK()
                    : Status::InvalidArgument("no such sketch: " + tenant +
                                              "/" + key);
  }
  const std::string store_key = "t:" + map_key;
  if (!was_live) {
    // Not live, but perhaps idle-evicted into the store — DROP of an
    // evicted tenant must still stick.
    const size_t records = store_->RecordCount(store_key);
    if (records == 0 ||
        store_->RecordKind(store_key, records - 1) != kTenantSnapshotRecord) {
      return Status::InvalidArgument("no such sketch: " + tenant + "/" + key);
    }
  }
  // The tombstone makes the drop durable: recovery and lazy rehydration
  // both stop at a latest record that is not a snapshot. Appended even
  // when no snapshot exists yet — a dangling tombstone is inert.
  const Status st = store_->Append(store_key, kTenantTombstoneRecord,
                                   nullptr, 0);
  if (st.ok()) store_->Sync();
  return st;
}

Status TenantRegistry::PersistEntryLocked(Entry* entry,
                                          const std::string& map_key) {
  BitWriter writer;
  WriteString(&writer, entry->tenant);
  WriteString(&writer, entry->key);
  const SnapshotBlob blob = SnapshotLocked(entry);
  SerializeSnapshot(blob, &writer);
  // The payload is the writer's image, the same bytes a frame body
  // carries.
  std::vector<uint8_t> payload(ImageSize(writer));
  WriteImage(writer, payload.data());
  const Status st = store_->Append("t:" + map_key, kTenantSnapshotRecord,
                                   payload.data(), payload.size());
  if (st.ok()) entry->persisted_updates = blob.updates_seen;
  return st;
}

size_t TenantRegistry::PersistTenants(bool only_dirty) {
  if (store_ == nullptr) return 0;
  size_t written = 0;
  for (auto& [map_key, entry] : AllEntries()) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->evicted) continue;
    if (only_dirty &&
        entry->stream->updates_seen() == entry->persisted_updates) {
      continue;
    }
    if (PersistEntryLocked(entry.get(), map_key).ok()) ++written;
  }
  if (written > 0) store_->Sync();
  return written;
}

size_t TenantRegistry::EvictIdle(uint64_t idle_timeout_ms) {
  if (store_ == nullptr || idle_timeout_ms == 0) return 0;
  const uint64_t now = NowMs();
  size_t evicted = 0;
  bool persisted = false;
  for (auto& [map_key, entry] : AllEntries()) {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->evicted) continue;
    if (now < entry->last_touch_ms + idle_timeout_ms) continue;
    if (entry->stream->updates_seen() != entry->persisted_updates) {
      // An eviction that cannot persist must not happen: the entry stays
      // resident rather than lose its updates.
      if (!PersistEntryLocked(entry.get(), map_key).ok()) continue;
      persisted = true;
    }
    {
      MapShard& shard = ShardFor(map_key);
      std::lock_guard<std::mutex> map_lock(shard.mutex);
      auto it = shard.entries.find(map_key);
      // A drop/recreate may have raced ahead of us — only evict the
      // exact entry this pass snapshotted.
      if (it == shard.entries.end() || it->second != entry) continue;
      shard.entries.erase(it);
    }
    entry->evicted = true;
    ++evicted;
  }
  if (persisted) store_->Sync();
  return evicted;
}

Result<std::shared_ptr<TenantRegistry::Entry>>
TenantRegistry::RehydrateTenant(const std::string& map_key) {
  const std::string store_key = "t:" + map_key;
  const size_t records = store_->RecordCount(store_key);
  if (records == 0 ||
      store_->RecordKind(store_key, records - 1) != kTenantSnapshotRecord) {
    return std::shared_ptr<Entry>();  // never persisted, or tombstoned
  }
  auto payload = store_->ReadRecord(store_key, records - 1);
  if (!payload.ok()) return payload.status();
  auto image = ParseImage(payload->data(), payload->size());
  if (!image.ok()) {
    return Status::InvalidArgument("snapshot record is not a bit stream: " +
                                   image.status().message());
  }
  BitReader& reader = image.value();
  const std::string tenant = ReadString(&reader);
  const std::string key = ReadString(&reader);
  const SnapshotBlob blob = DeserializeSnapshot(&reader);
  if (reader.failed()) {
    return Status::InvalidArgument("snapshot record is truncated");
  }
  // The names inside the record must agree with the key it was filed
  // under — a mismatch means the record was damaged below the CRC's
  // notice or misfiled, either way unusable.
  if (MapKey(tenant, key) != map_key) {
    return Status::InvalidArgument("snapshot record names another tenant");
  }
  auto built = BuildEntry(blob.config, &blob);
  if (!built.ok()) return built.status();
  std::shared_ptr<Entry> entry = std::move(built.value());
  entry->tenant = tenant;
  entry->key = key;
  entry->last_touch_ms = NowMs();
  // The snapshot we just rebuilt from IS the persisted state.
  entry->persisted_updates = blob.updates_seen;
  AttachEntrySpill(entry.get(), map_key);
  MapShard& shard = ShardFor(map_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto emplaced = shard.entries.emplace(map_key, std::move(entry));
  // Lost a rehydration race: the concurrently inserted entry wins.
  return emplaced.first->second;
}

size_t TenantRegistry::RestoreAll(std::vector<RestoreFailure>* failures) {
  if (store_ == nullptr) return 0;
  size_t restored = 0;
  for (const std::string& store_key : store_->Keys()) {
    if (store_key.compare(0, 2, "t:") != 0) continue;
    const std::string map_key = store_key.substr(2);
    {
      MapShard& shard = ShardFor(map_key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.entries.count(map_key) > 0) continue;  // already live
    }
    auto rehydrated = RehydrateTenant(map_key);
    if (!rehydrated.ok()) {
      if (failures != nullptr) {
        failures->push_back({store_key, rehydrated.status()});
      }
    } else if (rehydrated.value() != nullptr) {
      ++restored;
    }
  }
  return restored;
}

std::vector<std::pair<std::string, std::shared_ptr<TenantRegistry::Entry>>>
TenantRegistry::AllEntries() const {
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  for (const MapShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [map_key, entry] : shard.entries) {
      entries.emplace_back(map_key, entry);
    }
  }
  return entries;
}

ServerStats TenantRegistry::Stats() const {
  ServerStats stats;
  stats.kernel_backend = kernels::ActiveBackendName();
  stats.updates = updates_.load(std::memory_order_relaxed);
  stats.ingests = ingests_.load(std::memory_order_relaxed);
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  const auto entries = AllEntries();
  stats.tenants = entries.size();
  std::unordered_map<std::string, bool> live;
  live.reserve(entries.size());
  for (const auto& [map_key, entry] : entries) {
    live.emplace(map_key, true);
    std::lock_guard<std::mutex> lock(entry->mutex);
    TenantPersistStats tenant;
    tenant.name = entry->tenant + "/" + entry->key;
    if (const stream::WindowManager* window = entry->stream->window()) {
      tenant.resident_bytes = window->CheckpointBytes();
      tenant.spilled_bytes = window->SpilledBytes();
    }
    tenant.resident = true;
    stats.resident_bytes += tenant.resident_bytes;
    stats.spilled_bytes += tenant.spilled_bytes;
    stats.per_tenant.push_back(std::move(tenant));
  }
  if (store_ == nullptr) return stats;
  // Idle-evicted tenants exist only as store records; report them with
  // their on-disk footprint so the spill is observable end to end.
  for (const std::string& store_key : store_->Keys()) {
    if (store_key.compare(0, 2, "t:") != 0) continue;
    const std::string map_key = store_key.substr(2);
    if (live.count(map_key) > 0) continue;
    const size_t records = store_->RecordCount(store_key);
    if (records == 0 ||
        store_->RecordKind(store_key, records - 1) != kTenantSnapshotRecord) {
      continue;  // tombstoned (dropped), not evicted
    }
    TenantPersistStats tenant;
    // Recover the wire names from the map key's length-prefixed form:
    // "<tenant_len>:<tenant><key>". A key that does not parse is skipped,
    // not thrown on: boot already reported it as not restored.
    const size_t colon = map_key.find(':');
    if (colon == std::string::npos) continue;
    uint64_t tenant_len = 0;
    const char* digits_end = map_key.data() + colon;
    const auto parsed = std::from_chars(map_key.data(), digits_end, tenant_len);
    if (parsed.ec != std::errc() || parsed.ptr != digits_end ||
        tenant_len > map_key.size() - colon - 1) {
      continue;
    }
    tenant.name = map_key.substr(colon + 1, tenant_len) + "/" +
                  map_key.substr(colon + 1 + tenant_len);
    tenant.resident = false;
    tenant.spilled_bytes =
        store_->KeyBytes(store_key) + store_->KeyBytes("w:" + map_key);
    stats.spilled_bytes += tenant.spilled_bytes;
    stats.per_tenant.push_back(std::move(tenant));
  }
  return stats;
}

}  // namespace lps::server
