#include "src/stream/window_manager.h"

#include <algorithm>
#include <utility>

#include "src/util/byte_io.h"
#include "src/util/check.h"
#include "src/util/serialize.h"

namespace lps::stream {

namespace {

// record_kind tag for window delta records in the checkpoint store.
constexpr uint8_t kWindowDeltaRecord = 1;

// Spilled record payload: [mode:u8][raw_bits:u64 LE][compressed bytes].
std::vector<uint8_t> PackDelta(const persist::EncodedDelta& delta) {
  std::vector<uint8_t> payload(9 + delta.bytes.size());
  payload[0] = static_cast<uint8_t>(delta.mode);
  StoreLE(delta.raw_bits, payload.data() + 1);
  std::copy(delta.bytes.begin(), delta.bytes.end(), payload.begin() + 9);
  return payload;
}

bool UnpackDelta(const std::vector<uint8_t>& payload,
                 persist::EncodedDelta* delta) {
  if (payload.size() < 9) return false;
  delta->mode = static_cast<persist::DeltaMode>(payload[0]);
  delta->raw_bits = LoadLE<uint64_t>(payload.data() + 1);
  delta->bytes.assign(payload.begin() + 9, payload.end());
  return true;
}

}  // namespace

WindowManager::WindowManager(LinearSketch* live, Options options)
    : live_(live),
      interval_(options.checkpoint_interval),
      max_checkpoints_(options.max_checkpoints) {
  LPS_CHECK(live_ != nullptr);
  LPS_CHECK(interval_ >= 1);
  next_seal_ = interval_;
  // The attach-time state is the position-0 prefix. For a freshly
  // constructed sketch the snapshot is all-zero counters (subtracting it
  // is the identity); for the duplicates finders it carries their
  // (i, -1) initialization, which MergeNegated subtracts and then adds
  // back from the shared init sketch.
  Seal();
}

void WindowManager::Seal() {
  if (!ring_.empty() && ring_.back().count == updates_seen_) return;
  Checkpoint cp;
  cp.count = updates_seen_;
  BitWriter writer;
  live_->Serialize(&writer);
  cp.words = writer.words();
  cp.bits = writer.bit_count();
  ring_.push_back(std::move(cp));
  Trim();
}

void WindowManager::AttachSpill(SpillOptions spill) {
  LPS_CHECK(spill.store != nullptr);
  LPS_CHECK(!spill.stream_key.empty());
  LPS_CHECK(spill.resident_checkpoints >= 1);
  LPS_CHECK(spill.keyframe_interval >= 1);
  spill_ = std::move(spill);
  Trim();
}

void WindowManager::Trim() {
  if (spill_.store != nullptr) {
    while (ring_.size() > spill_.resident_checkpoints &&
           spill_.store != nullptr) {
      SpillOldest();
    }
    if (max_checkpoints_ > 0) {
      // Retention bounds resident + spilled together; the oldest spilled
      // entries become unreachable first (the append-only store keeps
      // their records, but no window can select them).
      while (!spilled_.empty() &&
             ring_.size() + spilled_.size() > max_checkpoints_) {
        spilled_.pop_front();
      }
    }
  }
  if (max_checkpoints_ > 0) {
    while (ring_.size() > max_checkpoints_) ring_.pop_front();
  }
}

void WindowManager::SpillOldest() {
  Checkpoint& cp = ring_.front();
  // First record from this manager (or every keyframe_interval-th) is a
  // keyframe: records appended by earlier processes under the same key
  // are not part of our chain, so we must never delta against them.
  const bool keyframe = spill_records_ % spill_.keyframe_interval == 0 ||
                        last_spilled_words_.empty();
  const persist::EncodedDelta delta =
      keyframe ? persist::EncodeDelta(persist::DeltaMode::kKeyframe, cp.words,
                                      cp.bits, {}, 0)
               : persist::EncodeBestDelta(cp.words, cp.bits,
                                          last_spilled_words_,
                                          last_spilled_bits_);
  const std::vector<uint8_t> payload = PackDelta(delta);
  const size_t record_index = spill_.store->RecordCount(spill_.stream_key);
  const Status st = spill_.store->Append(spill_.stream_key,
                                         kWindowDeltaRecord, payload.data(),
                                         payload.size());
  if (!st.ok()) {
    // Disk trouble: keep the checkpoint resident and stop spilling. The
    // window capability degrades to the all-RAM ring, never to data loss.
    last_spill_error_ = st;
    spill_.store = nullptr;
    return;
  }
  spilled_.push_back({cp.count, record_index, keyframe});
  spilled_bytes_ += payload.size();
  last_spilled_words_ = std::move(cp.words);
  last_spilled_bits_ = cp.bits;
  ++spill_records_;
  ring_.pop_front();
}

WindowManager::Checkpoint WindowManager::Rehydrate(size_t meta_index) const {
  LPS_CHECK(meta_index < spilled_.size());
  // Walk back to the chain anchor: the nearest keyframe at or before the
  // target, or the cached plaintext if it lies on the chain.
  size_t anchor = meta_index;
  while (!spilled_[anchor].keyframe) {
    LPS_CHECK(anchor > 0);
    --anchor;
  }
  // Every checkpoint of one sketch serializes to the same bit count, so
  // a resident one states the size each record must decode to.
  const size_t bits = ring_.front().bits;
  Checkpoint state;
  size_t next = anchor;
  if (cache_valid_) {
    for (size_t i = meta_index + 1; i-- > anchor;) {
      if (spilled_[i].count == cache_.count) {
        state = cache_;
        next = i + 1;
        break;
      }
    }
  }
  for (size_t i = next; i <= meta_index; ++i) {
    const auto payload =
        spill_.store->ReadRecord(spill_.stream_key, spilled_[i].record_index);
    LPS_CHECK(payload.ok());
    persist::EncodedDelta delta;
    LPS_CHECK(UnpackDelta(payload.value(), &delta));
    std::vector<uint64_t> words;
    LPS_CHECK(persist::DecodeDelta(delta, state.words, bits, &words));
    state.words = std::move(words);
    state.bits = bits;
    state.count = spilled_[i].count;
  }
  cache_ = state;
  cache_valid_ = true;
  return state;
}

void WindowManager::PushBatch(const Update* updates, size_t count) {
  size_t done = 0;
  while (done < count) {
    // Stop the chunk at the next seal boundary so checkpoint positions
    // are exact multiples of the interval, independent of how callers
    // chunk their batches.
    const uint64_t room = next_seal_ - updates_seen_;
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(room, count - done));
    live_->UpdateBatch(updates + done, take);
    updates_seen_ += take;
    done += take;
    if (updates_seen_ == next_seal_) {
      Seal();
      next_seal_ += interval_;
    }
  }
}

size_t WindowManager::Drive(const UpdateStream& stream) {
  PushBatch(stream.data(), stream.size());
  return stream.size();
}

void WindowManager::SealEpoch(uint64_t count) {
  updates_seen_ += count;
  Seal();
  // Re-anchor the automatic schedule: the next owned-ingestion seal comes
  // one full interval after this epoch boundary.
  next_seal_ = updates_seen_ + interval_;
}

WindowManager::Window WindowManager::WindowSketch(uint64_t w) const {
  LPS_CHECK(!ring_.empty());
  const uint64_t want_start = w >= updates_seen_ ? 0 : updates_seen_ - w;

  // Newest checkpoint at or before the wanted start — the window start
  // rounds DOWN so the materialized window always contains the last w
  // updates. A start behind the resident ring falls through to the
  // spilled history (rehydrated through the codec); reaching behind
  // everything retained clamps to the oldest materializable snapshot.
  Checkpoint rehydrated;
  const Checkpoint* expired_ptr = nullptr;
  if (!spilled_.empty() && want_start < ring_.front().count) {
    const auto past = std::upper_bound(
        spilled_.begin(), spilled_.end(), want_start,
        [](uint64_t value, const SpilledCheckpoint& cp) {
          return value < cp.count;
        });
    const size_t meta_index =
        past == spilled_.begin()
            ? 0
            : static_cast<size_t>(std::prev(past) - spilled_.begin());
    rehydrated = Rehydrate(meta_index);
    expired_ptr = &rehydrated;
  } else {
    const auto past = std::upper_bound(
        ring_.begin(), ring_.end(), want_start,
        [](uint64_t value, const Checkpoint& cp) { return value < cp.count; });
    expired_ptr = past == ring_.begin() ? &*past : &*std::prev(past);
  }
  const Checkpoint& expired = *expired_ptr;

  // S(now): round-trip the live sketch through its own wire format — the
  // cheapest faithful copy the LinearSketch contract offers, and O(sketch
  // size) like everything else here.
  BitWriter now;
  live_->Serialize(&now);
  BitReader now_reader(now);
  Window out;
  out.sketch = DeserializeAnySketch(&now_reader);
  LPS_CHECK(out.sketch != nullptr);

  // Minus S(expired): fold -1 x the checkpointed prefix counters in.
  BitReader expired_reader(&expired.words, expired.bits);
  auto expired_sketch = DeserializeAnySketch(&expired_reader);
  LPS_CHECK(expired_sketch != nullptr);
  out.sketch->MergeNegated(*expired_sketch);

  out.start = expired.count;
  out.length = updates_seen_ - expired.count;
  return out;
}

size_t WindowManager::CheckpointBytes() const {
  size_t bytes = 0;
  for (const Checkpoint& cp : ring_) bytes += cp.words.size() * 8;
  return bytes;
}

}  // namespace lps::stream
