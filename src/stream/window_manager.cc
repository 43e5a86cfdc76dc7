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
  cp.bits = writer.bit_count();
  cp.words = writer.TakeWords();
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
  while (spill_.store != nullptr &&
         ring_.size() > spill_.resident_checkpoints) {
    SpillOldest();
  }
  if (max_checkpoints_ == 0) return;
  while (ring_.size() > max_checkpoints_) ring_.pop_front();
  // The oldest spilled entries stop being selectable first, but each
  // selectable one decodes from its chain back to a keyframe: only the
  // entries in front of that keyframe go.
  while (anchor_only_ < spilled_.size() &&
         checkpoint_count() > max_checkpoints_) {
    ++anchor_only_;
  }
  size_t keep_from = anchor_only_;
  if (keep_from < spilled_.size()) {
    while (!spilled_[keep_from].keyframe) {
      LPS_CHECK(keep_from > 0);
      --keep_from;
    }
  }
  spilled_.erase(spilled_.begin(), spilled_.begin() + keep_from);
  anchor_only_ -= keep_from;
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
    // spilled entries go with the store: without it none can be read,
    // so windows clamp to the resident ring, never to a wrong answer.
    last_spill_error_ = st;
    spill_.store = nullptr;
    spilled_.clear();
    anchor_only_ = 0;
    cache_valid_ = false;
    last_spilled_words_ = {};
    return;
  }
  spilled_.push_back({cp.count, record_index, keyframe});
  spilled_bytes_ += payload.size();
  last_spilled_words_ = std::move(cp.words);
  last_spilled_bits_ = cp.bits;
  ++spill_records_;
  ring_.pop_front();
}

Status WindowManager::Rehydrate(size_t meta_index, Checkpoint* out,
                                size_t* failed) const {
  LPS_CHECK(meta_index < spilled_.size());
  // Walk back to the chain anchor: the nearest keyframe at or before the
  // target (Trim keeps it), or the cached plaintext if it lies on the
  // chain.
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
  // The records come from disk: a read, unpack or decode that fails is
  // reported, never CHECKed.
  for (size_t i = next; i <= meta_index; ++i) {
    *failed = i;
    const auto payload =
        spill_.store->ReadRecord(spill_.stream_key, spilled_[i].record_index);
    if (!payload.ok()) return payload.status();
    persist::EncodedDelta delta;
    std::vector<uint64_t> words;
    if (!UnpackDelta(payload.value(), &delta) ||
        !persist::DecodeDelta(delta, state.words, bits, &words)) {
      return Status::InvalidArgument("undecodable window record in " +
                                     spill_.stream_key);
    }
    state.words = std::move(words);
    state.bits = bits;
    state.count = spilled_[i].count;
  }
  cache_ = state;
  cache_valid_ = true;
  *out = std::move(state);
  return Status::OK();
}

size_t WindowManager::ForgetUnreadable(size_t failed) const {
  // The deltas chained on the unreadable record go with it, up to the
  // next keyframe. Entries in front of it stay if a window can start at
  // one of them; the anchor-only ones in front of the first selectable
  // entry anchored nothing but the chain that goes.
  size_t end = failed + 1;
  while (end < spilled_.size() && !spilled_[end].keyframe) ++end;
  const size_t from = failed <= anchor_only_ ? 0 : failed;
  if (from == 0) anchor_only_ = 0;
  spilled_.erase(spilled_.begin() + from, spilled_.begin() + end);
  // A record spilled next must not delta against a forgotten one.
  if (from == spilled_.size()) last_spilled_words_ = {};
  cache_valid_ = false;
  return from;
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
  // everything retained clamps to the oldest selectable snapshot. A
  // spilled checkpoint that can no longer be read clamps the same way,
  // to the next one that can be built.
  Checkpoint rehydrated;
  const Checkpoint* expired_ptr = nullptr;
  if (spilled_count() > 0 && want_start < ring_.front().count) {
    const auto first = spilled_.begin() + anchor_only_;
    const auto past = std::upper_bound(
        first, spilled_.end(), want_start,
        [](uint64_t value, const SpilledCheckpoint& cp) {
          return value < cp.count;
        });
    size_t meta_index = static_cast<size_t>(
        (past == first ? first : std::prev(past)) - spilled_.begin());
    while (meta_index < spilled_.size()) {
      size_t failed = 0;
      if (Rehydrate(meta_index, &rehydrated, &failed).ok()) {
        expired_ptr = &rehydrated;
        break;
      }
      meta_index = ForgetUnreadable(failed);
    }
  }
  if (expired_ptr == nullptr) {
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
