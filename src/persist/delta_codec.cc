#include "src/persist/delta_codec.h"

#include "src/util/byte_io.h"
#include "src/util/serialize.h"

namespace lps::persist {

namespace {

// Zero runs shorter than this stay inside the surrounding literal: a run
// boundary costs two varint bytes, so breaking a literal for fewer than
// four zeros loses ground.
constexpr size_t kMinZeroRun = 4;

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(const std::vector<uint8_t>& in, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= in.size()) return false;
    const uint8_t byte = in[(*pos)++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;  // varint longer than 64 bits
}

// The raw (uncompressed) difference stream for the given mode. `prev` is
// zero-padded to cur's length; its tail beyond that is ignored.
std::vector<uint8_t> DifferenceBytes(DeltaMode mode,
                                     const std::vector<uint64_t>& cur,
                                     size_t cur_bits,
                                     const std::vector<uint64_t>& prev) {
  const size_t n_words = size_t(WordsForBits(cur_bits));
  LPS_CHECK(cur.size() >= n_words);
  std::vector<uint64_t> diff(n_words);
  for (size_t i = 0; i < n_words; ++i) {
    const uint64_t p = i < prev.size() ? prev[i] : 0;
    switch (mode) {
      case DeltaMode::kKeyframe:
        diff[i] = cur[i];
        break;
      case DeltaMode::kXor:
        diff[i] = cur[i] ^ p;
        break;
      case DeltaMode::kSub:
        diff[i] = cur[i] - p;
        break;
    }
  }
  std::vector<uint8_t> bytes(8 * n_words);
  StoreWordsLE(diff.data(), n_words, bytes.data());
  return bytes;
}

}  // namespace

std::vector<uint8_t> CompressBytes(const std::vector<uint8_t>& plain) {
  std::vector<uint8_t> out;
  out.reserve(plain.size() / 4 + 16);
  size_t pos = 0;
  while (pos < plain.size()) {
    // Greedy zero run.
    size_t zeros = 0;
    while (pos + zeros < plain.size() && plain[pos + zeros] == 0) ++zeros;
    pos += zeros;
    // Literal extends until a zero run of at least kMinZeroRun (or end).
    const size_t lit_start = pos;
    size_t streak = 0;
    while (pos < plain.size()) {
      if (plain[pos] == 0) {
        if (++streak == kMinZeroRun) {
          pos -= kMinZeroRun - 1;
          break;
        }
      } else {
        streak = 0;
      }
      ++pos;
    }
    PutVarint(zeros, &out);
    PutVarint(pos - lit_start, &out);
    out.insert(out.end(), plain.begin() + lit_start, plain.begin() + pos);
  }
  return out;
}

bool DecompressBytes(const std::vector<uint8_t>& packed, size_t plain_size,
                     std::vector<uint8_t>* out) {
  std::vector<uint8_t> plain;
  plain.reserve(plain_size);
  size_t pos = 0;
  while (plain.size() < plain_size) {
    uint64_t zeros = 0, lit = 0;
    if (!GetVarint(packed, &pos, &zeros)) return false;
    if (!GetVarint(packed, &pos, &lit)) return false;
    if (zeros > plain_size - plain.size()) return false;
    plain.resize(plain.size() + zeros, 0);
    if (lit > plain_size - plain.size()) return false;
    if (lit > packed.size() - pos) return false;
    plain.insert(plain.end(), packed.begin() + pos, packed.begin() + pos + lit);
    pos += lit;
  }
  if (pos != packed.size()) return false;  // trailing garbage
  *out = std::move(plain);
  return true;
}

EncodedDelta EncodeDelta(DeltaMode mode, const std::vector<uint64_t>& cur,
                         size_t cur_bits, const std::vector<uint64_t>& prev,
                         size_t prev_bits) {
  (void)prev_bits;  // prev's byte image is fully determined by its words
  EncodedDelta delta;
  delta.mode = mode;
  delta.raw_bits = cur_bits;
  delta.bytes = CompressBytes(DifferenceBytes(mode, cur, cur_bits, prev));
  return delta;
}

EncodedDelta EncodeBestDelta(const std::vector<uint64_t>& cur,
                             size_t cur_bits,
                             const std::vector<uint64_t>& prev,
                             size_t prev_bits) {
  if (prev.empty()) {
    return EncodeDelta(DeltaMode::kKeyframe, cur, cur_bits, prev, 0);
  }
  EncodedDelta x =
      EncodeDelta(DeltaMode::kXor, cur, cur_bits, prev, prev_bits);
  EncodedDelta s =
      EncodeDelta(DeltaMode::kSub, cur, cur_bits, prev, prev_bits);
  return s.bytes.size() < x.bytes.size() ? std::move(s) : std::move(x);
}

bool DecodeDelta(const EncodedDelta& delta, const std::vector<uint64_t>& prev,
                 size_t expected_bits, std::vector<uint64_t>* out_words) {
  // The record's claimed size is checked before anything is sized by it.
  if (delta.raw_bits != expected_bits || delta.mode > DeltaMode::kSub) {
    return false;
  }
  const size_t n_words = size_t(WordsForBits(delta.raw_bits));
  std::vector<uint8_t> diff_bytes;
  if (!DecompressBytes(delta.bytes, 8 * n_words, &diff_bytes)) return false;
  std::vector<uint64_t> words(n_words);
  LoadWordsLE(diff_bytes.data(), n_words, words.data());
  for (size_t i = 0; i < n_words; ++i) {
    const uint64_t p = i < prev.size() ? prev[i] : 0;
    switch (delta.mode) {
      case DeltaMode::kKeyframe:
        break;
      case DeltaMode::kXor:
        words[i] ^= p;
        break;
      case DeltaMode::kSub:
        words[i] += p;
        break;
    }
  }
  *out_words = std::move(words);
  return true;
}

}  // namespace lps::persist
