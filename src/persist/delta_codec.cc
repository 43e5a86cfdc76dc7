#include "src/persist/delta_codec.h"

#include <algorithm>
#include <cstring>

#include "src/util/byte_io.h"
#include "src/util/serialize.h"

namespace lps::persist {

namespace {

size_t VarintSize(uint64_t v) {
  size_t size = 1;
  for (; v >= 0x80; v >>= 7) ++size;
  return size;
}

uint8_t* PutVarint(uint64_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
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

// A byte stream read a word at a time: byte k of word i is stream byte
// 8i + k, bits 8k..8k+7 of the word's value, whatever the host's byte
// order. A source holds `bytes` bytes in `words` words.

// The difference of a checkpoint against its predecessor (zero-padded).
template <DeltaMode kMode>
struct DiffWords {
  const uint64_t* cur;
  const uint64_t* prev;
  size_t prev_size;
  size_t words;
  size_t bytes;
  uint64_t operator()(size_t i) const {
    if constexpr (kMode == DeltaMode::kKeyframe) {
      return cur[i];
    } else {
      const uint64_t p = i < prev_size ? prev[i] : 0;
      return kMode == DeltaMode::kXor ? cur[i] ^ p : cur[i] - p;
    }
  }
};

template <DeltaMode kMode>
DiffWords<kMode> Diff(const std::vector<uint64_t>& cur, size_t cur_bits,
                      const std::vector<uint64_t>& prev) {
  const size_t words = size_t(WordsForBits(cur_bits));
  LPS_CHECK(cur.size() >= words);
  return {cur.data(), prev.data(), prev.size(), words, 8 * words};
}

// A byte buffer; its last partial word is zero-padded.
struct ByteWords {
  const uint8_t* data;
  size_t full;  // whole words in the buffer
  uint64_t tail = 0;
  size_t words;
  size_t bytes;
  explicit ByteWords(const std::vector<uint8_t>& buffer)
      : data(buffer.data()),
        full(buffer.size() / 8),
        words((buffer.size() + 7) / 8),
        bytes(buffer.size()) {
    for (size_t k = 0; k < bytes % 8; ++k) {
      tail |= uint64_t(data[8 * full + k]) << (8 * k);
    }
  }
  uint64_t operator()(size_t i) const {
    return i < full ? LoadLE<uint64_t>(data + 8 * i) : tail;
  }
};

// Bit k set iff byte k of `w` is zero.
inline uint64_t ZeroBytes(uint64_t w) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  // 0x80 in each zero byte and nowhere else: no carry leaves a byte.
  const uint64_t high = ~(((w & kLow7) + kLow7) | w | kLow7);
  // Gathers bit 8k + 7 into bit 56 + k.
  return ((high >> 7) * 0x0102040810204080ULL) >> 56;
}

// Bit j set iff byte 64 * block + j of the stream is zero; bytes past
// the end count as non-zero.
template <typename Words>
uint64_t ZeroMask(const Words& words, size_t block) {
  const size_t first = 8 * block;
  const size_t count = std::min<size_t>(8, words.words - first);
  uint64_t mask = 0;
  for (size_t j = 0; j < count; ++j) {
    mask |= ZeroBytes(words(first + j)) << (8 * j);
  }
  const size_t valid = words.bytes - 64 * block;
  return valid >= 64 ? mask : mask & ((uint64_t{1} << valid) - 1);
}

// The compressed form is a list of (zero run, literal) pairs. Its zero
// runs are the maximal runs of at least four zero bytes, plus the run
// that starts the stream whatever its length; every other byte is in a
// literal (a run boundary costs two varint bytes, so breaking a literal
// for fewer than four zeros loses ground). RunScan hands
// `sink(block, runs, starts)` each 64-byte block of the stream in order:
// `runs` marks its bytes that lie in a zero run, `starts` the bytes where
// a zero run or a literal begins (byte 0 and bytes past the end
// excluded).
template <typename Words, typename Sink>
void RunScan(const Words& words, Sink&& sink) {
  const size_t blocks = (words.bytes + 63) / 64;
  uint64_t zeros = blocks > 0 ? ZeroMask(words, 0) : 0;
  uint64_t windows_before = 0;  // the previous block's `windows`
  uint64_t runs_before = 0;     // the previous block's `runs`
  for (size_t b = 0; b < blocks; ++b) {
    const uint64_t next = b + 1 < blocks ? ZeroMask(words, b + 1) : 0;
    // Bit j: bytes j..j+3 are all zero (looking into the next block).
    const uint64_t windows = zeros & ((zeros >> 1) | (next << 63)) &
                             ((zeros >> 2) | (next << 62)) &
                             ((zeros >> 3) | (next << 61));
    // Bit j: byte j lies in such a window (looking into the previous one).
    uint64_t runs = windows | (windows << 1) | (windows << 2) |
                    (windows << 3) | (windows_before >> 61) |
                    (windows_before >> 62) | (windows_before >> 63);
    uint64_t carry = runs_before >> 63;
    if (b == 0) {
      runs |= zeros & ~(zeros + 1);  // the leading run, any length
      carry = runs & 1;              // byte 0 starts nothing
    }
    uint64_t starts = runs ^ ((runs << 1) | carry);
    const size_t valid = words.bytes - 64 * b;
    if (valid < 64) starts &= (uint64_t{1} << valid) - 1;
    sink(b, runs, starts);
    windows_before = windows;
    runs_before = runs;
    zeros = next;
  }
}

// Bytes of the compressed stream: two varints per pair plus the literal
// bytes. A pair begins at each zero run, and at byte 0 when the stream
// begins with a literal, so there is one more pair than rising edges of
// `runs`. A segment (a run or a literal) that began in an earlier block
// ends at a block's first start; every other one lies inside a block and
// its length fits a one-byte varint.
template <typename Words>
size_t PackedSize(const Words& words) {
  if (words.bytes == 0) return 0;
  size_t run_bytes = 0, rises = 0, long_varint_bytes = 0, segment = 0;
  RunScan(words, [&](size_t b, uint64_t runs, uint64_t starts) {
    run_bytes += size_t(__builtin_popcountll(runs));
    rises += size_t(__builtin_popcountll(starts & runs));
    if (starts != 0) {
      const size_t first = 64 * b + size_t(__builtin_ctzll(starts));
      long_varint_bytes += VarintSize(first - segment) - 1;
      segment = 64 * b + 63 - size_t(__builtin_clzll(starts));
    }
  });
  long_varint_bytes += VarintSize(words.bytes - segment) - 1;
  return 2 * (rises + 1) + (words.bytes - run_bytes) + long_varint_bytes;
}

// Writes the compressed stream into `out`, which holds exactly
// PackedSize(words) bytes.
template <typename Words>
void Pack(const Words& words, uint8_t* out, size_t out_size) {
  if (words.bytes == 0) return;
  uint8_t* const out_end = out + out_size;
  // Bytes p..p+7 of the stream as a word (zero past the last word).
  const auto bytes_at = [&](size_t p) {
    const size_t i = p / 8;
    const unsigned shift = unsigned(8 * (p % 8));
    const uint64_t high = i + 1 < words.words ? words(i + 1) : 0;
    // (high << 1) << (63 - shift) is high << (64 - shift), and 0 when
    // shift is 0.
    return (words(i) >> shift) | ((high << 1) << (63 - shift));
  };
  // Stream bytes [begin, end) go out a word at a time while the output
  // has room for a whole word: a store may run past the literal, into
  // bytes the next varint overwrites. The output's last few bytes go out
  // one at a time.
  const auto copy = [&](size_t begin, size_t end) {
    size_t p = begin;
    while (p < end && out_end - out >= 8) {
      StoreLE(bytes_at(p), out);
      const size_t take = std::min<size_t>(8, end - p);
      out += take;
      p += take;
    }
    for (; p < end; ++p) *out++ = uint8_t(bytes_at(p));
  };
  size_t segment = 0;  // where the current run or literal began
  bool in_run = false;
  RunScan(words, [&](size_t b, uint64_t runs, uint64_t starts) {
    if (b == 0) {
      in_run = (runs & 1) != 0;
      if (!in_run) out = PutVarint(0, out);  // no leading zeros
    }
    for (; starts != 0; starts &= starts - 1) {
      const size_t at = 64 * b + size_t(__builtin_ctzll(starts));
      out = PutVarint(at - segment, out);
      if (!in_run) copy(segment, at);
      segment = at;
      in_run = !in_run;
    }
  });
  out = PutVarint(words.bytes - segment, out);
  if (in_run) {
    out = PutVarint(0, out);  // the stream ends in zeros
  } else {
    copy(segment, words.bytes);
  }
  LPS_CHECK(out == out_end);
}

template <typename Words>
std::vector<uint8_t> PackAll(const Words& words) {
  std::vector<uint8_t> out(PackedSize(words));
  Pack(words, out.data(), out.size());
  return out;
}

// Fills `out` (plain_size bytes, already zero) from a compressed stream:
// the zero runs are skipped, the literals copied.
bool Unpack(const std::vector<uint8_t>& packed, uint8_t* out,
            size_t plain_size) {
  size_t filled = 0, pos = 0;
  while (filled < plain_size) {
    uint64_t zeros = 0, lit = 0;
    if (!GetVarint(packed, &pos, &zeros)) return false;
    if (!GetVarint(packed, &pos, &lit)) return false;
    if (zeros > plain_size - filled) return false;
    filled += size_t(zeros);
    if (lit > plain_size - filled) return false;
    if (lit > packed.size() - pos) return false;
    if (lit > 0) std::memcpy(out + filled, packed.data() + pos, size_t(lit));
    filled += size_t(lit);
    pos += size_t(lit);
  }
  return pos == packed.size();  // no trailing garbage
}

}  // namespace

std::vector<uint8_t> CompressBytes(const std::vector<uint8_t>& plain) {
  return PackAll(ByteWords(plain));
}

bool DecompressBytes(const std::vector<uint8_t>& packed, size_t plain_size,
                     std::vector<uint8_t>* out) {
  std::vector<uint8_t> plain(plain_size);
  if (!Unpack(packed, plain.data(), plain_size)) return false;
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
  switch (mode) {
    case DeltaMode::kKeyframe:
      delta.bytes = PackAll(Diff<DeltaMode::kKeyframe>(cur, cur_bits, prev));
      break;
    case DeltaMode::kXor:
      delta.bytes = PackAll(Diff<DeltaMode::kXor>(cur, cur_bits, prev));
      break;
    case DeltaMode::kSub:
      delta.bytes = PackAll(Diff<DeltaMode::kSub>(cur, cur_bits, prev));
      break;
  }
  return delta;
}

EncodedDelta EncodeBestDelta(const std::vector<uint64_t>& cur,
                             size_t cur_bits,
                             const std::vector<uint64_t>& prev,
                             size_t prev_bits) {
  (void)prev_bits;  // as in EncodeDelta
  if (prev.empty()) {
    return EncodeDelta(DeltaMode::kKeyframe, cur, cur_bits, prev, 0);
  }
  // Both sizes come from a scan; only the smaller stream is written.
  const auto xor_words = Diff<DeltaMode::kXor>(cur, cur_bits, prev);
  const auto sub_words = Diff<DeltaMode::kSub>(cur, cur_bits, prev);
  const size_t xor_size = PackedSize(xor_words);
  const size_t sub_size = PackedSize(sub_words);
  EncodedDelta delta;
  delta.raw_bits = cur_bits;
  if (sub_size < xor_size) {
    delta.mode = DeltaMode::kSub;
    delta.bytes.resize(sub_size);
    Pack(sub_words, delta.bytes.data(), sub_size);
  } else {
    delta.mode = DeltaMode::kXor;
    delta.bytes.resize(xor_size);
    Pack(xor_words, delta.bytes.data(), xor_size);
  }
  return delta;
}

bool DecodeDelta(const EncodedDelta& delta, const std::vector<uint64_t>& prev,
                 size_t expected_bits, std::vector<uint64_t>* out_words) {
  // The record's claimed size is checked before anything is sized by it.
  if (delta.raw_bits != expected_bits || delta.mode > DeltaMode::kSub) {
    return false;
  }
  const size_t n_words = size_t(WordsForBits(delta.raw_bits));
  // The difference lands in the words' own bytes, little-endian, and is
  // then read back as words and undone in place.
  std::vector<uint64_t> words(n_words);
  uint8_t* bytes = reinterpret_cast<uint8_t*>(words.data());
  if (!Unpack(delta.bytes, bytes, 8 * n_words)) return false;
  const size_t with_prev =
      delta.mode == DeltaMode::kKeyframe ? 0 : std::min(prev.size(), n_words);
  for (size_t i = 0; i < n_words; ++i) {
    const uint64_t d = LoadLE<uint64_t>(bytes + 8 * i);
    const uint64_t p = i < with_prev ? prev[i] : 0;
    words[i] = delta.mode == DeltaMode::kSub ? d + p : d ^ p;
  }
  *out_words = std::move(words);
  return true;
}

}  // namespace lps::persist
