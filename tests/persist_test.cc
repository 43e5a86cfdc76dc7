// The durable checkpoint subsystem, end to end:
//
//   * delta codec: varint/zero-RLE byte layer edge cases, the word
//     scanner's bytes against the byte loop it replaced (word and block
//     straddles, long runs and literals, every kind's checkpoint
//     stream), bit-exact round-trips for every SketchKind (keyframe, XOR
//     and SUB deltas), malformed-payload and lying-size rejection, and
//     the >= 4x compression the hot-set regime is built for;
//   * checkpoint store: the slicing-by-8 CRC against the bytewise one,
//     append/read/reopen index rebuild, a short read of a segment that
//     shrank, segment rolling and a reopen over several sealed segments,
//     torn-tail truncation and corrupt-record suffix drop at recovery;
//   * WindowManager spill: windowed answers BIT-IDENTICAL to the
//     all-RAM ring (including off-boundary starts that round into a
//     rehydrated checkpoint), resident/spilled accounting,
//     max_checkpoints eviction of the oldest spilled entries with their
//     chain back to a keyframe kept, and a store that vanishes under
//     the ring (the window clamps, never aborts);
//   * server persistence: clean-restart restore, idle eviction with
//     lazy rehydration (STATS observability), a fork + SIGKILL crash of
//     a live daemon over real sockets whose reboot answers identically,
//     and a boot that reports the tenants whose snapshots do not decode;
//   * one image: a frame body, a tenant store record and a .lps file
//     carry the same hand-written bytes.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/sketch_spec.h"
#include "src/io/bits_io.h"
#include "src/persist/checkpoint_store.h"
#include "src/persist/delta_codec.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/stream/generators.h"
#include "src/stream/linear_sketch.h"
#include "src/stream/window_manager.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

using persist::CheckpointStore;
using persist::DecodeDelta;
using persist::DeltaMode;
using persist::EncodedDelta;
using persist::EncodeBestDelta;
using persist::EncodeDelta;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/lps_persist_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

void RemoveTree(const std::string& dir) {
  const std::string command = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(command.c_str());
}

// ----------------------------------------------------------- byte layer --

TEST(DeltaCodecBytes, RoundTripEdges) {
  const std::vector<std::vector<uint8_t>> cases = {
      {},
      {0},
      {1},
      {0, 0, 0, 0, 0, 0, 0, 0},
      {1, 2, 3, 4, 5, 6, 7, 8},
      {0, 0, 0, 1, 0, 0, 0, 0, 2, 0},
      std::vector<uint8_t>(1000, 0),
      std::vector<uint8_t>(1000, 7),
  };
  for (const auto& plain : cases) {
    const std::vector<uint8_t> packed = persist::CompressBytes(plain);
    std::vector<uint8_t> out;
    ASSERT_TRUE(persist::DecompressBytes(packed, plain.size(), &out));
    EXPECT_EQ(out, plain);
  }
  // Mixed runs around the kMinZeroRun threshold.
  std::vector<uint8_t> mixed;
  for (int run = 0; run < 12; ++run) {
    for (int z = 0; z < run; ++z) mixed.push_back(0);
    mixed.push_back(uint8_t(run + 1));
  }
  const std::vector<uint8_t> packed = persist::CompressBytes(mixed);
  std::vector<uint8_t> out;
  ASSERT_TRUE(persist::DecompressBytes(packed, mixed.size(), &out));
  EXPECT_EQ(out, mixed);
}

// The byte loop the word scanner replaced, kept as the reference for the
// compressed bytes: a greedy zero run, then a literal up to the next run
// of at least four zeros (or the end).
void OraclePutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(uint8_t(v) | 0x80);
    v >>= 7;
  }
  out->push_back(uint8_t(v));
}

std::vector<uint8_t> OracleCompress(const std::vector<uint8_t>& plain) {
  std::vector<uint8_t> out;
  size_t pos = 0;
  while (pos < plain.size()) {
    size_t zeros = 0;
    while (pos + zeros < plain.size() && plain[pos + zeros] == 0) ++zeros;
    pos += zeros;
    const size_t lit_start = pos;
    size_t streak = 0;
    while (pos < plain.size()) {
      if (plain[pos] == 0) {
        if (++streak == 4) {
          pos -= 3;
          break;
        }
      } else {
        streak = 0;
      }
      ++pos;
    }
    OraclePutVarint(zeros, &out);
    OraclePutVarint(pos - lit_start, &out);
    out.insert(out.end(), plain.begin() + lit_start, plain.begin() + pos);
  }
  return out;
}

/// The difference stream's little-endian bytes, word by word.
std::vector<uint8_t> OracleDifference(DeltaMode mode,
                                      const std::vector<uint64_t>& cur,
                                      size_t cur_bits,
                                      const std::vector<uint64_t>& prev) {
  std::vector<uint8_t> bytes(8 * WordsForBits(cur_bits));
  for (size_t i = 0; i < bytes.size() / 8; ++i) {
    const uint64_t p = i < prev.size() ? prev[i] : 0;
    const uint64_t d = mode == DeltaMode::kKeyframe ? cur[i]
                       : mode == DeltaMode::kXor    ? cur[i] ^ p
                                                    : cur[i] - p;
    for (int k = 0; k < 8; ++k) bytes[8 * i + k] = uint8_t(d >> (8 * k));
  }
  return bytes;
}

/// "a b c" from its parts, for failure messages.
template <typename... Parts>
std::string Say(const Parts&... parts) {
  std::ostringstream out;
  ((out << parts << ' '), ...);
  return out.str();
}

void ExpectOracleBytes(const std::vector<uint8_t>& plain,
                       const std::string& what) {
  const std::vector<uint8_t> packed = persist::CompressBytes(plain);
  ASSERT_EQ(packed, OracleCompress(plain)) << what;
  std::vector<uint8_t> out;
  ASSERT_TRUE(persist::DecompressBytes(packed, plain.size(), &out)) << what;
  EXPECT_EQ(out, plain) << what;
}

std::vector<uint8_t> Filled(size_t size, uint8_t value) {
  return std::vector<uint8_t>(size, value);
}

// The scanner finds zero runs a word (and a 64-byte block) at a time;
// every place where a run or a literal can begin or end relative to a
// word must give the byte loop's bytes.
TEST(DeltaCodecBytes, ScannerMatchesTheByteLoop) {
  // Zero runs of 3, 4 and 5 starting at every byte of two words and two
  // blocks, so some straddle a word or a block boundary.
  for (const size_t size : {size_t(80), size_t(140)}) {
    for (size_t start = 0; start + 5 <= size; ++start) {
      for (const size_t run : {size_t(3), size_t(4), size_t(5)}) {
        std::vector<uint8_t> plain = Filled(size, 0x5A);
        std::fill(plain.begin() + start, plain.begin() + start + run, 0);
        ExpectOracleBytes(plain, Say("run", run, "at", start, "of", size));
      }
    }
  }
  // Leading and trailing zeros, runs shorter than four included, on
  // every stream length up to three blocks.
  for (size_t size = 0; size <= 200; ++size) {
    for (const size_t edge : {1, 2, 3, 4, 5, 8, 63, 64, 65}) {
      if (edge > size) continue;
      std::vector<uint8_t> leading = Filled(size, 0xC3);
      std::fill(leading.begin(), leading.begin() + edge, 0);
      ExpectOracleBytes(leading, Say("leading", edge, "of", size));
      std::vector<uint8_t> trailing = Filled(size, 0xC3);
      std::fill(trailing.end() - edge, trailing.end(), 0);
      ExpectOracleBytes(trailing, Say("trailing", edge, "of", size));
    }
    ExpectOracleBytes(Filled(size, 0), Say("zeros", size));
    ExpectOracleBytes(Filled(size, 1), Say("ones", size));
  }
  // Runs and literals whose lengths need two- and three-byte varints.
  for (const size_t zeros : {127, 128, 129, 16383, 16384, 16385}) {
    for (const size_t lit : {1, 127, 128, 129, 16383, 16384, 16385}) {
      std::vector<uint8_t> plain = Filled(lit, 0x11);
      plain.insert(plain.end(), zeros, 0);
      plain.insert(plain.end(), lit, 0x22);
      plain.insert(plain.end(), zeros, 0);
      ExpectOracleBytes(plain, Say("zeros", zeros, "literal", lit));
    }
  }
  ExpectOracleBytes(Filled(40000, 0), "40000 zeros");
  // Random streams, sparse and dense in zeros, on odd lengths.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const size_t size = size_t(next() % 700);
    const uint64_t zero_per_256 = next() % 256;
    std::vector<uint8_t> plain(size);
    for (uint8_t& b : plain) {
      b = next() % 256 < zero_per_256 ? 0 : uint8_t(1 + next() % 255);
    }
    ExpectOracleBytes(plain, Say("trial", trial));
  }
}

TEST(DeltaCodecBytes, RejectsMalformedStreams) {
  const std::vector<uint8_t> plain = {0, 0, 0, 0, 0, 1, 2, 3};
  const std::vector<uint8_t> packed = persist::CompressBytes(plain);
  std::vector<uint8_t> out;

  // Truncated stream.
  for (size_t cut = 0; cut < packed.size(); ++cut) {
    std::vector<uint8_t> shorter(packed.begin(), packed.begin() + cut);
    EXPECT_FALSE(persist::DecompressBytes(shorter, plain.size(), &out))
        << "cut at " << cut;
  }
  // Wrong plaintext size (both directions).
  EXPECT_FALSE(persist::DecompressBytes(packed, plain.size() - 1, &out));
  EXPECT_FALSE(persist::DecompressBytes(packed, plain.size() + 1, &out));
  // Trailing garbage after a complete stream.
  std::vector<uint8_t> longer = packed;
  longer.push_back(0x55);
  EXPECT_FALSE(persist::DecompressBytes(longer, plain.size(), &out));
  // A varint that never terminates.
  const std::vector<uint8_t> runaway(12, 0x80);
  EXPECT_FALSE(persist::DecompressBytes(runaway, 4, &out));
}

// ---------------------------------------------------------- delta layer --

/// A spec of the given kind that ValidateSpec accepts (n kept small so
/// the all-kinds sweep stays fast).
SketchSpec SpecFor(SketchKind kind) {
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 512;
  spec.p = 1.0;
  spec.eps = 0.5;
  spec.delta = 0.25;
  spec.phi = 0.1;
  spec.seed = 40 + uint64_t(kind);
  if (kind == SketchKind::kMomentEstimator) spec.p = 2.5;
  return spec;
}

std::pair<std::vector<uint64_t>, size_t> StateOf(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

TEST(DeltaCodec, RoundTripsEveryKindBitExactly) {
  for (uint32_t k = 1; k <= 21; ++k) {
    const SketchKind kind = SketchKind(k);
    const SketchSpec spec = SpecFor(kind);
    ASSERT_TRUE(ValidateSpec(spec).ok()) << SketchKindName(kind);
    auto sketch = MakeSketch(spec);
    ASSERT_NE(sketch, nullptr) << SketchKindName(kind);

    for (uint64_t i = 0; i < 300; ++i) {
      sketch->Update(i % spec.n, int64_t(1 + i % 5));
    }
    const auto [prev_words, prev_bits] = StateOf(*sketch);

    // Keyframe: self-contained, decodes with no predecessor.
    const EncodedDelta keyframe = EncodeDelta(
        DeltaMode::kKeyframe, prev_words, prev_bits, {}, 0);
    std::vector<uint64_t> out_words;
    ASSERT_TRUE(DecodeDelta(keyframe, {}, prev_bits, &out_words))
        << SketchKindName(kind);
    EXPECT_EQ(out_words, prev_words) << SketchKindName(kind);

    for (uint64_t i = 0; i < 100; ++i) {
      sketch->Update((7 * i) % spec.n, -int64_t(1 + i % 3));
    }
    const auto [cur_words, cur_bits] = StateOf(*sketch);
    // The size WindowManager::Rehydrate expects of every record: updates
    // never change how many bits a kind serializes to.
    EXPECT_EQ(cur_bits, prev_bits) << SketchKindName(kind);

    // Best-of (XOR/SUB) and each explicit mode invert bit-exactly.
    for (const EncodedDelta& delta :
         {EncodeBestDelta(cur_words, cur_bits, prev_words, prev_bits),
          EncodeDelta(DeltaMode::kXor, cur_words, cur_bits, prev_words,
                      prev_bits),
          EncodeDelta(DeltaMode::kSub, cur_words, cur_bits, prev_words,
                      prev_bits)}) {
      out_words.clear();
      ASSERT_TRUE(DecodeDelta(delta, prev_words, cur_bits, &out_words))
          << SketchKindName(kind);
      EXPECT_EQ(out_words, cur_words) << SketchKindName(kind);
    }
  }
}

void ExpectOracleDelta(const std::vector<uint64_t>& cur, size_t cur_bits,
                       const std::vector<uint64_t>& prev, size_t prev_bits,
                       const std::string& what) {
  std::vector<uint8_t> want[3];
  for (const DeltaMode mode :
       {DeltaMode::kKeyframe, DeltaMode::kXor, DeltaMode::kSub}) {
    const EncodedDelta delta =
        EncodeDelta(mode, cur, cur_bits, prev, prev_bits);
    want[int(mode)] =
        OracleCompress(OracleDifference(mode, cur, cur_bits, prev));
    ASSERT_EQ(delta.bytes, want[int(mode)]) << what << "mode " << int(mode);
    EXPECT_EQ(delta.raw_bits, cur_bits) << what;
  }
  if (prev.empty()) return;
  // The smaller of the two differences, ties to kXor.
  const size_t xor_size = want[int(DeltaMode::kXor)].size();
  const size_t sub_size = want[int(DeltaMode::kSub)].size();
  const DeltaMode smaller =
      sub_size < xor_size ? DeltaMode::kSub : DeltaMode::kXor;
  const EncodedDelta best = EncodeBestDelta(cur, cur_bits, prev, prev_bits);
  EXPECT_EQ(best.mode, smaller) << what;
  EXPECT_EQ(best.bytes, want[int(smaller)]) << what;
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeDelta(best, prev, cur_bits, &decoded)) << what;
  EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), cur.begin())) << what;
}

// Word streams the encoder reads without a byte buffer: predecessors
// shorter than the state (zero-padded), a state whose last word is
// partial, and differences of every density.
TEST(DeltaCodec, EncoderMatchesTheByteLoop) {
  uint64_t state = 0xD1B54A32D192ED03ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const size_t words = 1 + size_t(next() % 90);
    std::vector<uint64_t> prev(words);
    for (uint64_t& w : prev) w = next() % 4 == 0 ? 0 : next() >> (next() % 64);
    std::vector<uint64_t> cur = prev;
    const uint64_t touch_per_16 = next() % 17;
    for (uint64_t& w : cur) {
      if (next() % 16 >= touch_per_16) continue;
      w += next() % 3 == 0 ? -(next() % 5) : next() % 300;
    }
    const size_t cur_bits = 64 * words - size_t(next() % 64);
    if (cur_bits % 64 != 0) cur.back() &= (uint64_t{1} << (cur_bits % 64)) - 1;
    const size_t prev_words = size_t(next() % (words + 2));
    std::vector<uint64_t> shorter(prev.begin(),
                                  prev.begin() + std::min(prev_words, words));
    ExpectOracleDelta(cur, cur_bits, shorter, 64 * shorter.size(),
                      Say("trial", trial));
  }
}

// Each kind's own checkpoint stream: three seals, a delta against each
// predecessor, as the spill ring writes them.
TEST(DeltaCodec, CheckpointStreamsOfEveryKindMatchTheByteLoop) {
  for (uint32_t k = 1; k <= 21; ++k) {
    const SketchKind kind = SketchKind(k);
    const SketchSpec spec = SpecFor(kind);
    auto sketch = MakeSketch(spec);
    ASSERT_NE(sketch, nullptr) << SketchKindName(kind);
    auto prev = StateOf(*sketch);
    for (uint64_t seal = 0; seal < 3; ++seal) {
      for (uint64_t i = 0; i < 12 * (seal + 1); ++i) {
        sketch->Update((13 * i + 7 * seal) % spec.n,
                       (i + seal) % 4 == 0 ? -1 : int64_t(1 + i % 3));
      }
      const auto cur = StateOf(*sketch);
      ExpectOracleDelta(cur.first, cur.second, prev.first, prev.second,
                        Say(SketchKindName(kind), "seal", seal));
      prev = cur;
    }
  }
}

TEST(DeltaCodec, RejectsCorruptDeltas) {
  std::vector<uint64_t> words = {0x123456789ABCDEF0ull, 42, 0, 7};
  const size_t bits = 4 * 64;
  EncodedDelta delta = EncodeBestDelta(words, bits, {}, 0);
  std::vector<uint64_t> out_words;
  ASSERT_TRUE(DecodeDelta(delta, {}, bits, &out_words));
  EXPECT_EQ(out_words, words);

  EncodedDelta bad_mode = delta;
  bad_mode.mode = DeltaMode(0x7F);
  EXPECT_FALSE(DecodeDelta(bad_mode, {}, bits, &out_words));

  EncodedDelta truncated = delta;
  ASSERT_FALSE(truncated.bytes.empty());
  truncated.bytes.pop_back();
  EXPECT_FALSE(DecodeDelta(truncated, {}, bits, &out_words));

  // The image parsers' hostile table, as far as a delta record can carry
  // it: bit counts that round past 2^64, one word more than the payload
  // decodes to (the caller expecting it too), and a trailing byte.
  for (const uint64_t claimed : {~uint64_t{0}, ~uint64_t{0} - 62}) {
    EncodedDelta lying = delta;
    lying.raw_bits = claimed;
    EXPECT_FALSE(DecodeDelta(lying, {}, bits, &out_words)) << claimed;
  }
  EncodedDelta one_word_past = delta;
  one_word_past.raw_bits += 64;
  EXPECT_FALSE(DecodeDelta(one_word_past, {}, bits, &out_words));
  EXPECT_FALSE(DecodeDelta(one_word_past, {}, bits + 64, &out_words));
  EncodedDelta trailing = delta;
  trailing.bytes.push_back(0);
  EXPECT_FALSE(DecodeDelta(trailing, {}, bits, &out_words));
  EXPECT_EQ(out_words, words);  // every rejection left the output alone
}

// raw_bits is read from disk. 2^64 - 1 once rounded to zero words, so an
// empty record decoded "ok" to a state WindowManager::Rehydrate then
// CHECK-aborted on.
TEST(DeltaCodec, WrappingRawBitsIsRejected) {
  EncodedDelta empty;
  empty.raw_bits = ~uint64_t{0};
  std::vector<uint64_t> out_words;
  EXPECT_FALSE(DecodeDelta(empty, {}, 4 * 64, &out_words));
  EXPECT_TRUE(out_words.empty());
}

// raw_bits = 2^50 over a 2-byte payload threw std::bad_alloc out of the
// decompressor's reserve; the claim is now checked before any reserve.
TEST(DeltaCodec, HugeRawBitsIsRejectedBeforeAnyReserve) {
  EncodedDelta huge;
  huge.raw_bits = uint64_t{1} << 50;
  huge.bytes = {0, 0};
  std::vector<uint64_t> out_words;
  bool decoded = true;
  EXPECT_NO_THROW(decoded = DecodeDelta(huge, {}, 4 * 64, &out_words));
  EXPECT_FALSE(decoded);
}

TEST(DeltaCodec, HotSetCheckpointsCompressFourfold) {
  // The bench's gated regime, scaled down: an lp_sampler over a stream
  // whose updates concentrate on a small working set per interval. Only
  // the touched counters change between checkpoints, so deltas compress
  // by the untouched fraction.
  SketchSpec spec;
  spec.kind = SketchKind::kLpSampler;
  spec.n = 1 << 16;
  spec.p = 1.0;
  spec.eps = 0.25;
  spec.repetitions = 8;
  spec.seed = 10;
  auto sketch = MakeSketch(spec);
  ASSERT_NE(sketch, nullptr);

  const uint64_t interval = 1 << 10;
  const std::vector<stream::Update> updates =
      stream::HotSetTurnstile(spec.n, 8 * interval, /*hot_keys=*/8,
                              /*epoch=*/interval, /*max_abs=*/100, 77);
  auto prev = StateOf(*sketch);
  uint64_t raw_bytes = 0, delta_bytes = 0;
  for (uint64_t c = 0; c < 8; ++c) {
    for (uint64_t i = 0; i < interval; ++i) {
      const stream::Update& u = updates[c * interval + i];
      sketch->Update(u.index, u.delta);
    }
    const auto cur = StateOf(*sketch);
    const EncodedDelta delta =
        EncodeBestDelta(cur.first, cur.second, prev.first, prev.second);
    raw_bytes += (cur.second + 7) / 8;
    delta_bytes += delta.bytes.size();
    prev = cur;
  }
  ASSERT_GT(delta_bytes, 0u);
  const double ratio = double(raw_bytes) / double(delta_bytes);
  EXPECT_GE(ratio, 4.0) << "compression ratio " << ratio;
}

// ------------------------------------------------------------- the store --

// The record checksum reads eight bytes a step; its values are the
// bytewise table's, which every sealed segment on disk was written with.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CheckpointStoreTest, Crc32IsTheBytewiseCrc) {
  const char check[] = "123456789";
  EXPECT_EQ(persist::Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(nullptr, 0), 0u);
  std::vector<uint8_t> bytes(8 + 64);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = uint8_t(i * 37 + 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 64; ++size) {
      EXPECT_EQ(persist::Crc32(bytes.data() + offset, size),
                BytewiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(CheckpointStoreTest, AppendReadReopen) {
  const std::string dir = MakeTempDir();
  {
    auto opened = CheckpointStore::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    CheckpointStore& store = *opened.value();
    for (int i = 0; i < 5; ++i) {
      const std::string payload = "alpha-" + std::to_string(i);
      ASSERT_TRUE(
          store.Append("a", uint8_t(i % 3), payload.data(), payload.size())
              .ok());
    }
    const std::string other = "beta-payload";
    ASSERT_TRUE(store.Append("b", 9, other.data(), other.size()).ok());
    ASSERT_TRUE(store.Sync().ok());
    EXPECT_EQ(store.RecordCount("a"), 5u);
    EXPECT_EQ(store.RecordCount("b"), 1u);
    EXPECT_EQ(store.RecordCount("missing"), 0u);
  }
  // Reopen: the index is rebuilt from the segment scan.
  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CheckpointStore& store = *reopened.value();
  EXPECT_EQ(store.recovered_truncated_bytes(), 0u);
  EXPECT_EQ(store.RecordCount("a"), 5u);
  EXPECT_EQ(store.Keys().size(), 2u);
  for (size_t i = 0; i < 5; ++i) {
    auto payload = store.ReadRecord("a", i);
    ASSERT_TRUE(payload.ok());
    const std::string expect = "alpha-" + std::to_string(i);
    EXPECT_EQ(std::string(payload->begin(), payload->end()), expect);
    EXPECT_EQ(store.RecordKind("a", i), uint8_t(i % 3));
  }
  EXPECT_EQ(store.KeyBytes("a"), 5 * 7u);
  EXPECT_EQ(store.RecordKind("a", 99), 0xFF);
  EXPECT_FALSE(store.ReadRecord("a", 99).ok());
  // Appending after a reopen extends the same key streams.
  const std::string more = "alpha-5";
  ASSERT_TRUE(store.Append("a", 1, more.data(), more.size()).ok());
  EXPECT_EQ(store.RecordCount("a"), 6u);
  // A segment that shrank under the store is a short read, not a
  // message built from a stale errno.
  const std::string active = dir + "/seg-000001.log.open";
  struct stat st;
  ASSERT_EQ(::stat(active.c_str(), &st), 0);
  ASSERT_EQ(::truncate(active.c_str(), st.st_size - 3), 0);
  auto cut = store.ReadRecord("a", 5);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().message(), "short read " + active);
  RemoveTree(dir);
}

std::string OnlySegment(const std::string& dir) {
  // The store names its active segment seg-NNNNNN.log.open.
  return dir + "/seg-000000.log.open";
}

TEST(CheckpointStoreTest, TornTailIsTruncatedAtRecovery) {
  const std::string dir = MakeTempDir();
  {
    auto opened = CheckpointStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    const std::string payload(100, 'x');
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          opened.value()->Append("k", 1, payload.data(), payload.size()).ok());
    }
    ASSERT_TRUE(opened.value()->Sync().ok());
  }
  // Simulate a crash mid-append: a partial frame at the tail.
  std::FILE* f = std::fopen(OnlySegment(dir).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint8_t torn[] = {0x40, 0x00, 0x00, 0x00, 0xAA, 0xBB};
  std::fwrite(torn, 1, sizeof(torn), f);
  std::fclose(f);

  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovered_truncated_bytes(), sizeof(torn));
  EXPECT_EQ(reopened.value()->RecordCount("k"), 3u);
  auto last = reopened.value()->ReadRecord("k", 2);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->size(), 100u);
  RemoveTree(dir);
}

TEST(CheckpointStoreTest, CorruptRecordDropsTheSuffix) {
  const std::string dir = MakeTempDir();
  std::vector<uint64_t> sizes;
  {
    auto opened = CheckpointStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 4; ++i) {
      const std::string payload(50 + size_t(i), char('a' + i));
      ASSERT_TRUE(
          opened.value()->Append("k", 1, payload.data(), payload.size()).ok());
    }
    ASSERT_TRUE(opened.value()->Sync().ok());
  }
  // Flip one byte inside record 2's payload: its CRC no longer matches,
  // so recovery keeps records 0-1 and drops everything from the tear.
  std::FILE* f = std::fopen(OnlySegment(dir).c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const long header = 8;
  const long record0 = 8 + 3 + 1 + 50;
  const long record1 = 8 + 3 + 1 + 51;
  std::fseek(f, header + record0 + record1 + 8 + 3 + 1 + 10, SEEK_SET);
  std::fputc('Z', f);
  std::fclose(f);

  auto reopened = CheckpointStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->RecordCount("k"), 2u);
  EXPECT_GT(reopened.value()->recovered_truncated_bytes(), 0u);
  auto kept = reopened.value()->ReadRecord("k", 1);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(std::string(kept->begin(), kept->end()), std::string(51, 'b'));
  RemoveTree(dir);
}

/// The store's segment files in `dir`, oldest first.
std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("seg-", 0) == 0) names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(CheckpointStoreTest, RollsSegmentsAndReopensAcrossThem) {
  const std::string dir = MakeTempDir();
  CheckpointStore::Options options;
  options.max_segment_bytes = 300;  // ~55-byte frames: six per segment
  // Record r goes under key "a" or "b" alternately; its payload names it.
  std::vector<std::string> want[2];
  auto append = [&](CheckpointStore& store, int r) {
    const std::string payload =
        "record-" + std::to_string(r) + std::string(36, char('a' + r % 26));
    want[r % 2].push_back(payload);
    return store.Append(r % 2 ? "b" : "a", uint8_t(r), payload.data(),
                        payload.size());
  };
  auto expect_every_record = [&](const CheckpointStore& store) {
    for (int k = 0; k < 2; ++k) {
      const std::string key = k ? "b" : "a";
      ASSERT_EQ(store.RecordCount(key), want[k].size()) << key;
      for (size_t i = 0; i < want[k].size(); ++i) {
        auto got = store.ReadRecord(key, i);
        ASSERT_TRUE(got.ok()) << key << "[" << i << "]";
        EXPECT_EQ(std::string(got->begin(), got->end()), want[k][i])
            << key << "[" << i << "]";
      }
    }
  };
  {
    auto opened = CheckpointStore::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (int r = 0; r < 13; ++r) ASSERT_TRUE(append(*opened.value(), r).ok());
    ASSERT_TRUE(opened.value()->Sync().ok());
    // Rolled twice: two sealed segments, and only the newest is open.
    const auto files = SegmentFiles(dir);
    ASSERT_GE(files.size(), 3u);
    for (size_t f = 0; f + 1 < files.size(); ++f) {
      EXPECT_TRUE(EndsWith(files[f], ".log")) << files[f];
    }
    EXPECT_TRUE(EndsWith(files.back(), ".log.open")) << files.back();
    expect_every_record(*opened.value());
  }
  {
    // A clean reopen rebuilds the index from every segment, and appends
    // go to a fresh segment after them.
    auto reopened = CheckpointStore::Open(dir, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->recovered_truncated_bytes(), 0u);
    expect_every_record(*reopened.value());
    const size_t sealed = SegmentFiles(dir).size();
    for (int r = 13; r < 16; ++r) {
      ASSERT_TRUE(append(*reopened.value(), r).ok());
    }
    ASSERT_TRUE(reopened.value()->Sync().ok());
    const auto files = SegmentFiles(dir);
    ASSERT_EQ(files.size(), sealed + 1);
    EXPECT_TRUE(EndsWith(files.back(), ".log.open")) << files.back();
    expect_every_record(*reopened.value());
  }
  // Tear the active segment's last record, as a crash mid-append would.
  const std::string active = dir + "/" + SegmentFiles(dir).back();
  struct stat st {};
  ASSERT_EQ(::stat(active.c_str(), &st), 0);
  ASSERT_EQ(::truncate(active.c_str(), st.st_size - 5), 0);
  // Record 15 (key "b") was the last: frame header, kind, key, payload.
  const uint64_t torn_frame = 8 + 3 + 1 + want[1].back().size();
  want[1].pop_back();

  auto recovered = CheckpointStore::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->recovered_truncated_bytes(), torn_frame - 5);
  expect_every_record(*recovered.value());
  ASSERT_TRUE(append(*recovered.value(), 16).ok());
  expect_every_record(*recovered.value());
  RemoveTree(dir);
}

// -------------------------------------------------------- window spill --

void ExpectSameWindow(const stream::WindowManager& all_ram,
                      const stream::WindowManager& spilled, uint64_t w) {
  const auto ram = all_ram.WindowSketch(w);
  const auto hydrated = spilled.WindowSketch(w);
  EXPECT_EQ(ram.start, hydrated.start) << "w=" << w;
  EXPECT_EQ(ram.length, hydrated.length) << "w=" << w;
  const auto ram_state = StateOf(*ram.sketch);
  const auto hydrated_state = StateOf(*hydrated.sketch);
  EXPECT_EQ(ram_state.second, hydrated_state.second) << "w=" << w;
  EXPECT_EQ(ram_state.first, hydrated_state.first) << "w=" << w;
}

TEST(WindowSpill, BitIdenticalToAllRamRing) {
  const std::string dir = MakeTempDir();
  auto opened = CheckpointStore::Open(dir);
  ASSERT_TRUE(opened.ok());

  SketchSpec spec;
  spec.kind = SketchKind::kCountSketch;
  spec.n = 1 << 12;
  spec.rows = 5;
  spec.buckets = 64;
  spec.seed = 3;
  auto ram_sketch = MakeSketch(spec);
  auto spill_sketch = MakeSketch(spec);

  stream::WindowManager::Options options;
  options.checkpoint_interval = 256;
  stream::WindowManager all_ram(ram_sketch.get(), options);
  stream::WindowManager spilling(spill_sketch.get(), options);
  stream::WindowManager::SpillOptions spill;
  spill.store = opened.value().get();
  spill.stream_key = "w:test";
  spill.resident_checkpoints = 2;
  spill.keyframe_interval = 4;
  spilling.AttachSpill(spill);

  const uint64_t total = 8192;
  const auto updates = stream::UniformTurnstile(spec.n, total, 100, 99);
  all_ram.PushBatch(updates.data(), updates.size());
  spilling.PushBatch(updates.data(), updates.size());

  ASSERT_TRUE(spilling.last_spill_error().ok())
      << spilling.last_spill_error().ToString();
  EXPECT_GT(spilling.spilled_count(), 0u);
  EXPECT_EQ(spilling.checkpoint_count(), all_ram.checkpoint_count());
  EXPECT_GT(spilling.SpilledBytes(), 0u);
  // CheckpointBytes counts RESIDENT state only — the spilled majority of
  // the ring must not be billed as RAM.
  EXPECT_LT(spilling.CheckpointBytes(), all_ram.CheckpointBytes());
  EXPECT_EQ(spilling.oldest_start(), all_ram.oldest_start());

  // Window widths on and OFF checkpoint boundaries, including ones whose
  // rounded start lands on a rehydrated (spilled) checkpoint.
  for (const uint64_t w :
       {uint64_t(0), uint64_t(1), uint64_t(256), uint64_t(300),
        uint64_t(1000), uint64_t(4096), uint64_t(5000), uint64_t(7937),
        total, uint64_t(99999)}) {
    ExpectSameWindow(all_ram, spilling, w);
  }
  RemoveTree(dir);
}

TEST(WindowSpill, MaxCheckpointsEvictsOldestSpilledFirst) {
  const std::string dir = MakeTempDir();
  auto opened = CheckpointStore::Open(dir);
  ASSERT_TRUE(opened.ok());

  SketchSpec spec;
  spec.kind = SketchKind::kCountMin;
  spec.n = 1 << 10;
  spec.rows = 4;
  spec.buckets = 32;
  spec.seed = 5;
  auto sketch = MakeSketch(spec);

  stream::WindowManager::Options options;
  options.checkpoint_interval = 128;
  options.max_checkpoints = 6;
  stream::WindowManager manager(sketch.get(), options);
  stream::WindowManager::SpillOptions spill;
  spill.store = opened.value().get();
  spill.stream_key = "w:evict";
  spill.resident_checkpoints = 2;
  spill.keyframe_interval = 3;
  manager.AttachSpill(spill);

  const auto updates = stream::UniformTurnstile(spec.n, 20 * 128, 50, 11);
  manager.PushBatch(updates.data(), updates.size());
  ASSERT_TRUE(manager.last_spill_error().ok());

  // The bound covers resident + spilled together; the oldest SPILLED
  // checkpoints were evicted first, so the ring kept its newest budget.
  EXPECT_EQ(manager.checkpoint_count(), 6u);
  EXPECT_EQ(manager.spilled_count(), 4u);
  // 21 seal positions total (0..20*128); 6 retained => oldest is #15.
  EXPECT_EQ(manager.oldest_start(), (21 - 6) * 128u);

  // A window reaching past the evicted prefix clamps to the oldest
  // RETAINED boundary — which is spilled, so the answer rehydrates.
  const auto window = manager.WindowSketch(20 * 128);
  EXPECT_EQ(window.start, manager.oldest_start());
  EXPECT_EQ(window.start + window.length, manager.updates_seen());
  RemoveTree(dir);
}

// Retention used to drop spilled entries without regard to the chain a
// retained entry decodes from: once the selectable front was not a
// keyframe, Rehydrate walked back past the front of the deque and
// CHECK-aborted. With the server's defaults (4 resident, a keyframe every
// 16 records) and max_checkpoints 8, the sweep meets fronts that are
// keyframes and fronts that are not.
TEST(WindowSpill, RetentionKeepsTheChainBackToAKeyframe) {
  const std::string dir = MakeTempDir();
  auto opened = CheckpointStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  SketchSpec spec;
  spec.kind = SketchKind::kCountMin;
  spec.n = 1 << 10;
  spec.rows = 5;
  spec.buckets = 64;
  spec.seed = 17;
  stream::WindowManager::Options options;
  options.checkpoint_interval = 100;
  options.max_checkpoints = 8;
  const auto updates = stream::UniformTurnstile(spec.n, 3000, 50, 23);
  size_t fronts_off_keyframe = 0;
  for (size_t total = 100; total <= updates.size(); total += 100) {
    auto ram_sketch = MakeSketch(spec);
    auto spill_sketch = MakeSketch(spec);
    stream::WindowManager all_ram(ram_sketch.get(), options);
    stream::WindowManager spilling(spill_sketch.get(), options);
    stream::WindowManager::SpillOptions spill;
    spill.store = opened.value().get();
    spill.stream_key = "w:chain" + std::to_string(total);
    spill.resident_checkpoints = 4;
    spill.keyframe_interval = 16;
    spilling.AttachSpill(spill);
    all_ram.PushBatch(updates.data(), total);
    spilling.PushBatch(updates.data(), total);
    ASSERT_TRUE(spilling.last_spill_error().ok());
    EXPECT_EQ(spilling.checkpoint_count(), all_ram.checkpoint_count());
    EXPECT_EQ(spilling.oldest_start(), all_ram.oldest_start());
    // Spill record j is a keyframe when j % 16 == 0, and the selectable
    // front is record seals - 8 (4 resident, 4 spilled selectable).
    const size_t seals = total / 100 + 1;
    if (seals > 8 && (seals - 8) % 16 != 0) ++fronts_off_keyframe;
    const uint64_t widths[] = {0, 150, 650, 800, total, 99999};
    for (const uint64_t w : widths) ExpectSameWindow(all_ram, spilling, w);
  }
  EXPECT_GT(fronts_off_keyframe, 0u);
  RemoveTree(dir);
}

/// The spill probe of the durability contract: count_min 5x64,
/// checkpoint interval 100, one resident checkpoint, 1-byte segments (a
/// segment per record), 600 updates; then the store directory vanishes,
/// or with `lost_record` >= 0 only that record's segment.
struct VanishingStoreProbe {
  std::string dir = MakeTempDir();
  std::unique_ptr<CheckpointStore> store;
  SketchSpec spec;
  std::unique_ptr<LinearSketch> ram_sketch, spill_sketch;
  std::unique_ptr<stream::WindowManager> all_ram, spilling;
  std::vector<stream::Update> updates;

  explicit VanishingStoreProbe(int lost_record = -1) {
    CheckpointStore::Options store_options;
    store_options.max_segment_bytes = 1;
    auto opened = CheckpointStore::Open(dir, store_options);
    EXPECT_TRUE(opened.ok());
    store = std::move(opened.value());
    spec.kind = SketchKind::kCountMin;
    spec.n = 1 << 10;
    spec.rows = 5;
    spec.buckets = 64;
    spec.seed = 29;
    ram_sketch = MakeSketch(spec);
    spill_sketch = MakeSketch(spec);
    stream::WindowManager::Options options;
    options.checkpoint_interval = 100;
    all_ram =
        std::make_unique<stream::WindowManager>(ram_sketch.get(), options);
    spilling =
        std::make_unique<stream::WindowManager>(spill_sketch.get(), options);
    stream::WindowManager::SpillOptions spill;
    spill.store = store.get();
    spill.stream_key = "w:probe";
    spill.resident_checkpoints = 1;
    spilling->AttachSpill(spill);
    updates = stream::UniformTurnstile(spec.n, 900, 50, 31);
    Push(0, 600);
    EXPECT_EQ(spilling->spilled_count(), 6u);
    if (lost_record < 0) {
      RemoveTree(dir);
      return;
    }
    char segment[32];
    std::snprintf(segment, sizeof(segment), "/seg-%06d.log", lost_record);
    EXPECT_TRUE(std::remove((dir + segment).c_str()) == 0 ||
                std::remove((dir + segment + ".open").c_str()) == 0);
  }
  void Push(size_t from, size_t to) {
    all_ram->PushBatch(updates.data() + from, to - from);
    spilling->PushBatch(updates.data() + from, to - from);
  }
};

// After the directory went, the next seal's append failed: spilling
// stopped and the store pointer was dropped, but the six spilled entries
// stayed, and a window reaching them dereferenced the null store
// (segfault). The failed append now forgets them, so the window clamps
// to the resident ring.
TEST(WindowSpill, FailedAppendForgetsTheSpilledEntries) {
  VanishingStoreProbe probe;
  probe.Push(600, 900);
  EXPECT_FALSE(probe.spilling->last_spill_error().ok());
  EXPECT_EQ(probe.spilling->spilled_count(), 0u);
  EXPECT_EQ(probe.spilling->oldest_start(), 600u);
  const auto window = probe.spilling->WindowSketch(850);
  EXPECT_EQ(window.start, 600u);
  EXPECT_EQ(window.length, 300u);
  // The clamped answer is exactly the all-RAM ring's window from 600.
  const auto want = probe.all_ram->WindowSketch(300);
  ASSERT_EQ(want.start, 600u);
  EXPECT_EQ(StateOf(*window.sketch), StateOf(*want.sketch));
}

// With no later seal, the query itself met the missing segments and
// aborted on the failed read. A record that cannot be read now makes
// the window clamp to the oldest checkpoint that can still be built, and
// the unreadable entries are forgotten at that first failed read: they
// were still counted and re-read by every later query.
TEST(WindowSpill, UnreadableSpilledRecordClampsTheWindow) {
  VanishingStoreProbe probe;
  const auto window = probe.spilling->WindowSketch(850);
  EXPECT_EQ(window.start, 600u);
  EXPECT_EQ(window.length, 0u);
  EXPECT_EQ(probe.spilling->oldest_start(), 600u);
  EXPECT_EQ(probe.spilling->checkpoint_count(), 1u);
  EXPECT_EQ(probe.spilling->spilled_count(), 0u);
  const auto want = probe.all_ram->WindowSketch(0);
  ASSERT_EQ(want.start, 600u);
  EXPECT_EQ(StateOf(*window.sketch), StateOf(*want.sketch));
}

// Forgetting the newest spilled record restarts the spill chain at a
// keyframe: the next record must not be a delta against a checkpoint no
// longer listed, or every window from it decodes against the wrong base.
TEST(WindowSpill, ForgettingTheNewestRecordRestartsTheChain) {
  VanishingStoreProbe probe(/*lost_record=*/5);
  EXPECT_EQ(probe.spilling->WindowSketch(100).start, 600u);
  EXPECT_EQ(probe.spilling->spilled_count(), 5u);
  probe.Push(600, 900);
  EXPECT_EQ(probe.spilling->spilled_count(), 8u);
  for (const uint64_t w : {0, 100, 200, 300}) {
    ExpectSameWindow(*probe.all_ram, *probe.spilling, w);
  }
  RemoveTree(probe.dir);
}

// --------------------------------------------------- server persistence --

server::SketchConfig WindowedConfig(uint64_t seed) {
  server::SketchConfig config;
  config.spec.kind = SketchKind::kCsHeavyHitters;
  config.spec.n = 1 << 10;
  config.spec.p = 1.0;
  config.spec.phi = 0.05;
  config.spec.seed = seed;
  config.window_checkpoint = 512;
  return config;
}

std::vector<stream::Update> TenantStream(uint64_t tenant, size_t count) {
  std::vector<stream::Update> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = (tenant + 1) * 0x9E3779B97F4A7C15ull + i;
    h ^= h >> 31;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    updates.push_back({i % 3 == 0 ? tenant % 1024 : h % 1024, +1});
  }
  return updates;
}

server::Client MustConnect(const server::Server& server) {
  auto client = server::Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client.value());
}

TEST(ServerPersist, CleanRestartRestoresEveryTenant) {
  const std::string dir = MakeTempDir();
  server::Server::Options options;
  options.port = 0;
  options.data_dir = dir;
  options.snapshot_interval_ms = 0;  // rely on the final Stop() snapshot

  QueryResult before0, before1;
  server::SnapshotBlob blob_before;
  {
    server::Server daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.restored_tenants(), 0u);
    server::Client client = MustConnect(daemon);
    ASSERT_TRUE(client.Create("acme", "clicks", WindowedConfig(1)).ok());
    ASSERT_TRUE(client.Create("umbrella", "errors", WindowedConfig(2)).ok());
    ASSERT_TRUE(client.Ingest("acme", "clicks", TenantStream(7, 2000)).ok());
    ASSERT_TRUE(
        client.Ingest("umbrella", "errors", TenantStream(8, 1500)).ok());
    auto q0 = client.Query("acme", "clicks");
    auto q1 = client.Query("umbrella", "errors");
    ASSERT_TRUE(q0.ok() && q1.ok());
    before0 = *q0;
    before1 = *q1;
    auto blob = client.Snapshot("acme", "clicks");
    ASSERT_TRUE(blob.ok());
    blob_before = *blob;
    daemon.Stop();
  }
  {
    server::Server daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.restored_tenants(), 2u);
    server::Client client = MustConnect(daemon);
    auto q0 = client.Query("acme", "clicks");
    auto q1 = client.Query("umbrella", "errors");
    ASSERT_TRUE(q0.ok() && q1.ok());
    EXPECT_EQ(*q0, before0);
    EXPECT_EQ(*q1, before1);
    // The re-snapshot is byte-identical: same config, same update count,
    // same serialized state.
    auto blob = client.Snapshot("acme", "clicks");
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(blob->updates_seen, blob_before.updates_seen);
    EXPECT_EQ(blob->state_bits, blob_before.state_bits);
    EXPECT_EQ(blob->state_words, blob_before.state_words);
    EXPECT_EQ(blob->config.spec, blob_before.config.spec);
    // A restored tenant keeps serving ingest (and re-persists on stop).
    ASSERT_TRUE(client.Ingest("acme", "clicks", TenantStream(7, 100)).ok());
    daemon.Stop();
  }
  RemoveTree(dir);
}

// The retention repro through the daemon: the server's spill defaults
// (4 resident checkpoints, a keyframe every 16 records) and a tenant
// with window_checkpoint 100 and max_checkpoints 8. At 2000 updates,
// WINDOW(650) aborted the process. Every answer must equal an all-RAM
// ring's (a server without a data directory) with the same bound.
TEST(ServerPersist, WindowAfterRetentionPassesAKeyframeMatchesAllRamRing) {
  const std::string dir = MakeTempDir();
  server::Server::Options durable_options;
  durable_options.port = 0;
  durable_options.data_dir = dir;
  durable_options.snapshot_interval_ms = 0;
  server::Server::Options ram_options;
  ram_options.port = 0;
  server::Server durable(durable_options), ram(ram_options);
  ASSERT_TRUE(durable.Start().ok());
  ASSERT_TRUE(ram.Start().ok());
  server::Client to_durable = MustConnect(durable);
  server::Client to_ram = MustConnect(ram);
  server::SketchConfig config;
  config.spec.kind = SketchKind::kCountMin;
  config.spec.n = 1 << 10;
  config.spec.rows = 5;
  config.spec.buckets = 64;
  config.spec.seed = 37;
  config.window_checkpoint = 100;
  config.max_checkpoints = 8;
  ASSERT_TRUE(to_durable.Create("t", "w", config).ok());
  ASSERT_TRUE(to_ram.Create("t", "w", config).ok());
  const auto updates = stream::UniformTurnstile(config.spec.n, 3000, 50, 41);
  for (size_t done = 0; done < updates.size(); done += 250) {
    const std::vector<stream::Update> batch(updates.begin() + done,
                                            updates.begin() + done + 250);
    ASSERT_TRUE(to_durable.Ingest("t", "w", batch).ok());
    ASSERT_TRUE(to_ram.Ingest("t", "w", batch).ok());
    for (const uint64_t w : {uint64_t(650), uint64_t(99999)}) {
      auto got = to_durable.Window("t", "w", w, /*want_state=*/true);
      auto want = to_ram.Window("t", "w", w, /*want_state=*/true);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const std::string at = Say("after", done + 250, "w", w);
      EXPECT_EQ(got->start, want->start) << at;
      EXPECT_EQ(got->length, want->length) << at;
      EXPECT_EQ(got->result, want->result) << at;
      EXPECT_EQ(got->state_words, want->state_words) << at;
    }
  }
  durable.Stop();
  ram.Stop();
  RemoveTree(dir);
}

TEST(ServerPersist, IdleTenantsEvictAndRehydrateLazily) {
  const std::string dir = MakeTempDir();
  server::Server::Options options;
  options.port = 0;
  options.data_dir = dir;
  options.snapshot_interval_ms = 25;
  options.idle_timeout_ms = 100;
  server::Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  server::Client client = MustConnect(daemon);
  ASSERT_TRUE(client.Create("idle", "s", WindowedConfig(3)).ok());
  ASSERT_TRUE(client.Ingest("idle", "s", TenantStream(5, 1200)).ok());
  auto before = client.Query("idle", "s");
  ASSERT_TRUE(before.ok());

  // Wait until the background pass has evicted the tenant (observable
  // through STATS: still listed, but no longer resident).
  bool evicted = false;
  for (int tries = 0; tries < 100 && !evicted; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    for (const server::TenantPersistStats& tenant : stats->per_tenant) {
      if (tenant.name == "idle/s" && !tenant.resident) {
        evicted = true;
        EXPECT_GT(tenant.spilled_bytes, 0u);
      }
    }
  }
  ASSERT_TRUE(evicted) << "tenant never evicted";

  // The next touch rehydrates transparently and answers identically.
  auto after = client.Query("idle", "s");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *before);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  bool resident = false;
  for (const server::TenantPersistStats& tenant : stats->per_tenant) {
    if (tenant.name == "idle/s" && tenant.resident) resident = true;
  }
  EXPECT_TRUE(resident);
  daemon.Stop();
  RemoveTree(dir);
}

// TSan does not support the fork-with-threads pattern this test needs
// (the child SIGKILLs before doing anything the sanitizer would check
// anyway); the ASan job and the plain jobs run it.
#if defined(__SANITIZE_THREAD__)
#define LPS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LPS_UNDER_TSAN 1
#endif
#endif

#ifndef LPS_UNDER_TSAN

TEST(ServerPersist, SigkilledDaemonRebootsAnsweringIdentically) {
  const std::string dir = MakeTempDir();
  int ports[2];
  ASSERT_EQ(::pipe(ports), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Daemon process: serve with aggressive background snapshots until
    // the parent SIGKILLs us. _exit on any failure; never return into
    // gtest from the child.
    ::close(ports[0]);
    server::Server::Options options;
    options.port = 0;
    options.data_dir = dir;
    options.snapshot_interval_ms = 20;
    server::Server daemon(options);
    if (!daemon.Start().ok()) ::_exit(3);
    const int port = daemon.port();
    if (::write(ports[1], &port, sizeof(port)) != ssize_t(sizeof(port))) {
      ::_exit(4);
    }
    for (;;) ::pause();
  }

  ::close(ports[1]);
  int port = 0;
  ASSERT_EQ(::read(ports[0], &port, sizeof(port)), ssize_t(sizeof(port)));
  ::close(ports[0]);

  QueryResult before;
  server::SnapshotBlob blob_before;
  {
    auto connected = server::Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    server::Client client = std::move(connected.value());
    ASSERT_TRUE(client.Create("crash", "s", WindowedConfig(9)).ok());
    ASSERT_TRUE(client.Ingest("crash", "s", TenantStream(4, 1700)).ok());
    auto query = client.Query("crash", "s");
    ASSERT_TRUE(query.ok());
    before = *query;
    auto blob = client.Snapshot("crash", "s");
    ASSERT_TRUE(blob.ok());
    blob_before = *blob;
    // Give the background snapshot thread time to persist the ingest
    // (several 20 ms passes), then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));

  // Reboot over the same data dir, in-process this time.
  server::Server::Options options;
  options.port = 0;
  options.data_dir = dir;
  server::Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.restored_tenants(), 1u);
  server::Client client = MustConnect(daemon);
  auto query = client.Query("crash", "s");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(*query, before);
  auto blob = client.Snapshot("crash", "s");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->updates_seen, blob_before.updates_seen);
  EXPECT_EQ(blob->state_words, blob_before.state_words);
  EXPECT_EQ(blob->state_bits, blob_before.state_bits);
  daemon.Stop();
  RemoveTree(dir);
}

#endif  // !LPS_UNDER_TSAN

// A tenant record whose snapshot no longer decodes — here cs_heavy_hitters
// state stamped with the pre-v3 layout version, the upgrade case, and
// records whose image is hostile — is reported at boot under its store
// key, and the other tenants restore.
TEST(ServerPersist, BootReportsTenantsItCannotRestore) {
  const std::string dir = MakeTempDir();
  server::Server::Options options;
  options.port = 0;
  options.data_dir = dir;
  options.snapshot_interval_ms = 0;  // rely on the final Stop() snapshot

  QueryResult good_before;
  {
    server::Server daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    server::Client client = MustConnect(daemon);
    ASSERT_TRUE(client.Create("good", "s", WindowedConfig(11)).ok());
    ASSERT_TRUE(client.Create("old", "s", WindowedConfig(12)).ok());
    ASSERT_TRUE(client.Ingest("good", "s", TenantStream(1, 900)).ok());
    ASSERT_TRUE(client.Ingest("old", "s", TenantStream(2, 900)).ok());
    auto query = client.Query("good", "s");
    ASSERT_TRUE(query.ok());
    good_before = *query;
    daemon.Stop();
  }

  // Append a copy of the "old" tenant's latest snapshot record with its
  // state's header version byte (bits 24..31: after the 16-bit magic and
  // the 8-bit kind) set to 2. Store payloads are bit-stream images.
  std::string old_key;
  std::vector<std::string> failing_keys;
  {
    auto opened = CheckpointStore::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    CheckpointStore& store = *opened.value();
    for (const std::string& store_key : store.Keys()) {
      if (store_key.compare(0, 2, "t:") != 0) continue;
      const size_t last = store.RecordCount(store_key) - 1;
      auto payload = store.ReadRecord(store_key, last);
      ASSERT_TRUE(payload.ok());
      auto image = ParseImage(payload->data(), payload->size());
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      BitReader& reader = image.value();
      const std::string tenant = server::ReadString(&reader);
      const std::string key = server::ReadString(&reader);
      server::SnapshotBlob blob = server::DeserializeSnapshot(&reader);
      if (tenant != "old") continue;
      old_key = store_key;
      ASSERT_EQ((blob.state_words[0] >> 24) & 0xff,
                SketchFormatVersion(SketchKind::kCsHeavyHitters));
      blob.state_words[0] =
          (blob.state_words[0] & ~(0xffull << 24)) | (2ull << 24);
      BitWriter writer;
      server::WriteString(&writer, tenant);
      server::WriteString(&writer, key);
      server::SerializeSnapshot(blob, &writer);
      std::vector<uint8_t> restamped(ImageSize(writer));
      WriteImage(writer, restamped.data());
      const uint8_t kind = store.RecordKind(store_key, last);
      ASSERT_TRUE(
          store.Append(store_key, kind, restamped.data(), restamped.size())
              .ok());
      failing_keys.push_back(store_key);
    }
    // The image parsers' hostile table as snapshot records: bit counts
    // that round past 2^64, one word past the delivered bytes, and a
    // trailing byte after a whole image.
    const auto image_of = [](uint64_t bits, size_t words) {
      std::vector<uint8_t> bytes(8 + 8 * words, 0);
      for (int i = 0; i < 8; ++i) bytes[i] = uint8_t(bits >> (8 * i));
      return bytes;
    };
    std::vector<uint8_t> trailing = image_of(130, 3);
    trailing.push_back(0);
    const std::vector<std::vector<uint8_t>> hostile = {
        image_of(~uint64_t{0}, 0), image_of(~uint64_t{0} - 62, 0),
        image_of(130, 2), trailing};
    for (size_t i = 0; i < hostile.size(); ++i) {
      const std::string store_key = "t:hostile/" + std::to_string(i);
      const std::vector<uint8_t>& bytes = hostile[i];
      // Record kind 1 is the registry's snapshot tag.
      ASSERT_TRUE(store.Append(store_key, 1, bytes.data(), bytes.size()).ok());
      failing_keys.push_back(store_key);
    }
    // Tenant keys are "t:<tenant_len>:<tenant><key>". A length prefix
    // that is not a number, is empty or overflows must not take STATS
    // down once boot has reported the key.
    for (const std::string store_key :
         {"t:a:b", "t::x", "t:99999999999999999999:x"}) {
      const std::vector<uint8_t> bytes = image_of(0, 0);
      ASSERT_TRUE(store.Append(store_key, 1, bytes.data(), bytes.size()).ok());
      failing_keys.push_back(store_key);
    }
    ASSERT_TRUE(store.Sync().ok());
  }
  ASSERT_FALSE(old_key.empty());

  server::Server daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.restored_tenants(), 1u);
  std::vector<std::string> failed_keys;
  for (const auto& failure : daemon.restore_failures()) {
    failed_keys.push_back(failure.store_key);
    EXPECT_EQ(failure.status.code(), Code::kInvalidArgument)
        << failure.store_key;
  }
  std::sort(failed_keys.begin(), failed_keys.end());
  std::sort(failing_keys.begin(), failing_keys.end());
  EXPECT_EQ(failed_keys, failing_keys);
  server::Client client = MustConnect(daemon);
  auto good = client.Query("good", "s");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(*good, good_before);
  EXPECT_FALSE(client.Query("old", "s").ok());
  auto stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  daemon.Stop();
  RemoveTree(dir);
}

// ------------------------------------------- atomic bit-file container --

TEST(AtomicBitFiles, WriteReportsFailureAndLeavesNoDebris) {
  BitWriter writer;
  writer.WriteU64(0xDEADBEEFCAFEF00Dull);
  writer.WriteBits(5, 3);
  // Unwritable destination: a Status, not silence or an abort.
  EXPECT_FALSE(
      WriteBitsToFile(writer, "/nonexistent-dir/deep/file.bits").ok());

  const std::string dir = MakeTempDir();
  const std::string path = dir + "/state.bits";
  ASSERT_TRUE(WriteBitsToFile(writer, path).ok());
  auto read = io::ReadBitsStreamed(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  BitReader reader = std::move(read.value());
  EXPECT_EQ(reader.ReadU64(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(reader.ReadBits(3), 5u);
  EXPECT_EQ(reader.bits_remaining(), 0u);
  // The atomic tmp-file was renamed away, not left behind.
  std::FILE* listing =
      ::popen(("ls -1 '" + dir + "'").c_str(), "r");
  ASSERT_NE(listing, nullptr);
  char line[256];
  size_t files = 0;
  while (std::fgets(line, sizeof(line), listing) != nullptr) ++files;
  ::pclose(listing);
  EXPECT_EQ(files, 1u);
  RemoveTree(dir);
}

// --------------------------------------------------------- one image --

// The image of a 130-bit (3-word) stream, written out by hand: the u64
// LE bit count, then three u64 LE words; the last holds bits 128..129.
const std::vector<uint8_t> kGoldenImage = {
    0x82, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
    0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  //
    0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE,  //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

BitWriter GoldenStream() {
  BitWriter writer;
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteU64(0xFEDCBA9876543210ull);
  writer.WriteBits(2, 2);
  return writer;
}

/// The image spelled out byte by byte, independently of WriteImage.
std::vector<uint8_t> HandImage(const BitWriter& writer) {
  std::vector<uint8_t> bytes;
  const auto put = [&bytes](uint64_t value) {
    for (int i = 0; i < 8; ++i) bytes.push_back(uint8_t(value >> (8 * i)));
  };
  put(writer.bit_count());
  for (const uint64_t word : writer.words()) put(word);
  return bytes;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return bytes;
  for (int c; (c = std::fgetc(file)) != EOF;) bytes.push_back(uint8_t(c));
  std::fclose(file);
  return bytes;
}

// A frame body, a tenant store record and a .lps file carry one image,
// byte for byte.
TEST(OneImage, FrameStoreRecordAndFileCarryTheSameBytes) {
  const BitWriter golden = GoldenStream();
  ASSERT_EQ(HandImage(golden), kGoldenImage);

  // Frame: u32 LE payload length, the first byte, the image.
  std::vector<uint8_t> want = {33, 0, 0, 0, 7};
  want.insert(want.end(), kGoldenImage.begin(), kGoldenImage.end());
  const std::vector<uint8_t> frame = server::EncodeFrame(7, golden);
  EXPECT_EQ(frame, want);
  const uint8_t* after_prefix = frame.data() + 4;
  auto decoded = server::DecodeFramePayload(after_prefix, frame.size() - 4);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().body.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(decoded.value().body.ReadU64(), 0xFEDCBA9876543210ull);
  EXPECT_EQ(decoded.value().body.ReadBits(2), 2u);
  EXPECT_EQ(decoded.value().body.bits_remaining(), 0u);

  // .lps file: kFileMagic as a u64 LE (the bytes "LSPB"), the image.
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(WriteBitsToFile(golden, dir + "/golden.lps").ok());
  want = {'L', 'S', 'P', 'B', 0, 0, 0, 0};
  want.insert(want.end(), kGoldenImage.begin(), kGoldenImage.end());
  EXPECT_EQ(FileBytes(dir + "/golden.lps"), want);

  // Tenant store record: the image of tenant, key and snapshot.
  server::Server::Options options;
  options.port = 0;
  options.data_dir = dir + "/data";
  options.snapshot_interval_ms = 0;  // the final Stop() snapshot only
  server::SnapshotBlob blob;
  {
    server::Server daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    server::Client client = MustConnect(daemon);
    ASSERT_TRUE(client.Create("acme", "clicks", WindowedConfig(1)).ok());
    ASSERT_TRUE(client.Ingest("acme", "clicks", TenantStream(7, 700)).ok());
    auto snapshot = client.Snapshot("acme", "clicks");
    ASSERT_TRUE(snapshot.ok());
    blob = *snapshot;
    daemon.Stop();
  }
  BitWriter record;
  server::WriteString(&record, "acme");
  server::WriteString(&record, "clicks");
  server::SerializeSnapshot(blob, &record);
  auto opened = CheckpointStore::Open(options.data_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  size_t tenant_records = 0;
  for (const std::string& key : opened.value()->Keys()) {
    if (key.compare(0, 2, "t:") != 0) continue;
    ++tenant_records;
    const size_t count = opened.value()->RecordCount(key);
    auto payload = opened.value()->ReadRecord(key, count - 1);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, HandImage(record));
  }
  EXPECT_EQ(tenant_records, 1u);
  RemoveTree(dir);
}

}  // namespace
}  // namespace lps
