#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/bits.h"
#include "src/util/byte_io.h"
#include "src/util/random.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps {
namespace {

TEST(Bits, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(4), 2);
  EXPECT_EQ(CeilLog2(5), 3);
  EXPECT_EQ(CeilLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
  EXPECT_EQ(CeilLog2(1ULL << 62), 62);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(4), 2);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1ULL << 63), 63);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(4), 4u);
  EXPECT_EQ(NextPow2(1000), 1024u);
}

TEST(Bits, BitWidth) {
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 1);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(256), 8);
  EXPECT_EQ(BitWidth(257), 9);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.Below(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], trials / 10.0, 5 * std::sqrt(trials / 10.0));
  }
}

TEST(Rng, DoubleRanges) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.NextDoublePositive();
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential();
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Mix64, DistinctInputsDistinctOutputs) {
  // Sanity: no collisions in a small range (splitmix is a bijection).
  std::vector<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.push_back(Mix64(i));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(BitWriter, RoundTripAssortedWidths) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0xDEADBEEF, 32);
  writer.WriteBits(1, 1);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteBits(0x3FF, 10);
  EXPECT_EQ(writer.bit_count(), 3u + 32 + 1 + 64 + 10);

  BitReader reader(writer);
  EXPECT_EQ(reader.ReadBits(3), 0b101u);
  EXPECT_EQ(reader.ReadBits(32), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadBits(1), 1u);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.ReadBits(10), 0x3FFu);
  EXPECT_EQ(reader.bits_remaining(), 0u);
}

TEST(BitWriter, CrossWordBoundary) {
  BitWriter writer;
  writer.WriteBits(0x7F, 7);           // 7 bits
  writer.WriteU64(~0ULL);              // spans words
  writer.WriteBits(0x1, 1);
  BitReader reader(writer);
  EXPECT_EQ(reader.ReadBits(7), 0x7Fu);
  EXPECT_EQ(reader.ReadU64(), ~0ULL);
  EXPECT_EQ(reader.ReadBits(1), 0x1u);
}

TEST(BitWriter, DoubleRoundTrip) {
  BitWriter writer;
  const double values[] = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  for (double v : values) writer.WriteDouble(v);
  BitReader reader(writer);
  for (double v : values) EXPECT_EQ(reader.ReadDouble(), v);
}

std::vector<uint64_t> SomeWords(size_t count) {
  std::vector<uint64_t> words(count);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  return words;
}

// WriteWords and ReadWords move whole words at any bit position: a
// memcpy when the position is word-aligned, a shift-merge otherwise.
// Their bits are a WriteU64 / ReadU64 loop's.
TEST(BitWriter, WordRunsEqualU64LoopsAtEveryOffset) {
  const std::vector<uint64_t> words = SomeWords(5);
  for (int offset = 0; offset < 64; ++offset) {
    for (const size_t count : {size_t(0), size_t(1), size_t(5)}) {
      BitWriter bulk, loop;
      bulk.WriteBits(0x5A5A5A5A5A5A5A5Aull, offset);
      loop.WriteBits(0x5A5A5A5A5A5A5A5Aull, offset);
      bulk.WriteWords(words.data(), count);
      for (size_t i = 0; i < count; ++i) loop.WriteU64(words[i]);
      bulk.WriteBits(0x3F, 7);
      loop.WriteBits(0x3F, 7);
      ASSERT_EQ(bulk, loop) << "offset " << offset << " count " << count;

      BitReader reader(loop);
      reader.ReadBits(offset);
      std::vector<uint64_t> out(count);
      reader.ReadWords(out.data(), count);
      const std::vector<uint64_t> want(words.begin(), words.begin() + count);
      EXPECT_EQ(out, want) << "offset " << offset << " count " << count;
      EXPECT_EQ(reader.ReadBits(7), 0x3Fu);
      EXPECT_EQ(reader.bits_remaining(), 0u);
    }
  }
  // Any 8-byte values: doubles go bit for bit, as WriteDouble writes them.
  const double reals[] = {0.0, -1.5, 3.14159, 1e300};
  BitWriter bulk, loop;
  bulk.WriteBits(1, 3);
  loop.WriteBits(1, 3);
  bulk.WriteWords(reals, 4);
  for (const double r : reals) loop.WriteDouble(r);
  EXPECT_EQ(bulk, loop);
  // TakeWords hands the words over and leaves an empty stream.
  const std::vector<uint64_t> taken = bulk.TakeWords();
  EXPECT_EQ(taken, loop.words());
  EXPECT_EQ(bulk.bit_count(), 0u);
  EXPECT_TRUE(bulk.words().empty());
}

// A permissive reader asked for more words than the stream holds gives
// what a ReadU64 loop gives: the words that fit, then zeros, and fails.
TEST(BitWriter, ReadWordsOverrunIsTheU64Loop) {
  const std::vector<uint64_t> words = SomeWords(3);
  for (int offset = 0; offset < 64; ++offset) {
    BitWriter writer;
    writer.WriteBits(0x2B, offset);
    writer.WriteWords(words.data(), words.size());
    writer.WriteBits(0x1234, 20);
    BitReader bulk(&writer.words(), writer.bit_count());
    BitReader loop(&writer.words(), writer.bit_count());
    bulk.set_permissive(true);
    loop.set_permissive(true);
    bulk.ReadBits(offset);
    loop.ReadBits(offset);
    std::vector<uint64_t> got(5, 0xFFFF), want(5);
    bulk.ReadWords(got.data(), got.size());
    for (uint64_t& w : want) w = loop.ReadU64();
    EXPECT_EQ(got, want) << "offset " << offset;
    EXPECT_EQ(got[3], 0u);
    EXPECT_TRUE(bulk.failed());
    EXPECT_EQ(bulk.failed(), loop.failed());
    EXPECT_EQ(bulk.bits_remaining(), 0u);
    EXPECT_EQ(bulk.ReadBits(8), 0u);
  }
}

TEST(BitWriter, BoundedUsesMinimalBits) {
  BitWriter writer;
  writer.WriteBounded(5, 10);  // 4 bits
  writer.WriteBounded(0, 2);   // 1 bit
  EXPECT_EQ(writer.bit_count(), 5u);
  BitReader reader(writer);
  EXPECT_EQ(reader.ReadBounded(10), 5u);
  EXPECT_EQ(reader.ReadBounded(2), 0u);
}

TEST(BitWriter, WordsForBitsNeverWraps) {
  EXPECT_EQ(WordsForBits(0), 0u);
  EXPECT_EQ(WordsForBits(1), 1u);
  EXPECT_EQ(WordsForBits(64), 1u);
  EXPECT_EQ(WordsForBits(65), 2u);
  // (bits + 63) / 64 wraps to 0 for these two.
  EXPECT_EQ(WordsForBits(~uint64_t{0}), uint64_t{1} << 58);
  EXPECT_EQ(WordsForBits(~uint64_t{0} - 62), uint64_t{1} << 58);
}

TEST(BitWriter, ImageRoundTripsAndParsesExactly) {
  BitWriter writer;
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteBits(5, 3);
  std::vector<uint8_t> image(ImageSize(writer));
  ASSERT_EQ(image.size(), 8u + 2 * 8);
  WriteImage(writer, image.data());
  auto parsed = ParseImage(image.data(), image.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(parsed.value().ReadBits(3), 5u);
  // Permissive: a read past the end fails the reader, never aborts.
  EXPECT_EQ(parsed.value().ReadBits(1), 0u);
  EXPECT_TRUE(parsed.value().failed());

  EXPECT_FALSE(ParseImage(image.data(), 7).ok());
  EXPECT_FALSE(ParseImage(image.data(), image.size() - 8).ok());
  image.push_back(0);
  EXPECT_FALSE(ParseImage(image.data(), image.size()).ok());
}

TEST(ByteIo, LittleEndianWhateverTheHost) {
  uint8_t bytes[8];
  StoreLE(uint32_t{0x11223344}, bytes);
  EXPECT_EQ(bytes[0], 0x44);
  EXPECT_EQ(bytes[3], 0x11);
  EXPECT_EQ(LoadLE<uint32_t>(bytes), 0x11223344u);
  StoreLE(uint16_t{0xBEEF}, bytes);
  EXPECT_EQ(bytes[0], 0xEF);
  EXPECT_EQ(LoadLE<uint16_t>(bytes), 0xBEEF);
  const uint64_t word = 0x0102030405060708ull;
  StoreWordsLE(&word, 1, bytes);
  EXPECT_EQ(bytes[0], 0x08);
  EXPECT_EQ(bytes[7], 0x01);
  EXPECT_EQ(LoadLE<uint64_t>(bytes), word);
  uint64_t loaded = 0;
  LoadWordsLE(bytes, 1, &loaded);
  EXPECT_EQ(loaded, word);
}

// The loops name the failing call's errno, and EOF before the end of the
// buffer is a short read, not a stale errno.
TEST(ByteIo, LoopsReportShortReadsAndTheFailingCall) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteAll(fds[1], "abc", 3, "pipe").ok());
  ::close(fds[1]);
  char buffer[8];
  size_t got = 0;
  const Status short_read = ReadAll(fds[0], buffer, sizeof(buffer), &got);
  EXPECT_EQ(short_read.code(), Code::kInvalidArgument);
  EXPECT_EQ(short_read.message(), "short read");
  EXPECT_EQ(got, 3u);
  EXPECT_EQ(std::string(buffer, 3), "abc");
  const Status not_a_socket = SendAll(fds[0], "x", 1);
  EXPECT_TRUE(not_a_socket.IsFailed());
  EXPECT_EQ(not_a_socket.message().rfind("send: ", 0), 0u);
  const Status read_only = WriteAll(fds[0], "x", 1, "pipe");
  EXPECT_EQ(read_only.message(),
            "write failed pipe: " + std::string(std::strerror(EBADF)));
  const Status past_end = PreadAll(fds[0], buffer, 1, 0, "pipe");
  EXPECT_EQ(past_end.message(),
            "read failed pipe: " + std::string(std::strerror(ESPIPE)));
  ::close(fds[0]);

  char path[] = "/tmp/lps_util_byteio_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, "abcd", 4, path).ok());
  ASSERT_TRUE(PreadAll(fd, buffer, 2, 1, path).ok());
  EXPECT_EQ(std::string(buffer, 2), "bc");
  EXPECT_EQ(PreadAll(fd, buffer, 4, 2, path).message(),
            "short read " + std::string(path));
  ::close(fd);
  ::unlink(path);
}

TEST(Status, Basics) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_TRUE(Status::Failed("x").IsFailed());
  EXPECT_TRUE(Status::Dense("y").IsDense());
  EXPECT_FALSE(Status::Dense("y").ok());
  EXPECT_EQ(Status::InvalidArgument("bad").code(), Code::kInvalidArgument);
  EXPECT_NE(Status::Failed("msg").ToString().find("msg"), std::string::npos);
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> failed(Status::Failed("nope"));
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsFailed());
}

}  // namespace
}  // namespace lps
