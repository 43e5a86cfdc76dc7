// Bit-exact serialization used by the communication-complexity harness and
// by the sketches' full-state wire format. Protocol messages and saved
// sketch state are encoded through BitWriter so that the reported message
// sizes are true bit counts — this is what the paper's lower bounds
// constrain, so the accounting must be exact, not sizeof-based.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/status.h"

namespace lps {

/// Append-only bit stream writer.
class BitWriter {
 public:
  BitWriter() = default;

  /// Writes the low `bits` bits of `value` (LSB first). bits in [0, 64].
  void WriteBits(uint64_t value, int bits);

  /// Writes a full 64-bit word.
  void WriteU64(uint64_t value) { WriteBits(value, 64); }

  /// Writes `count` 64-bit words from `src`, the same bits as a WriteU64
  /// loop: one memcpy at a word-aligned position, a shift-merge at any
  /// other. `src` is read bytewise, so any array of 8-byte values
  /// (uint64_t, int64_t, double) may be passed.
  void WriteWords(const void* src, size_t count);

  /// Writes a double bit-for-bit (64 bits).
  void WriteDouble(double value);

  /// Writes a non-negative integer known to be < bound using
  /// ceil(log2(bound)) bits.
  void WriteBounded(uint64_t value, uint64_t bound);

  /// Makes room for a stream of `bits` bits in one allocation.
  void Reserve(size_t bits);

  /// Empties the stream, keeping its allocation for reuse.
  void Clear() {
    words_.clear();
    bit_count_ = 0;
  }

  /// Total number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  const std::vector<uint64_t>& words() const { return words_; }

  /// Moves the words out and leaves the stream empty, for a caller that
  /// keeps the state and drops the writer (read bit_count() first).
  std::vector<uint64_t> TakeWords() {
    std::vector<uint64_t> words;
    words.swap(words_);
    bit_count_ = 0;
    return words;
  }

  /// Same bits: equal bit counts and equal words.
  bool operator==(const BitWriter& other) const {
    return bit_count_ == other.bit_count_ && words_ == other.words_;
  }

 private:
  std::vector<uint64_t> words_;
  size_t bit_count_ = 0;
};

/// Reader over a bit stream: either a non-owning view of words someone
/// else holds (a live BitWriter, a checkpoint, a state to validate) or an
/// owning buffer (state loaded from a file, which must outlive no one).
class BitReader {
 public:
  /// Non-owning view; `writer` must outlive this reader.
  explicit BitReader(const BitWriter& writer)
      : words_(&writer.words()), total_bits_(writer.bit_count()) {}

  /// Non-owning view of `*words`, which must outlive this reader.
  /// `bit_count` must fit in words->size() * 64 bits.
  BitReader(const std::vector<uint64_t>* words, size_t bit_count);

  /// Owning buffer: the reader keeps the words alive itself. `bit_count`
  /// must fit in words.size() * 64 bits.
  BitReader(std::vector<uint64_t> words, size_t bit_count);

  // Owning readers hold an internal pointer into owned_; moves repoint it.
  BitReader(BitReader&& other) noexcept;
  BitReader& operator=(BitReader&& other) noexcept;
  BitReader(const BitReader&) = delete;
  BitReader& operator=(const BitReader&) = delete;

  uint64_t ReadBits(int bits);
  uint64_t ReadU64() { return ReadBits(64); }
  /// Reads `count` 64-bit words into `out`, the same values as a ReadU64
  /// loop, overrun included: the words that fit, then Fail() and zeros.
  void ReadWords(void* out, size_t count);
  double ReadDouble();
  uint64_t ReadBounded(uint64_t bound);

  /// Returns the read position to the start of the stream (e.g. after
  /// peeking a serialized sketch's kind tag).
  void Rewind() { position_ = 0; }

  size_t bits_remaining() const { return total_bits_ - position_; }

  /// Overrun policy. By default a read past the end of the stream is a
  /// programming error (LPS_CHECK aborts). A PERMISSIVE reader instead
  /// records the overrun and returns 0 for that and every later read —
  /// the mode for bytes that arrive from an untrusted peer, where a
  /// stream that lies about its length must surface as failed(), never
  /// as a CHECK abort (the sketch server decodes every request body
  /// through a permissive reader).
  void set_permissive(bool permissive) { permissive_ = permissive; }
  /// True once any read overran the stream, or a decoder called Fail()
  /// after pre-validating a claimed element count. Sticky.
  bool failed() const { return failed_; }
  /// Marks the stream failed and exhausts it, so later reads return 0
  /// instead of walking an arbitrarily large claimed count.
  void Fail() {
    failed_ = true;
    position_ = total_bits_;
  }

 private:
  std::vector<uint64_t> owned_;  // empty for the non-owning view
  const std::vector<uint64_t>* words_;
  size_t total_bits_;
  size_t position_ = 0;
  bool permissive_ = false;
  bool failed_ = false;
};

/// Words a stream of `bits` bits fills: ceil(bits / 64), without the
/// (bits + 63) wrap near 2^64. Every parser bounds a claimed bit count
/// through this before it sizes or reads anything.
inline uint64_t WordsForBits(uint64_t bits) {
  return bits / 64 + (bits % 64 != 0 ? 1 : 0);
}

// The image: the one byte form a bit stream takes on the wire (a frame
// body), in tenant store records and in .lps files —
//
//     [u64 LE bit count] [WordsForBits(bit count) u64 LE words]
//
// On a little-endian host each half is one memcpy.

/// Bytes of `writer`'s image.
size_t ImageSize(const BitWriter& writer);

/// Writes `writer`'s image to `out`, which holds ImageSize(writer) bytes.
void WriteImage(const BitWriter& writer, uint8_t* out);

/// Parses an image that spans exactly `size` bytes. The bytes come from a
/// peer or a disk, so the reader is permissive (see BitReader). A short
/// header, a bit count the bytes cannot hold and trailing bytes are
/// InvalidArgument; nothing is sized from the claimed count.
Result<BitReader> ParseImage(const uint8_t* data, size_t size);

/// Container magic of .lps files, the u64 in front of the image. Stored
/// little-endian, its first four bytes read "LSPB".
inline constexpr uint64_t kFileMagic = 0x4250534CULL;

/// Writes kFileMagic and `writer`'s image to `path`, so serialized sketch
/// state round-trips through disk for the CLI save/load/merge commands.
/// io::ReadBitsStreamed reads it back.
Status WriteBitsToFile(const BitWriter& writer, const std::string& path);

}  // namespace lps
