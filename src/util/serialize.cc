#include "src/util/serialize.h"

#include <cstring>

#include "src/util/atomic_file.h"
#include "src/util/bits.h"
#include "src/util/byte_io.h"

namespace lps {

void BitWriter::WriteBits(uint64_t value, int bits) {
  LPS_CHECK(bits >= 0 && bits <= 64);
  if (bits == 0) return;
  if (bits < 64) value &= (1ULL << bits) - 1;
  const size_t word_index = bit_count_ >> 6;
  const int offset = static_cast<int>(bit_count_ & 63);
  if (word_index >= words_.size()) words_.push_back(0);
  words_[word_index] |= value << offset;
  if (offset + bits > 64) {
    words_.push_back(value >> (64 - offset));
  }
  bit_count_ += static_cast<size_t>(bits);
}

void BitWriter::Reserve(size_t bits) {
  words_.reserve(size_t(WordsForBits(bits)));
}

void BitWriter::WriteWords(const void* src, size_t count) {
  if (count == 0) return;
  const uint8_t* in = static_cast<const uint8_t*>(src);
  // words_ holds exactly WordsForBits(bit_count_) words, the last one
  // partial unless the position is word-aligned.
  const size_t index = bit_count_ >> 6;
  const int offset = static_cast<int>(bit_count_ & 63);
  bit_count_ += 64 * count;
  if (offset == 0) {
    words_.resize(index + count);
    std::memcpy(words_.data() + index, in, 8 * count);
    return;
  }
  words_.resize(index + 1 + count);
  uint64_t* out = words_.data() + index;
  uint64_t carry = out[0];
  for (size_t i = 0; i < count; ++i) {
    uint64_t w;
    std::memcpy(&w, in + 8 * i, 8);
    out[i] = carry | (w << offset);
    carry = w >> (64 - offset);
  }
  out[count] = carry;
}

void BitWriter::WriteDouble(double value) {
  uint64_t raw;
  std::memcpy(&raw, &value, sizeof(raw));
  WriteBits(raw, 64);
}

void BitWriter::WriteBounded(uint64_t value, uint64_t bound) {
  LPS_CHECK(value < bound);
  WriteBits(value, BitWidth(bound));
}

BitReader::BitReader(const std::vector<uint64_t>* words, size_t bit_count)
    : words_(words), total_bits_(bit_count) {
  LPS_CHECK(bit_count <= words->size() * 64);
}

BitReader::BitReader(std::vector<uint64_t> words, size_t bit_count)
    : owned_(std::move(words)), words_(&owned_), total_bits_(bit_count) {
  LPS_CHECK(bit_count <= owned_.size() * 64);
}

BitReader::BitReader(BitReader&& other) noexcept
    : owned_(std::move(other.owned_)),
      words_(other.words_ == &other.owned_ ? &owned_ : other.words_),
      total_bits_(other.total_bits_), position_(other.position_),
      permissive_(other.permissive_), failed_(other.failed_) {}

BitReader& BitReader::operator=(BitReader&& other) noexcept {
  if (this != &other) {
    const bool owning = other.words_ == &other.owned_;
    owned_ = std::move(other.owned_);
    words_ = owning ? &owned_ : other.words_;
    total_bits_ = other.total_bits_;
    position_ = other.position_;
    permissive_ = other.permissive_;
    failed_ = other.failed_;
  }
  return *this;
}

uint64_t BitReader::ReadBits(int bits) {
  LPS_CHECK(bits >= 0 && bits <= 64);
  if (bits == 0) return 0;
  if (position_ + static_cast<size_t>(bits) > total_bits_) {
    LPS_CHECK(permissive_);
    Fail();
    return 0;
  }
  const std::vector<uint64_t>& words = *words_;
  const size_t word_index = position_ >> 6;
  const int offset = static_cast<int>(position_ & 63);
  uint64_t value = words[word_index] >> offset;
  if (offset + bits > 64) {
    value |= words[word_index + 1] << (64 - offset);
  }
  if (bits < 64) value &= (1ULL << bits) - 1;
  position_ += static_cast<size_t>(bits);
  return value;
}

void BitReader::ReadWords(void* out, size_t count) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t fit = count;
  if (count > bits_remaining() / 64) {
    LPS_CHECK(permissive_);
    fit = bits_remaining() / 64;
  }
  const uint64_t* in = words_->data() + (position_ >> 6);
  const int offset = static_cast<int>(position_ & 63);
  if (offset == 0) {
    if (fit > 0) std::memcpy(dst, in, 8 * fit);
  } else {
    // The last word read ends inside the stream, so in[fit] exists.
    for (size_t i = 0; i < fit; ++i) {
      const uint64_t w = (in[i] >> offset) | (in[i + 1] << (64 - offset));
      std::memcpy(dst + 8 * i, &w, 8);
    }
  }
  position_ += 64 * fit;
  if (fit < count) {
    Fail();
    std::memset(dst + 8 * fit, 0, 8 * (count - fit));
  }
}

double BitReader::ReadDouble() {
  uint64_t raw = ReadBits(64);
  double value;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

uint64_t BitReader::ReadBounded(uint64_t bound) {
  return ReadBits(BitWidth(bound));
}

size_t ImageSize(const BitWriter& writer) {
  return 8 + 8 * writer.words().size();
}

void WriteImage(const BitWriter& writer, uint8_t* out) {
  StoreLE<uint64_t>(writer.bit_count(), out);
  StoreWordsLE(writer.words().data(), writer.words().size(), out + 8);
}

Result<BitReader> ParseImage(const uint8_t* data, size_t size) {
  if (size < 8) return Status::InvalidArgument("bit-stream image truncated");
  const uint64_t bits = LoadLE<uint64_t>(data);
  const uint64_t words = WordsForBits(bits);
  const size_t delivered = (size - 8) / 8;
  if (words > delivered) {
    return Status::InvalidArgument("bit-stream image truncated");
  }
  if (words < delivered || (size - 8) % 8 != 0) {
    return Status::InvalidArgument("bit-stream image longer than its count");
  }
  std::vector<uint64_t> owned(static_cast<size_t>(words));
  LoadWordsLE(data + 8, owned.size(), owned.data());
  BitReader reader(std::move(owned), static_cast<size_t>(bits));
  reader.set_permissive(true);
  return reader;
}

Status WriteBitsToFile(const BitWriter& writer, const std::string& path) {
  // Publish atomically (tmp + fsync + rename): a crash mid-save leaves
  // the previous file intact instead of a torn container.
  std::vector<uint8_t> file(8 + ImageSize(writer));
  StoreLE(kFileMagic, file.data());
  WriteImage(writer, file.data() + 8);
  return AtomicWriteFile(path, file.data(), file.size());
}

}  // namespace lps
