#include "src/io/bits_io.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace lps::io {

namespace {

// Mirrors the container constant in src/util/serialize.cc ("LPSB" LE).
constexpr uint64_t kFileMagic = 0x4250534CULL;

}  // namespace

Result<BitReader> ReadBitsStreamed(ByteSource* source) {
  // The container is a pure u64-word stream: magic, bit count, payload.
  // Assemble words across chunk boundaries; validate the header as soon
  // as its two words exist, and fail fast the moment the payload
  // exceeds the declared length (never read a lying file to its end).
  std::vector<uint64_t> words;
  uint64_t declared_bits = 0;
  size_t declared_words = 0;
  bool have_header = false;
  uint64_t header[2] = {0, 0};
  size_t header_words = 0;
  char partial[sizeof(uint64_t)];
  size_t partial_len = 0;

  auto take_word = [&](uint64_t word) -> Status {
    if (!have_header) {
      header[header_words++] = word;
      if (header_words < 2) return Status();
      if (header[0] != kFileMagic) {
        return Status::InvalidArgument("not an lps bit-stream file");
      }
      declared_bits = header[1];
      // (bits + 63) / 64 wraps to 0 words for bits >= 2^64 - 63, which
      // would let a 16-byte file reach BitReader's size CHECK.
      if (declared_bits > ~uint64_t{0} - 63) {
        return Status::InvalidArgument("bit-stream file declares " +
                                       std::to_string(declared_bits) +
                                       " bits");
      }
      declared_words = static_cast<size_t>((declared_bits + 63) / 64);
      words.reserve(std::min<size_t>(declared_words, size_t{1} << 16));
      have_header = true;
      return Status();
    }
    if (words.size() >= declared_words) {
      return Status::InvalidArgument("bit-stream file longer than declared");
    }
    words.push_back(word);
    return Status();
  };

  for (;;) {
    auto chunk = source->Next();
    if (!chunk.ok()) return chunk.status();
    const char* p = chunk.value().data;
    size_t size = chunk.value().size;
    if (size == 0) break;
    if (partial_len > 0) {
      const size_t need = sizeof(uint64_t) - partial_len;
      const size_t take = std::min(need, size);
      std::memcpy(partial + partial_len, p, take);
      partial_len += take;
      p += take;
      size -= take;
      if (partial_len < sizeof(uint64_t)) continue;
      uint64_t word;
      std::memcpy(&word, partial, sizeof(word));
      partial_len = 0;
      auto status = take_word(word);
      if (!status.ok()) return status;
    }
    while (size >= sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      p += sizeof(uint64_t);
      size -= sizeof(uint64_t);
      auto status = take_word(word);
      if (!status.ok()) return status;
    }
    if (size > 0) {
      std::memcpy(partial, p, size);
      partial_len = size;
    }
  }
  if (!have_header || partial_len > 0 || words.size() != declared_words) {
    return Status::InvalidArgument("truncated bit-stream file");
  }
  return BitReader(std::move(words), static_cast<size_t>(declared_bits));
}

Result<BitReader> ReadBitsStreamed(const std::string& path,
                                   const FileSourceOptions& options) {
  auto source = MakeFileSource(path, options);
  if (!source.ok()) {
    return Status::InvalidArgument("cannot open for reading: " + path);
  }
  auto reader = ReadBitsStreamed(source.value().get());
  if (!reader.ok()) {
    return Status::InvalidArgument(reader.status().message() + ": " + path);
  }
  return reader;
}

}  // namespace lps::io
