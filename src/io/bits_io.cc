#include "src/io/bits_io.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/byte_io.h"

namespace lps::io {

Result<BitReader> ReadBitsStreamed(ByteSource* source) {
  // The container is kFileMagic, then the image: a u64 bit count and its
  // words, all u64 LE. Assemble u64s across chunk boundaries; check the
  // magic as soon as the two header u64s exist, and fail fast the moment
  // the words exceed the declared count (never read a lying file to its
  // end).
  std::vector<uint64_t> words;
  uint64_t header[2] = {0, 0};
  size_t header_words = 0;
  uint64_t declared_words = 0;
  uint8_t partial[sizeof(uint64_t)];
  size_t partial_len = 0;

  auto take_word = [&](const uint8_t* bytes) -> Status {
    const uint64_t word = LoadLE<uint64_t>(bytes);
    if (header_words < 2) {
      header[header_words++] = word;
      if (header_words < 2) return Status();
      if (header[0] != kFileMagic) {
        return Status::InvalidArgument("not an lps bit-stream file");
      }
      declared_words = WordsForBits(header[1]);
      words.reserve(std::min<uint64_t>(declared_words, uint64_t{1} << 16));
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
    const uint8_t* p = reinterpret_cast<const uint8_t*>(chunk.value().data);
    size_t size = chunk.value().size;
    if (size == 0) break;
    if (partial_len > 0) {
      const size_t take = std::min(sizeof(partial) - partial_len, size);
      std::memcpy(partial + partial_len, p, take);
      partial_len += take;
      p += take;
      size -= take;
      if (partial_len < sizeof(partial)) continue;
      partial_len = 0;
      auto status = take_word(partial);
      if (!status.ok()) return status;
    }
    for (; size >= sizeof(uint64_t); p += 8, size -= 8) {
      auto status = take_word(p);
      if (!status.ok()) return status;
    }
    std::memcpy(partial, p, size);
    partial_len = size;
  }
  if (header_words < 2 || words.size() != declared_words) {
    return Status::InvalidArgument("truncated bit-stream file");
  }
  if (partial_len > 0) {
    return Status::InvalidArgument("bit-stream file longer than declared");
  }
  return BitReader(std::move(words), static_cast<size_t>(header[1]));
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
