#include "src/io/update_decoder.h"

#include <cstring>

#include "src/util/byte_io.h"

namespace lps::io {

namespace {

/// A text record longer than this cannot be well-formed (a tag plus two
/// 20-digit integers is under 50 bytes); the cap keeps a hostile
/// newline-free stream from growing the carry buffer without bound.
constexpr size_t kMaxTextRecordBytes = 4096;

constexpr size_t kBinaryRecordBytes = 16;  // u64 index + i64 delta

const char* SkipSpaces(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t')) ++p;
  return p;
}

/// Parses an unsigned decimal; advances *p past the digits. False when
/// no digit is present or the value overflows u64.
bool ParseU64(const char** p, const char* end, uint64_t* out) {
  const char* q = SkipSpaces(*p, end);
  if (q >= end || *q < '0' || *q > '9') return false;
  uint64_t value = 0;
  for (; q < end && *q >= '0' && *q <= '9'; ++q) {
    const uint64_t digit = static_cast<uint64_t>(*q - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *p = q;
  *out = value;
  return true;
}

bool ParseI64(const char** p, const char* end, int64_t* out) {
  const char* q = SkipSpaces(*p, end);
  bool negative = false;
  if (q < end && (*q == '-' || *q == '+')) {
    negative = (*q == '-');
    ++q;
  }
  uint64_t magnitude = 0;
  const char* digits = q;
  if (!ParseU64(&digits, end, &magnitude)) return false;
  if (digits == q) return false;
  const uint64_t limit =
      negative ? (1ULL << 63) : (1ULL << 63) - 1;  // |INT64_MIN| vs INT64_MAX
  if (magnitude > limit) return false;
  *p = digits;
  *out = negative ? -static_cast<int64_t>(magnitude - 1) - 1
                  : static_cast<int64_t>(magnitude);
  return true;
}

}  // namespace

void UpdateDecoder::DecodeLine(const char* line, size_t size,
                               stream::UpdateStream* out) {
  if (size > 0 && line[size - 1] == '\r') --size;  // CRLF
  const char* p = SkipSpaces(line, line + size);
  const char* end = line + size;
  if (p == end || *p == '#') return;  // blank / comment
  const char tag = *p++;
  // The tag must be a standalone token ("nn" is not a header).
  if (p < end && *p != ' ' && *p != '\t') {
    ++malformed_;
    return;
  }
  if (tag == 'n') {
    uint64_t value = 0;
    if (have_header_ || !ParseU64(&p, end, &value) || value == 0) {
      ++malformed_;  // duplicate or unparsable header line
      return;
    }
    n_ = value;
    have_header_ = true;
    return;
  }
  if (tag == 'u') {
    stream::Update u{};
    if (!have_header_ || !ParseU64(&p, end, &u.index) ||
        !ParseI64(&p, end, &u.delta) || u.index >= n_) {
      ++malformed_;
      return;
    }
    out->push_back(u);
    ++decoded_;
    return;
  }
  if (tag == 'l') {
    uint64_t letter = 0;
    if (!have_header_ || !ParseU64(&p, end, &letter) || letter >= n_) {
      ++malformed_;
      return;
    }
    out->push_back({letter, 1});
    ++decoded_;
    return;
  }
  ++malformed_;  // unknown record tag
}

void UpdateDecoder::ConsumeText(const char* data, size_t size,
                                stream::UpdateStream* out) {
  const char* p = data;
  const char* end = data + size;
  // Complete the carried partial line first.
  if (!carry_.empty() || discarding_) {
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', size));
    if (nl == nullptr) {
      if (discarding_) return;  // still inside the over-long record
      if (carry_.size() + size > kMaxTextRecordBytes) {
        ++malformed_;
        carry_.clear();
        discarding_ = true;
        return;
      }
      carry_.append(p, size);
      return;
    }
    if (discarding_) {
      discarding_ = false;
    } else if (carry_.size() + static_cast<size_t>(nl - p) >
               kMaxTextRecordBytes) {
      ++malformed_;
      carry_.clear();
    } else {
      carry_.append(p, static_cast<size_t>(nl - p));
      DecodeLine(carry_.data(), carry_.size(), out);
      carry_.clear();
    }
    p = nl + 1;
  }
  // Whole lines straight out of the chunk, no copies.
  for (;;) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (nl == nullptr) break;
    DecodeLine(p, static_cast<size_t>(nl - p), out);
    p = nl + 1;
  }
  // Trailing partial line -> carry (or start discarding if over-long).
  if (p < end) {
    const size_t tail = static_cast<size_t>(end - p);
    if (tail > kMaxTextRecordBytes) {
      ++malformed_;
      discarding_ = true;
    } else {
      carry_.append(p, tail);
    }
  }
}

void UpdateDecoder::ConsumeBinary(const char* data, size_t size,
                                  stream::UpdateStream* out) {
  const char* p = data;
  const char* end = data + size;
  // Header: the 8-byte n field right after the magic.
  if (!have_header_) {
    while (carry_.size() < 8 && p < end) carry_.push_back(*p++);
    if (carry_.size() < 8) return;
    const uint64_t n = LoadLE<uint64_t>(carry_.data());
    carry_.clear();
    if (n == 0) {
      // No universe to validate against: the stream is unusable, and
      // counting every following record as malformed would just restate
      // that. Finish() reports the missing header.
      dead_ = true;
      return;
    }
    n_ = n;
    have_header_ = true;
  }
  auto emit = [&](const char* record) {
    stream::Update u{LoadLE<uint64_t>(record),
                     static_cast<int64_t>(LoadLE<uint64_t>(record + 8))};
    if (u.index >= n_) {
      ++malformed_;
      return;
    }
    out->push_back(u);
    ++decoded_;
  };
  // Complete a carried partial record.
  if (!carry_.empty()) {
    while (carry_.size() < kBinaryRecordBytes && p < end) {
      carry_.push_back(*p++);
    }
    if (carry_.size() < kBinaryRecordBytes) return;
    emit(carry_.data());
    carry_.clear();
  }
  while (static_cast<size_t>(end - p) >= kBinaryRecordBytes) {
    emit(p);
    p += kBinaryRecordBytes;
  }
  if (p < end) carry_.assign(p, static_cast<size_t>(end - p));
}

void UpdateDecoder::Consume(const char* data, size_t size,
                            stream::UpdateStream* out) {
  if (finished_ || dead_ || size == 0) return;
  if (format_ == Format::kUnknown) {
    // Buffer until the magic-sized prefix can be inspected; the binary
    // magic ends in '\n', so no valid text trace can start with it.
    carry_.append(data, size);
    if (carry_.size() < sizeof(kBinaryTraceMagic)) return;
    const std::string buffered = std::move(carry_);
    carry_.clear();
    if (LoadLE<uint64_t>(buffered.data()) == kBinaryTraceMagic) {
      format_ = Format::kBinary;
      ConsumeBinary(buffered.data() + sizeof(kBinaryTraceMagic),
                    buffered.size() - sizeof(kBinaryTraceMagic), out);
    } else {
      format_ = Format::kText;
      ConsumeText(buffered.data(), buffered.size(), out);
    }
    return;
  }
  if (format_ == Format::kText) {
    ConsumeText(data, size, out);
  } else {
    ConsumeBinary(data, size, out);
  }
}

Status UpdateDecoder::Finish(stream::UpdateStream* out) {
  if (finished_) {
    return have_header_ ? Status() : Status::InvalidArgument(
                                         "missing 'n <size>' header");
  }
  finished_ = true;
  if (format_ == Format::kUnknown) {
    // Short stream: fewer bytes than the magic is necessarily text. The
    // detection buffer may hold several complete lines ("n 2\nl 0") —
    // run them through the text path, not DecodeLine on the whole blob.
    format_ = Format::kText;
    const std::string buffered = std::move(carry_);
    carry_.clear();
    if (!buffered.empty()) ConsumeText(buffered.data(), buffered.size(), out);
  }
  if (format_ == Format::kText) {
    if (discarding_) {
      discarding_ = false;  // the over-long tail was already counted
    } else if (!carry_.empty()) {
      // EOF terminates the final line, newline or not (getline parity).
      DecodeLine(carry_.data(), carry_.size(), out);
      carry_.clear();
    }
  } else if (!carry_.empty()) {
    ++malformed_;  // record torn at EOF — never completed
    carry_.clear();
  }
  if (!have_header_) {
    return Status::InvalidArgument("missing 'n <size>' header");
  }
  return Status();
}

void WriteTrace(std::ostream& out, uint64_t n,
                const stream::UpdateStream& updates) {
  out << "n " << n << "\n";
  for (const auto& u : updates) {
    out << "u " << u.index << " " << u.delta << "\n";
  }
}

void WriteLetterTrace(std::ostream& out, uint64_t n,
                      const stream::LetterStream& letters) {
  out << "n " << n << "\n";
  for (uint64_t letter : letters) {
    out << "l " << letter << "\n";
  }
}

void WriteBinaryTrace(std::string* out, uint64_t n,
                      const stream::UpdateStream& updates) {
  auto append_u64 = [out](uint64_t value) {
    char bytes[8];
    StoreLE(value, bytes);
    out->append(bytes, sizeof(bytes));
  };
  append_u64(kBinaryTraceMagic);
  append_u64(n);
  for (const auto& u : updates) {
    append_u64(u.index);
    append_u64(static_cast<uint64_t>(u.delta));
  }
}

}  // namespace lps::io
