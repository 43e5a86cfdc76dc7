// Stream traces: the interchange format that lets a workload be
// generated once, shared, and replayed through any sketch (lps_cli,
// lps_worker --from, lps_bench_client --replay). This header owns both
// encodings — the writers and the one reader, UpdateDecoder, which parses
// either incrementally across arbitrary chunk boundaries:
//
//   text: "# comment", "n <size>" header first, then "u <index> <delta>"
//     update records and "l <letter>" letter records (a letter is
//     "u <letter> 1"), LF or CRLF.
//   binary: 8-byte magic "LPSTRC1\n", u64 LE universe size, then 16-byte
//     records of u64 LE index + i64 LE delta — the replay format for
//     disk-rate ingest (16 bytes/update instead of ~15 text chars plus
//     integer formatting; lps_cli gen --binary writes it).
//
// The format is auto-detected from the first bytes (the binary magic
// cannot begin a valid text trace). The decoder owns a carry buffer so
// records torn across ByteSource chunks — a line split mid-number, a
// binary record split mid-field — reassemble exactly; feeding the same
// bytes in any chunking decodes the same update sequence.
//
// Malformed-input policy (the PR 6/9 hostile-input discipline): a bad
// line or record — unknown tag, unparsable number, index outside
// [0, n), duplicate header, torn trailing record at EOF — is COUNTED in
// malformed() and skipped, never a CHECK abort and (past the header)
// never a hard error; a replay keeps going when one producer wrote one
// bad line. The only structural failure is a stream whose header never
// arrives: Finish() returns InvalidArgument, because without n there is
// no universe to validate against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "src/stream/generators.h"
#include "src/stream/update.h"
#include "src/util/status.h"

namespace lps::io {

/// Binary trace magic: "LPSTRC1\n" as a little-endian u64.
inline constexpr uint64_t kBinaryTraceMagic = 0x0A31435254'53504CULL;

class UpdateDecoder {
 public:
  enum class Format { kUnknown, kText, kBinary };

  /// Decodes `size` bytes, appending every complete well-formed record
  /// to `out` (which is NOT cleared). Bytes of a trailing partial record
  /// are carried into the next Consume call.
  void Consume(const char* data, size_t size, stream::UpdateStream* out);

  /// Signals end of stream: a carried partial record becomes one
  /// malformed count (a torn tail was never a complete record). Returns
  /// InvalidArgument iff no header was ever decoded.
  Status Finish(stream::UpdateStream* out);

  /// True once the "n <size>" header (or binary equivalent) is decoded —
  /// callers that size structures by n() gate on this.
  bool have_header() const { return have_header_; }
  uint64_t n() const { return n_; }
  Format format() const { return format_; }
  /// Records skipped under the malformed-input policy.
  uint64_t malformed() const { return malformed_; }
  /// Well-formed updates decoded (letters count as updates).
  uint64_t decoded() const { return decoded_; }

 private:
  void ConsumeText(const char* data, size_t size, stream::UpdateStream* out);
  void ConsumeBinary(const char* data, size_t size, stream::UpdateStream* out);
  /// Parses one complete text line (no terminator). Updates counters.
  void DecodeLine(const char* line, size_t size, stream::UpdateStream* out);

  Format format_ = Format::kUnknown;
  std::string carry_;  // partial record (or pre-detection prefix) bytes
  bool have_header_ = false;
  bool finished_ = false;
  bool discarding_ = false;  // inside an over-long text record; drop to \n
  bool dead_ = false;        // unusable stream (binary n == 0)
  uint64_t n_ = 0;
  uint64_t malformed_ = 0;
  uint64_t decoded_ = 0;
};

/// Writes the text trace encoding: the header, then one update record
/// per update.
void WriteTrace(std::ostream& out, uint64_t n,
                const stream::UpdateStream& updates);
/// Writes a letter stream as a text trace of letter records.
void WriteLetterTrace(std::ostream& out, uint64_t n,
                      const stream::LetterStream& letters);
/// Writes the binary trace encoding (magic, n, 16-byte records).
void WriteBinaryTrace(std::string* out, uint64_t n,
                      const stream::UpdateStream& updates);

}  // namespace lps::io
