// Streamed reader for the on-disk bit-stream container
// (WriteBitsToFile's magic + bit count + packed words) — the one way to
// load it. The container flows through the prefetch ring in bounded
// chunks, and nothing is allocated from the header's CLAIMED size: the
// words vector grows with bytes actually delivered and the claim is
// checked against it, so a corrupt header can neither over-allocate nor
// walk past the data. The decoded BitReader still owns the full word
// vector (sketch state is queried in RAM — that residency bound is
// inherent to the container, see docs/operations.md), but peak
// transient memory is words + one ring, not words + a second whole-file
// buffer.
#pragma once

#include <string>

#include "src/io/byte_source.h"
#include "src/util/serialize.h"

namespace lps::io {

/// Reads a WriteBitsToFile container through an async ByteSource
/// ("-" = stdin). Wrong magic, truncated data, or a header/payload size
/// mismatch yield InvalidArgument — never an abort or oversized
/// allocation.
Result<BitReader> ReadBitsStreamed(const std::string& path,
                                   const FileSourceOptions& options = {});

/// Same, over an already-open source (tests, sockets).
Result<BitReader> ReadBitsStreamed(ByteSource* source);

}  // namespace lps::io
