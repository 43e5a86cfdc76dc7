// Strict numeric flag values for lps_serve and lps_worker.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>

namespace lps::tools {

/// Cap on duration flags (ms or us): 2^40 ms is 34 years, and no clock
/// sum such as `now + interval` or `last_touch + timeout` can wrap.
constexpr uint64_t kMaxDuration = uint64_t{1} << 40;

/// Parses all of `text` as a decimal integer in [0, max]. A sign, a
/// space, a trailing character or a value past 2^64 - 1 is refused.
inline bool ParseU64(const char* text, uint64_t* out,
                     uint64_t max = std::numeric_limits<uint64_t>::max()) {
  const char* end = text + std::strlen(text);
  uint64_t value = 0;
  const auto parsed = std::from_chars(text, end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace lps::tools
