// The byte layer under frames, segment files and sketch containers:
// little-endian fixed-width integers, and the loops that move a whole
// buffer through a file descriptor.
//
// Every fixed-width field the repo puts on a socket or in a file is
// little-endian, whatever the host, and is stored and loaded here. Every
// whole-buffer transfer is one of the four loops below. They retry
// EINTR, take errno at the call that failed (not after a later close or
// unlink ran), and call EOF before the end of the buffer a "short read".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/util/status.h"

namespace lps {

#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kHostIsLittleEndian = true;
#else
inline constexpr bool kHostIsLittleEndian = false;
#endif

/// Stores `value` at `out` in sizeof(T) little-endian bytes.
template <typename T>
inline void StoreLE(T value, void* out) {
  static_assert(std::is_unsigned<T>::value, "unsigned fields only");
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(out, &value, sizeof(T));
  } else {
    uint8_t* bytes = static_cast<uint8_t*>(out);
    for (size_t i = 0; i < sizeof(T); ++i) bytes[i] = uint8_t(value >> (8 * i));
  }
}

/// Loads sizeof(T) little-endian bytes from `in`.
template <typename T>
inline T LoadLE(const void* in) {
  static_assert(std::is_unsigned<T>::value, "unsigned fields only");
  T value = 0;
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(&value, in, sizeof(T));
  } else {
    const uint8_t* bytes = static_cast<const uint8_t*>(in);
    for (size_t i = 0; i < sizeof(T); ++i) value |= T(T(bytes[i]) << (8 * i));
  }
  return value;
}

/// Stores `count` words as little-endian u64s: one memcpy on a
/// little-endian host.
inline void StoreWordsLE(const uint64_t* words, size_t count, uint8_t* out) {
  if (count == 0) return;
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(out, words, count * sizeof(uint64_t));
  } else {
    for (size_t i = 0; i < count; ++i) StoreLE(words[i], out + 8 * i);
  }
}

/// Loads `count` little-endian u64s into `words`.
inline void LoadWordsLE(const uint8_t* in, size_t count, uint64_t* words) {
  if (count == 0) return;
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(words, in, count * sizeof(uint64_t));
  } else {
    for (size_t i = 0; i < count; ++i) words[i] = LoadLE<uint64_t>(in + 8 * i);
  }
}

/// InvalidArgument("<what> <path>: <strerror(err)>"). Pass the errno of
/// the call that failed, read before any cleanup call can clobber it.
Status Errno(int err, const char* what, const std::string& path);

/// Sends all of `data` on a socket. MSG_NOSIGNAL: a peer that hung up is
/// EPIPE, not a SIGPIPE that kills the process. Failed("send: <error>").
Status SendAll(int fd, const void* data, size_t size);

/// Reads exactly `size` bytes from a socket or pipe; `*got` receives the
/// bytes read either way. Failed("read: <error>") on a read error,
/// InvalidArgument("short read") when EOF comes first.
Status ReadAll(int fd, void* data, size_t size, size_t* got);

/// Writes all of `data` to the file `path` open on `fd`.
/// Errno(..., "write failed", path) on error.
Status WriteAll(int fd, const void* data, size_t size, const std::string& path);

/// Reads exactly `size` bytes at `offset` of the file `path` open on
/// `fd`. Errno(..., "read failed", path) on error, InvalidArgument("short
/// read <path>") when the file ends first.
Status PreadAll(int fd, void* data, size_t size, uint64_t offset,
                const std::string& path);

}  // namespace lps
