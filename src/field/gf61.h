// Arithmetic in the prime field GF(p) with p = 2^61 - 1 (a Mersenne prime).
//
// This field underlies all algebraic machinery in the library: k-wise
// independent hash families, linear fingerprints, and the syndrome-based
// exact sparse recovery of Lemma 5. The Mersenne structure makes reduction
// two shifts and an add, so field multiplications cost only a few cycles.
//
// Field elements are uint64_t values in [0, p). Signed integers (stream
// update values) are mapped into the field with FromInt64 and back with
// ToInt64; the round-trip is exact for |v| < p/2 ~ 1.15e18, far above the
// poly(n) coordinate bound the paper assumes.
#pragma once

#include <cstdint>

#include "src/util/check.h"

namespace lps::gf61 {

/// The field modulus 2^61 - 1.
inline constexpr uint64_t kP = (1ULL << 61) - 1;

/// Reduces a value in [0, 2^64) to [0, p).
inline uint64_t Reduce(uint64_t x) {
  x = (x & kP) + (x >> 61);
  if (x >= kP) x -= kP;
  return x;
}

inline uint64_t Add(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  if (s >= kP) s -= kP;
  return s;
}

inline uint64_t Sub(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kP - b;
}

/// a + sign * b for sign = +1 or -1: Add or Sub, whichever `sign` names.
inline uint64_t AddSigned(uint64_t a, uint64_t b, int sign) {
  return sign > 0 ? Add(a, b) : Sub(a, b);
}

inline uint64_t Neg(uint64_t a) { return a == 0 ? 0 : kP - a; }

inline uint64_t Mul(uint64_t a, uint64_t b) {
  __uint128_t prod = static_cast<__uint128_t>(a) * b;
  // prod < 2^122. Split at bit 61: prod = hi * 2^61 + lo, and 2^61 = 1 mod p.
  uint64_t lo = static_cast<uint64_t>(prod) & kP;
  uint64_t hi = static_cast<uint64_t>(prod >> 61);
  uint64_t r = lo + (hi & kP) + (hi >> 61);
  r = (r & kP) + (r >> 61);
  if (r >= kP) r -= kP;
  return r;
}

/// a^e by binary exponentiation.
uint64_t Pow(uint64_t a, uint64_t e);

/// Multiplicative inverse; a must be non-zero.
uint64_t Inv(uint64_t a);

/// Maps a signed integer with |v| < p/2 into the field.
inline uint64_t FromInt64(int64_t v) {
  return v >= 0 ? Reduce(static_cast<uint64_t>(v))
                : Neg(Reduce(static_cast<uint64_t>(-v)));
}

/// Inverse of FromInt64: elements below p/2 are non-negative, the rest map
/// to negative integers.
inline int64_t ToInt64(uint64_t a) {
  LPS_DCHECK(a < kP);
  return a <= kP / 2 ? static_cast<int64_t>(a)
                     : -static_cast<int64_t>(kP - a);
}

}  // namespace lps::gf61
