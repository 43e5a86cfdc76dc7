// AVX2 four-lane backend.
//
// GF(2^61 - 1) vector arithmetic: AVX2 has no 64x64 multiply, so a field
// product decomposes into four 32x32 _mm256_mul_epu32 partials. With both
// operands canonical (< 2^61) the cross terms fit 62 bits and the full
// product P = hh*2^64 + mid*2^32 + ll reduces with 2^61 = 1 (mod p):
//   ll        -> (ll & p) + (ll >> 61)
//   mid*2^32  -> ((mid & (2^29-1)) << 32) + (mid >> 29)
//   hh*2^64   -> hh << 3
// The sum stays below 2^63, two fold steps bring it under 2^61 + 4, and a
// single compare/subtract lands in canonical [0, p) — bit-identical to
// gf61::Mul. ScaleToRange and Horner evaluation build on the same pieces,
// so bucket indices and hash values match the scalar backend exactly.
//
// count_rows_apply evaluates c1*x + c0 per row. When all four keys of a
// quad are below 2^32 (every key of a universe up to 2^32, and every tree
// level at or above log n - 32), x_hi = 0 and two partials suffice:
//   ll = c1_lo * x < 2^64    -> (ll & p) + (ll >> 61)
//   hl = c1_hi * x < 2^61    -> ((hl & (2^29-1)) << 32) + (hl >> 29)
// with c1_hi = c1 >> 32 hoisted. Both folds and c0 sum below 2^63, so one
// more fold and one compare/subtract give the canonical residue — the
// value the four-partial MulP followed by AddP returns.
//
// cauchy_pow_batch vectorizes the splitmix64 finalizer with an emulated
// 64-bit low multiply and converts the 53-bit uniforms with the 2^52/2^84
// magic-constant trick (exact), then per p:
//   - p = 1: tan(pi t) = sinpi(t) / sinpi(0.5 - |t|) with a degree-23 odd
//     Taylor polynomial (truncation < 1e-19 on |t| <= 0.5), accumulated
//     four lanes wide. Query-equivalent, not bit-identical: libm's tan
//     differs in the last few ULPs and the lane sums reassociate.
//   - p = 2: the scalar reference (Box-Muller needs libm log/cos).
//   - otherwise: CmsStableAvx2, a lane-for-lane twin of the scalar
//     reference's Chambers-Mallows-Stuck body (same IEEE operations, same
//     order; the kernel sources build with -ffp-contract=off), with the
//     four products added to the row one at a time in stream order.
//     Bit-identical to scalar at every batch size.
#include "src/kernels/backends.h"

#if defined(__AVX2__) && !defined(LPS_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/field/gf61.h"
#include "src/hash/kwise.h"
#include "src/kernels/stable_transform.h"
#include "src/util/random.h"

namespace lps::kernels::internal {

namespace gf = ::lps::gf61;

namespace {

inline __m256i Set1(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// v - p where v >= p, else v; valid for v <= 2^62 (signed compare safe).
inline __m256i CondSubP(__m256i v) {
  const __m256i mask = _mm256_cmpgt_epi64(v, Set1(gf::kP - 1));
  return _mm256_sub_epi64(v, _mm256_and_si256(mask, Set1(gf::kP)));
}

/// gf61::Add on canonical lanes.
inline __m256i AddP(__m256i a, __m256i b) {
  return CondSubP(_mm256_add_epi64(a, b));
}

/// gf61::Mul on canonical lanes; see the file comment for the derivation.
inline __m256i MulP(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);      // a_lo * b_lo < 2^64
  const __m256i lh = _mm256_mul_epu32(a, b_hi);   // a_lo * b_hi < 2^61
  const __m256i hl = _mm256_mul_epu32(a_hi, b);   // a_hi * b_lo < 2^61
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);  // a_hi * b_hi < 2^58
  const __m256i mid = _mm256_add_epi64(lh, hl);   // < 2^62
  __m256i s = _mm256_and_si256(ll, Set1(gf::kP));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(mid, Set1((1ULL << 29) - 1)), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(mid, 29));
  s = _mm256_add_epi64(s, _mm256_slli_epi64(hh, 3));  // < 2^63 in total
  s = _mm256_add_epi64(_mm256_and_si256(s, Set1(gf::kP)),
                       _mm256_srli_epi64(s, 61));
  s = _mm256_add_epi64(_mm256_and_si256(s, Set1(gf::kP)),
                       _mm256_srli_epi64(s, 61));
  return CondSubP(s);
}

/// gf61::Add(gf61::Mul(c1, x), c0) on canonical c1, c0 and lanes x < 2^32,
/// given c1_hi = c1 >> 32; see the file comment for the derivation.
inline __m256i MulAddShortP(__m256i c1, __m256i c1_hi, __m256i x,
                            __m256i c0) {
  const __m256i ll = _mm256_mul_epu32(c1, x);     // c1_lo * x < 2^64
  const __m256i hl = _mm256_mul_epu32(c1_hi, x);  // c1_hi * x < 2^61
  __m256i s = _mm256_and_si256(ll, Set1(gf::kP));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(hl, Set1((1ULL << 29) - 1)), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hl, 29));
  s = _mm256_add_epi64(s, c0);  // < 2^63 in total
  s = _mm256_add_epi64(_mm256_and_si256(s, Set1(gf::kP)),
                       _mm256_srli_epi64(s, 61));
  return CondSubP(s);
}

/// True when every lane is below 2^32.
inline bool AllBelow2To32(__m256i x) {
  return _mm256_testz_si256(x, Set1(0xFFFFFFFF00000000ULL)) != 0;
}

/// hash::ScaleToRange on canonical lanes; range must fit 32 bits (row
/// widths are ints). Writing value*range = C*2^32 + B_lo with
/// C = value_hi*range + (value_lo*range >> 32) < 2^62 gives
///   x >> 61  = C >> 29
///   x mod p  = ((C & (2^29-1)) << 32) | B_lo
/// and the same single branchless correction as the scalar code.
inline __m256i ScaleToRangeVec(__m256i value, __m256i range) {
  const __m256i b_full = _mm256_mul_epu32(value, range);
  const __m256i a_part = _mm256_mul_epu32(_mm256_srli_epi64(value, 32), range);
  const __m256i c = _mm256_add_epi64(a_part, _mm256_srli_epi64(b_full, 32));
  const __m256i q = _mm256_srli_epi64(c, 29);
  const __m256i b_lo = _mm256_and_si256(b_full, Set1(0xFFFFFFFFULL));
  const __m256i rem = _mm256_add_epi64(
      _mm256_or_si256(
          _mm256_slli_epi64(_mm256_and_si256(c, Set1((1ULL << 29) - 1)), 32),
          b_lo),
      q);
  // q += (rem >= p): the compare mask is all-ones, i.e. -1, where true.
  return _mm256_sub_epi64(q, _mm256_cmpgt_epi64(rem, Set1(gf::kP - 1)));
}

/// Low 64 bits of a 64x64 product (no native epi64 multiply in AVX2).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

/// The splitmix64 finalizer (the body of Mix64 after the increment).
inline __m256i Mix64Fin(__m256i z) {
  z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              Set1(0xbf58476d1ce4e5b9ULL));
  z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              Set1(0x94d049bb133111ebULL));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Exact u64 -> double for v < 2^53 (the 53-bit uniform mantissas): the
/// classic 2^52 / 2^84 magic-number reconstruction, every step exact.
inline __m256d U64ToDouble(__m256i v) {
  const __m256i lo =
      _mm256_or_si256(_mm256_and_si256(v, Set1(0xFFFFFFFFULL)),
                      Set1(0x4330000000000000ULL));  // 2^52 + lo32
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(v, 32),
                                     Set1(0x4530000000000000ULL));  // 2^84 + hi32
  const __m256d hi_part = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                        _mm256_set1_pd(0x1.00000001p+84));
  return _mm256_add_pd(hi_part, _mm256_castsi256_pd(lo));
}

/// The 53-bit uniform in (0, 1] of a splitmix64 output word, exactly as
/// the scalar (w >> 11 + 1) * 2^-53.
inline __m256d UniformVec(__m256i w) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d mantissa = U64ToDouble(_mm256_srli_epi64(w, 11));
  return _mm256_mul_pd(_mm256_add_pd(mantissa, one), _mm256_set1_pd(0x1.0p-53));
}

/// sin(pi x) for |x| <= 0.5 (odd polynomial, so the sign is inherent).
inline __m256d SinPiVec(__m256d x) {
  const __m256d x2 = _mm256_mul_pd(x, x);
  __m256d acc = _mm256_set1_pd(kSinPiCoeffs[11]);
  for (int i = 10; i >= 0; --i) {
    acc = _mm256_add_pd(_mm256_mul_pd(acc, x2),
                        _mm256_set1_pd(kSinPiCoeffs[i]));
  }
  return _mm256_mul_pd(acc, x);
}

// The p != 1 transform. Each function below is the lane-for-lane twin of
// a scalar helper in kernels_scalar.cc (SinPiEstrinVec of SinPiEstrin,
// LogVec of Log, ExpVec of Exp, CmsStableAvx2 of CmsStable): keep each
// pair in step, operation for operation. IEEE + and * commute exactly,
// so only the operation sequence has to match, not the operand order.

/// a + x * b, rounded twice (a separate multiply and add, never an FMA).
inline __m256d MulAddRounded(__m256d a, __m256d x, __m256d b) {
  return _mm256_add_pd(a, _mm256_mul_pd(x, b));
}

/// c0 + x * c1 for two scalar coefficients.
inline __m256d Linear(double c0, __m256d x, double c1) {
  return MulAddRounded(_mm256_set1_pd(c0), x, _mm256_set1_pd(c1));
}

inline __m256d SinPiEstrinVec(__m256d x) {
  const double* c = kSinPiCoeffs;
  const __m256d x2 = _mm256_mul_pd(x, x);
  const __m256d x4 = _mm256_mul_pd(x2, x2);
  const __m256d x8 = _mm256_mul_pd(x4, x4);
  const __m256d b0 = MulAddRounded(Linear(c[0], x2, c[1]), x4,
                                   Linear(c[2], x2, c[3]));
  const __m256d b1 = MulAddRounded(Linear(c[4], x2, c[5]), x4,
                                   Linear(c[6], x2, c[7]));
  const __m256d b2 = MulAddRounded(Linear(c[8], x2, c[9]), x4,
                                   Linear(c[10], x2, c[11]));
  return _mm256_mul_pd(MulAddRounded(b0, x8, MulAddRounded(b1, x8, b2)), x);
}

inline __m256d LogVec(__m256d x) {
  using namespace cms;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa = _mm256_and_si256(bits, Set1(0x000fffffffffffffULL));
  const __m256i half = _mm256_and_si256(
      _mm256_add_epi64(mantissa, Set1(0x95f64ULL << 32)), Set1(1ULL << 52));
  const __m256i reduced =
      _mm256_or_si256(mantissa, _mm256_xor_si256(half, Set1(0x3ffULL << 52)));
  const __m256d f =
      _mm256_sub_pd(_mm256_castsi256_pd(reduced), _mm256_set1_pd(1.0));
  // k + 1023 rides in the low mantissa bits of kRoundMagic; subtracting
  // both offsets leaves k exactly, as the scalar int -> double cast does.
  const __m256i biased = _mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                          _mm256_srli_epi64(half, 52));
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(biased, Set1(kRoundMagicBits))),
      _mm256_set1_pd(kRoundMagic + 1023.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d w2 = _mm256_mul_pd(w, w);
  const __m256d t1 = _mm256_mul_pd(
      w, MulAddRounded(Linear(kLg2, w, kLg4), w2, _mm256_set1_pd(kLg6)));
  const __m256d t2 = _mm256_mul_pd(
      z, MulAddRounded(Linear(kLg1, w, kLg3), w2, Linear(kLg5, w, kLg7)));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  const __m256d tail =
      _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                    _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  const __m256d body = _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f);
  return _mm256_sub_pd(_mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi)), body);
}

inline __m256d ExpVec(__m256d y) {
  using namespace cms;
  const __m256d kd = _mm256_add_pd(_mm256_mul_pd(y, _mm256_set1_pd(kInvLn2)),
                                   _mm256_set1_pd(kRoundMagic));
  const __m256d kf = _mm256_sub_pd(kd, _mm256_set1_pd(kRoundMagic));
  // k + 2048 > 0, so a logical shift halves it: k1 + 1024 = floor(k / 2)
  // + 1024, and the biased exponents are k1 + 1023 and k - k1 + 1023.
  const __m256i k_off = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_castpd_si256(kd), Set1(kRoundMagicBits)),
      Set1(2048));
  const __m256i k1_off = _mm256_srli_epi64(k_off, 1);
  const __m256i e1 = _mm256_sub_epi64(k1_off, Set1(1));
  const __m256i e2 = _mm256_sub_epi64(_mm256_sub_epi64(k_off, k1_off), Set1(1));
  const __m256d hi =
      _mm256_sub_pd(y, _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Hi)));
  const __m256d lo = _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Lo));
  const __m256d r = _mm256_sub_pd(hi, lo);
  const __m256d t = _mm256_mul_pd(r, r);
  const __m256d t2 = _mm256_mul_pd(t, t);
  const __m256d poly = MulAddRounded(
      Linear(kP1, t, kP2), t2,
      MulAddRounded(Linear(kP3, t, kP4), t2, _mm256_set1_pd(kP5)));
  const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(t, poly));
  const __m256d ratio = _mm256_div_pd(_mm256_mul_pd(r, c),
                                      _mm256_sub_pd(_mm256_set1_pd(2.0), c));
  const __m256d er = _mm256_sub_pd(
      _mm256_set1_pd(1.0), _mm256_sub_pd(_mm256_sub_pd(lo, ratio), hi));
  const __m256d scaled =
      _mm256_mul_pd(er, _mm256_castsi256_pd(_mm256_slli_epi64(e1, 52)));
  return _mm256_mul_pd(scaled, _mm256_castsi256_pd(_mm256_slli_epi64(e2, 52)));
}

inline __m256d CmsStableAvx2(__m256d p, __m256d inv_p, __m256d q, __m256d u1,
                             __m256d u2) {
  using namespace cms;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_sub_pd(u1, _mm256_set1_pd(0.5));
  const __m256d pt = _mm256_mul_pd(p, t);
  const __m256d abs_pt = _mm256_andnot_pd(sign, pt);
  // The folded sine is >= +0, so OR-ing in pt's sign bit is copysign.
  const __m256d folded = _mm256_min_pd(abs_pt, _mm256_sub_pd(one, abs_pt));
  const __m256d sin_pt =
      _mm256_or_pd(SinPiEstrinVec(folded), _mm256_and_pd(sign, pt));
  const __m256d cos_arg = _mm256_min_pd(u1, _mm256_sub_pd(one, u1));
  const __m256d cos_t =
      _mm256_max_pd(SinPiEstrinVec(cos_arg), _mm256_set1_pd(kCosHalfPi));
  const __m256d abs_qt = _mm256_andnot_pd(sign, _mm256_mul_pd(q, t));
  const __m256d cos_qt =
      SinPiEstrinVec(_mm256_sub_pd(_mm256_set1_pd(0.5), abs_qt));
  const __m256d neg_log_u2 = _mm256_sub_pd(_mm256_setzero_pd(), LogVec(u2));
  const __m256d w =
      _mm256_max_pd(neg_log_u2, _mm256_set1_pd(kMinExponential));
  const __m256d log_ratio = LogVec(_mm256_div_pd(cos_qt, w));
  const __m256d y = _mm256_mul_pd(
      _mm256_sub_pd(_mm256_mul_pd(q, log_ratio), LogVec(cos_t)), inv_p);
  const __m256d clamped =
      _mm256_min_pd(_mm256_max_pd(y, _mm256_set1_pd(kExpArgMin)),
                    _mm256_set1_pd(kExpArgMax));
  return _mm256_mul_pd(sin_pt, ExpVec(clamped));
}

constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // splitmix64 increment

/// cauchy_pow_batch for p in (0, 2) \ {1}: bit-identical to the scalar
/// loop at every count, because each lane runs the scalar transform's
/// operations and the row takes the products one at a time, in order.
double CmsPowBatchAvx2(double p, uint64_t row_base, const uint64_t* keys,
                       const double* deltas, size_t count, double init) {
  const __m256i vbase = Set1(row_base);
  const __m256i vgamma = Set1(kGamma);
  const __m256d vp = _mm256_set1_pd(p);
  const __m256d vinv_p = _mm256_set1_pd(1.0 / p);
  const __m256d vq = _mm256_set1_pd(1.0 - p);
  alignas(32) double x[4];
  double acc = init;
  for (size_t t = 0; t < count; t += 4) {
    const size_t lanes = std::min<size_t>(4, count - t);
    __m256i key;
    if (lanes == 4) {
      key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + t));
    } else {
      // A short tail repeats its first key in the spare lanes. Those
      // lanes are never added: a variate may be +-inf, and 0 * inf = NaN.
      alignas(32) uint64_t tail[4] = {keys[t], keys[t], keys[t], keys[t]};
      for (size_t j = 1; j < lanes; ++j) tail[j] = keys[t + j];
      key = _mm256_load_si256(reinterpret_cast<const __m256i*>(tail));
    }
    // base = Mix64(row_base ^ key); then two SplitMix64 steps from it.
    const __m256i base =
        Mix64Fin(_mm256_add_epi64(_mm256_xor_si256(key, vbase), vgamma));
    const __m256i s1 = _mm256_add_epi64(base, vgamma);
    const __m256i w1 = Mix64Fin(s1);
    const __m256i w2 = Mix64Fin(_mm256_add_epi64(s1, vgamma));
    _mm256_store_pd(
        x, CmsStableAvx2(vp, vinv_p, vq, UniformVec(w1), UniformVec(w2)));
    for (size_t j = 0; j < lanes; ++j) acc += x[j] * deltas[t + j];
  }
  return acc;
}

void KWiseHornerBatchAvx2(const uint64_t* coeffs, size_t k, const uint64_t* xs,
                          size_t count, uint64_t* out) {
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + t));
    __m256i acc = Set1(coeffs[k - 1]);
    for (size_t i = k - 1; i-- > 0;) {
      acc = AddP(MulP(acc, x), Set1(coeffs[i]));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), acc);
  }
  for (; t < count; ++t) {
    out[t] = hash::PolyEval(coeffs, k, xs[t]);
  }
}

void Gf61MulBatchAvx2(const uint64_t* a, const uint64_t* b, size_t count,
                      uint64_t* out) {
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + t));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), MulP(va, vb));
  }
  for (; t < count; ++t) {
    out[t] = gf::Mul(a[t], b[t]);
  }
}

void CountRowsApplyAvx2(const uint64_t* xs, const double* deltas, size_t count,
                        uint64_t b0, uint64_t b1, uint64_t s0, uint64_t s1,
                        bool use_sign, uint64_t range, double* row) {
  const __m256i vb0 = Set1(b0), vb1 = Set1(b1), vrange = Set1(range);
  const __m256i vb1_hi = Set1(b1 >> 32);
  alignas(32) uint64_t idx[4];
  alignas(32) double sd[4];
  size_t t = 0;
  if (use_sign) {
    const __m256i vs0 = Set1(s0), vs1 = Set1(s1), vs1_hi = Set1(s1 >> 32);
    for (; t + 4 <= count; t += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + t));
      __m256i hb, hs;  // bucket and sign hash values, canonical
      if (AllBelow2To32(x)) {
        hb = MulAddShortP(vb1, vb1_hi, x, vb0);
        hs = MulAddShortP(vs1, vs1_hi, x, vs0);
      } else {
        hb = AddP(MulP(vb1, x), vb0);
        hs = AddP(MulP(vs1, x), vs0);
      }
      const __m256i bucket = ScaleToRangeVec(hb, vrange);
      const __m256i bit = _mm256_and_si256(hs, Set1(1));
      // (2*bit - 1) * delta is an exact sign flip in IEEE arithmetic, so
      // flipping the sign bit directly where bit == 0 is bit-identical.
      const __m256i flip =
          _mm256_slli_epi64(_mm256_xor_si256(bit, Set1(1)), 63);
      const __m256d signed_delta = _mm256_xor_pd(
          _mm256_loadu_pd(deltas + t), _mm256_castsi256_pd(flip));
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx), bucket);
      _mm256_store_pd(sd, signed_delta);
      // Scatter stays scalar and in stream order: duplicate buckets within
      // the quad must accumulate in the same order as the scalar loop.
      row[idx[0]] += sd[0];
      row[idx[1]] += sd[1];
      row[idx[2]] += sd[2];
      row[idx[3]] += sd[3];
    }
    for (; t < count; ++t) {
      const uint64_t x = xs[t];
      const uint64_t k = hash::ScaleToRange(hash::PolyEval2(b0, b1, x), range);
      const int64_t bit = static_cast<int64_t>(hash::PolyEval2(s0, s1, x) & 1);
      row[k] += static_cast<double>(2 * bit - 1) * deltas[t];
    }
  } else {
    for (; t + 4 <= count; t += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + t));
      const __m256i hb = AllBelow2To32(x) ? MulAddShortP(vb1, vb1_hi, x, vb0)
                                          : AddP(MulP(vb1, x), vb0);
      const __m256i bucket = ScaleToRangeVec(hb, vrange);
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx), bucket);
      row[idx[0]] += deltas[t];
      row[idx[1]] += deltas[t + 1];
      row[idx[2]] += deltas[t + 2];
      row[idx[3]] += deltas[t + 3];
    }
    for (; t < count; ++t) {
      const uint64_t k =
          hash::ScaleToRange(hash::PolyEval2(b0, b1, xs[t]), range);
      row[k] += deltas[t];
    }
  }
}

void Gf61SyndromeBatchAvx2(uint64_t* syndromes, size_t n, uint64_t power[4],
                           const uint64_t a[4]) {
  __m256i pv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(power));
  const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  alignas(32) uint64_t lanes[4];
  for (size_t r = 0; r < n; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), pv);
    syndromes[r] =
        gf::Add(syndromes[r], gf::Add(gf::Add(lanes[0], lanes[1]),
                                      gf::Add(lanes[2], lanes[3])));
    pv = MulP(pv, av);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(power), pv);
}

double CauchyPowBatchAvx2(double p, uint64_t row_base, const uint64_t* keys,
                          const double* deltas, size_t count, double init) {
  if (p != 1.0) {
    // p = 2 keeps libm's Box-Muller. A lone key (the per-update path)
    // costs less as one scalar transform than as a four-lane step.
    if (p == 2.0 || count < 2) {
      return ScalarTable()->cauchy_pow_batch(p, row_base, keys, deltas, count,
                                             init);
    }
    return CmsPowBatchAvx2(p, row_base, keys, deltas, count, init);
  }
  const __m256i vbase = Set1(row_base);
  const __m256i vgamma = Set1(kGamma);
  // Clamping the polynomial cos at cos(pi/2) as rounded by libm keeps the
  // u1 -> 1 pole's magnitude aligned with what scalar tan produces there.
  const __m256d cos_floor = _mm256_set1_pd(kCosHalfPi);
  __m256d acc = _mm256_setzero_pd();
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + t));
    const __m256i x = _mm256_xor_si256(key, vbase);
    const __m256i base = Mix64Fin(_mm256_add_epi64(x, vgamma));
    // Only w1 feeds the Cauchy transform; w2 is never consumed at p = 1.
    const __m256i w1 = Mix64Fin(_mm256_add_epi64(base, vgamma));
    const __m256d u1 = UniformVec(w1);
    const __m256d targ = _mm256_sub_pd(u1, _mm256_set1_pd(0.5));
    const __m256d abs_t =
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), targ);
    const __m256d sin_num = SinPiVec(targ);
    const __m256d cos_den = _mm256_max_pd(
        SinPiVec(_mm256_sub_pd(_mm256_set1_pd(0.5), abs_t)), cos_floor);
    const __m256d cauchy = _mm256_div_pd(sin_num, cos_den);
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(cauchy, _mm256_loadu_pd(deltas + t)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double total = init + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
  for (; t < count; ++t) {
    const uint64_t base = Mix64(row_base ^ keys[t]);
    uint64_t s = base;
    const uint64_t w1 = SplitMix64(s);
    const double u1 = (static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53;
    total += StableFromUniformsImpl(1.0, u1, 0.5) * deltas[t];
  }
  return total;
}

const KernelTable kAvx2Table = {
    Backend::kAvx2,       KWiseHornerBatchAvx2, Gf61MulBatchAvx2,
    CountRowsApplyAvx2,   Gf61SyndromeBatchAvx2,
    CauchyPowBatchAvx2,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace lps::kernels::internal

#else  // !__AVX2__ || LPS_DISABLE_SIMD

namespace lps::kernels::internal {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace lps::kernels::internal

#endif
