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
// Short keys: a product a*x + c with canonical a, c and x below 2^32 has
// x_hi = 0, so two partials suffice:
//   ll = a_lo * x < 2^64    -> (ll & p) + (ll >> 61)
//   hl = a_hi * x < 2^61    -> ((hl & (2^29-1)) << 32) + (hl >> 29)
// Both folds and c sum below 2^63, so one more fold and one
// compare/subtract give the canonical residue — the value the four-partial
// MulP followed by AddP returns. count_rows_apply (a = c1) takes this path
// per quad, kwise_horner_batch (a = the running Horner value, canonical
// after every step) per group of quads, when one _mm256_testz_si256 finds
// every key below 2^32: every key of a universe up to 2^32, and every tree
// level at or above log n - 32.
//
// Grouped chains: a k-wise Horner (k - 1 chained field products, 19 at
// the p != 1 sampler's k = 20) and the p-stable transform (Mix64 ->
// uniforms -> log -> divide -> log -> exp) are dependency chains hundreds
// of cycles deep. Pushed through one quad at a time, the out-of-order
// window holds little more than that quad and the vector ports idle. So
// their helpers take a group of G quads (Epi<G>, Pd<G>) and run each step
// on every quad of the group before the next step: G independent chains
// overlap. The kernels run G = 4 over a batch's body and G = 1 over the
// quads left after it. Grouping only reorders independent work; each
// lane's operations and the order in which products reach a sum are those
// of a quad at a time.
//
// cauchy_pow_batch vectorizes the splitmix64 finalizer with an emulated
// 64-bit low multiply and converts the 53-bit uniforms with the 2^52/2^84
// magic-constant trick (exact), then per p:
//   - p = 1: tan(pi t) = sinpi(t) / sinpi(0.5 - |t|) with a degree-23 odd
//     Taylor polynomial (truncation < 1e-19 on |t| <= 0.5), accumulated
//     four lanes wide, quad after quad in stream order. Query-equivalent,
//     not bit-identical: libm's tan differs in the last few ULPs and the
//     lane sums reassociate.
//   - p = 2: the scalar reference (Box-Muller needs libm log/cos).
//   - otherwise: CmsStableAvx2, a lane-for-lane twin of the scalar
//     reference's Chambers-Mallows-Stuck body (same IEEE operations, same
//     order; the kernel sources build with -ffp-contract=off), with the
//     products added to the row one at a time in stream order.
//     Bit-identical to scalar at every batch size.
// stable_batch runs CmsStableAvx2 on caller-drawn uniforms, so it is
// bit-identical to scalar too.
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

/// gf61::Add(gf61::Mul(a, x), c) on canonical a, c and lanes x < 2^32,
/// given a_hi = a >> 32; see the file comment for the derivation.
inline __m256i MulAddShortP(__m256i a, __m256i a_hi, __m256i x, __m256i c) {
  const __m256i ll = _mm256_mul_epu32(a, x);     // a_lo * x < 2^64
  const __m256i hl = _mm256_mul_epu32(a_hi, x);  // a_hi * x < 2^61
  __m256i s = _mm256_and_si256(ll, Set1(gf::kP));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(ll, 61));
  s = _mm256_add_epi64(
      s, _mm256_slli_epi64(_mm256_and_si256(hl, Set1((1ULL << 29) - 1)), 32));
  s = _mm256_add_epi64(s, _mm256_srli_epi64(hl, 29));
  s = _mm256_add_epi64(s, c);  // < 2^63 in total
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

// ---------------------------------------------------------------------------
// Groups of quads: G quads of 64-bit lanes (Epi) or of doubles (Pd). The
// helpers below run each step on all G quads before the next step.
// ---------------------------------------------------------------------------

template <int G>
struct Epi {
  __m256i q[G];
};

template <int G>
struct Pd {
  __m256d q[G];
};

constexpr int kGroup = 4;                  // quads per group in a batch's body
constexpr size_t kGroupLanes = 4 * kGroup;  // keys per group

template <int G>
inline Epi<G> LoadEpi(const uint64_t* src) {
  Epi<G> v;
  for (int g = 0; g < G; ++g) {
    v.q[g] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 4 * g));
  }
  return v;
}

/// The first `lanes` (1..4) values of src in one quad; the other lanes read
/// as 0 without touching memory past src[lanes - 1].
inline Epi<1> LoadTail(const uint64_t* src, size_t lanes) {
  const __m256i mask = _mm256_cmpgt_epi64(Set1(lanes),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
  return {{_mm256_maskload_epi64(reinterpret_cast<const long long*>(src),
                                 mask)}};
}

template <int G>
inline void StoreEpi(uint64_t* dst, const Epi<G>& v) {
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4 * g), v.q[g]);
  }
}

template <int G>
inline Pd<G> LoadPd(const double* src) {
  Pd<G> v;
  for (int g = 0; g < G; ++g) v.q[g] = _mm256_loadu_pd(src + 4 * g);
  return v;
}

template <int G>
inline void StorePd(double* dst, const Pd<G>& v) {
  for (int g = 0; g < G; ++g) _mm256_storeu_pd(dst + 4 * g, v.q[g]);
}

/// Horner over G quads of canonical keys: k - 1 steps acc = acc * x + c,
/// each on every quad before the next. kShortKeys selects the two-partial
/// product, valid only when every key is below 2^32.
template <bool kShortKeys, int G>
inline Epi<G> Horner(const uint64_t* coeffs, size_t k, const Epi<G>& x) {
  Epi<G> acc;
  for (int g = 0; g < G; ++g) acc.q[g] = Set1(coeffs[k - 1]);
  for (size_t i = k - 1; i-- > 0;) {
    const __m256i c = Set1(coeffs[i]);
    for (int g = 0; g < G; ++g) {
      acc.q[g] = kShortKeys ? MulAddShortP(acc.q[g],
                                           _mm256_srli_epi64(acc.q[g], 32),
                                           x.q[g], c)
                            : AddP(MulP(acc.q[g], x.q[g]), c);
    }
  }
  return acc;
}

/// kwise_horner_batch over 4G keys; the short product when all are < 2^32.
template <int G>
inline void HornerGroup(const uint64_t* coeffs, size_t k, const uint64_t* xs,
                        uint64_t* out) {
  const Epi<G> x = LoadEpi<G>(xs);
  __m256i any = x.q[0];
  for (int g = 1; g < G; ++g) any = _mm256_or_si256(any, x.q[g]);
  StoreEpi(out, AllBelow2To32(any) ? Horner<true>(coeffs, k, x)
                                   : Horner<false>(coeffs, k, x));
}

constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // splitmix64 increment

/// One splitmix64 increment on every lane.
template <int G>
inline Epi<G> AddGamma(Epi<G> s) {
  for (int g = 0; g < G; ++g) s.q[g] = _mm256_add_epi64(s.q[g], Set1(kGamma));
  return s;
}

/// The splitmix64 finalizer (the body of Mix64 after the increment).
template <int G>
inline Epi<G> Mix64Fin(Epi<G> z) {
  for (int g = 0; g < G; ++g) {
    __m256i v = z.q[g];
    v = MulLo64(_mm256_xor_si256(v, _mm256_srli_epi64(v, 30)),
                Set1(0xbf58476d1ce4e5b9ULL));
    v = MulLo64(_mm256_xor_si256(v, _mm256_srli_epi64(v, 27)),
                Set1(0x94d049bb133111ebULL));
    z.q[g] = _mm256_xor_si256(v, _mm256_srli_epi64(v, 31));
  }
  return z;
}

/// The splitmix64 state from which the (row, key) variate draws u1: one
/// increment past its seed Mix64(row_base ^ key). u2 is drawn one
/// increment later.
template <int G>
inline Epi<G> FirstUniformState(__m256i vbase, Epi<G> key) {
  for (int g = 0; g < G; ++g) key.q[g] = _mm256_xor_si256(key.q[g], vbase);
  return AddGamma(Mix64Fin(AddGamma(key)));
}

/// The 53-bit uniform in (0, 1] of a splitmix64 output word, exactly as
/// the scalar (w >> 11 + 1) * 2^-53.
template <int G>
inline Pd<G> UniformVec(const Epi<G>& w) {
  Pd<G> u;
  for (int g = 0; g < G; ++g) {
    const __m256d mantissa = U64ToDouble(_mm256_srli_epi64(w.q[g], 11));
    u.q[g] = _mm256_mul_pd(_mm256_add_pd(mantissa, _mm256_set1_pd(1.0)),
                           _mm256_set1_pd(0x1.0p-53));
  }
  return u;
}

/// sin(pi x) for |x| <= 0.5 (odd polynomial, so the sign is inherent).
template <int G>
inline Pd<G> SinPiVec(const Pd<G>& x) {
  Pd<G> out;
  for (int g = 0; g < G; ++g) {
    const __m256d x2 = _mm256_mul_pd(x.q[g], x.q[g]);
    __m256d acc = _mm256_set1_pd(kSinPiCoeffs[11]);
    for (int i = 10; i >= 0; --i) {
      acc = _mm256_add_pd(_mm256_mul_pd(acc, x2),
                          _mm256_set1_pd(kSinPiCoeffs[i]));
    }
    out.q[g] = _mm256_mul_pd(acc, x.q[g]);
  }
  return out;
}

/// The p = 1 variates of 4G keys: tan(pi (u1 - 1/2)) as the sin(pi x)
/// ratio. Only u1 feeds the Cauchy transform; u2 is never drawn.
template <int G>
inline Pd<G> CauchyVariates(__m256i vbase, const Epi<G>& key) {
  const Pd<G> u1 = UniformVec(Mix64Fin(FirstUniformState(vbase, key)));
  Pd<G> t, cos_arg;
  for (int g = 0; g < G; ++g) {
    t.q[g] = _mm256_sub_pd(u1.q[g], _mm256_set1_pd(0.5));
    const __m256d abs_t = _mm256_andnot_pd(_mm256_set1_pd(-0.0), t.q[g]);
    cos_arg.q[g] = _mm256_sub_pd(_mm256_set1_pd(0.5), abs_t);
  }
  const Pd<G> sin_num = SinPiVec(t);
  const Pd<G> cos_den = SinPiVec(cos_arg);
  Pd<G> cauchy;
  for (int g = 0; g < G; ++g) {
    // Clamping the polynomial cos at cos(pi/2) as rounded by libm keeps
    // the u1 -> 1 pole's magnitude aligned with what scalar tan produces.
    cauchy.q[g] = _mm256_div_pd(
        sin_num.q[g], _mm256_max_pd(cos_den.q[g], _mm256_set1_pd(kCosHalfPi)));
  }
  return cauchy;
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

template <int G>
inline Pd<G> SinPiEstrinVec(const Pd<G>& x) {
  const double* c = kSinPiCoeffs;
  Pd<G> out;
  for (int g = 0; g < G; ++g) {
    const __m256d x2 = _mm256_mul_pd(x.q[g], x.q[g]);
    const __m256d x4 = _mm256_mul_pd(x2, x2);
    const __m256d x8 = _mm256_mul_pd(x4, x4);
    const __m256d b0 = MulAddRounded(Linear(c[0], x2, c[1]), x4,
                                     Linear(c[2], x2, c[3]));
    const __m256d b1 = MulAddRounded(Linear(c[4], x2, c[5]), x4,
                                     Linear(c[6], x2, c[7]));
    const __m256d b2 = MulAddRounded(Linear(c[8], x2, c[9]), x4,
                                     Linear(c[10], x2, c[11]));
    out.q[g] = _mm256_mul_pd(MulAddRounded(b0, x8, MulAddRounded(b1, x8, b2)),
                             x.q[g]);
  }
  return out;
}

template <int G>
inline Pd<G> LogVec(const Pd<G>& x) {
  using namespace cms;
  Pd<G> out;
  for (int g = 0; g < G; ++g) {
    const __m256i bits = _mm256_castpd_si256(x.q[g]);
    const __m256i mantissa =
        _mm256_and_si256(bits, Set1(0x000fffffffffffffULL));
    const __m256i half = _mm256_and_si256(
        _mm256_add_epi64(mantissa, Set1(0x95f64ULL << 32)), Set1(1ULL << 52));
    const __m256i reduced = _mm256_or_si256(
        mantissa, _mm256_xor_si256(half, Set1(0x3ffULL << 52)));
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
    const __m256d hfsq =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
    const __m256d tail =
        _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
    const __m256d body = _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f);
    out.q[g] = _mm256_sub_pd(_mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi)), body);
  }
  return out;
}

template <int G>
inline Pd<G> ExpVec(const Pd<G>& y) {
  using namespace cms;
  Pd<G> out;
  for (int g = 0; g < G; ++g) {
    const __m256d kd =
        _mm256_add_pd(_mm256_mul_pd(y.q[g], _mm256_set1_pd(kInvLn2)),
                      _mm256_set1_pd(kRoundMagic));
    const __m256d kf = _mm256_sub_pd(kd, _mm256_set1_pd(kRoundMagic));
    // k + 2048 > 0, so a logical shift halves it: k1 + 1024 = floor(k / 2)
    // + 1024, and the biased exponents are k1 + 1023 and k - k1 + 1023.
    const __m256i k_off = _mm256_add_epi64(
        _mm256_sub_epi64(_mm256_castpd_si256(kd), Set1(kRoundMagicBits)),
        Set1(2048));
    const __m256i k1_off = _mm256_srli_epi64(k_off, 1);
    const __m256i e1 = _mm256_sub_epi64(k1_off, Set1(1));
    const __m256i e2 =
        _mm256_sub_epi64(_mm256_sub_epi64(k_off, k1_off), Set1(1));
    const __m256d hi =
        _mm256_sub_pd(y.q[g], _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Hi)));
    const __m256d lo = _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Lo));
    const __m256d r = _mm256_sub_pd(hi, lo);
    const __m256d t = _mm256_mul_pd(r, r);
    const __m256d t2 = _mm256_mul_pd(t, t);
    const __m256d poly = MulAddRounded(
        Linear(kP1, t, kP2), t2,
        MulAddRounded(Linear(kP3, t, kP4), t2, _mm256_set1_pd(kP5)));
    const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(t, poly));
    const __m256d ratio = _mm256_div_pd(
        _mm256_mul_pd(r, c), _mm256_sub_pd(_mm256_set1_pd(2.0), c));
    const __m256d er = _mm256_sub_pd(
        _mm256_set1_pd(1.0), _mm256_sub_pd(_mm256_sub_pd(lo, ratio), hi));
    const __m256d scaled =
        _mm256_mul_pd(er, _mm256_castsi256_pd(_mm256_slli_epi64(e1, 52)));
    out.q[g] =
        _mm256_mul_pd(scaled, _mm256_castsi256_pd(_mm256_slli_epi64(e2, 52)));
  }
  return out;
}

/// p, 1 / p and q = 1 - p of the p != 1 transform, broadcast.
struct CmsParams {
  explicit CmsParams(double p_in)
      : p(_mm256_set1_pd(p_in)),
        inv_p(_mm256_set1_pd(1.0 / p_in)),
        q(_mm256_set1_pd(1.0 - p_in)) {}
  __m256d p, inv_p, q;
};

template <int G>
inline Pd<G> CmsStableAvx2(const CmsParams& c, const Pd<G>& u1,
                           const Pd<G>& u2) {
  using namespace cms;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  Pd<G> pt, folded, cos_arg, cos_qt_arg;
  for (int g = 0; g < G; ++g) {
    const __m256d t = _mm256_sub_pd(u1.q[g], _mm256_set1_pd(0.5));
    pt.q[g] = _mm256_mul_pd(c.p, t);
    const __m256d abs_pt = _mm256_andnot_pd(sign, pt.q[g]);
    folded.q[g] = _mm256_min_pd(abs_pt, _mm256_sub_pd(one, abs_pt));
    cos_arg.q[g] = _mm256_min_pd(u1.q[g], _mm256_sub_pd(one, u1.q[g]));
    const __m256d abs_qt = _mm256_andnot_pd(sign, _mm256_mul_pd(c.q, t));
    cos_qt_arg.q[g] = _mm256_sub_pd(_mm256_set1_pd(0.5), abs_qt);
  }
  const Pd<G> sin_folded = SinPiEstrinVec(folded);
  const Pd<G> cos_t_poly = SinPiEstrinVec(cos_arg);
  const Pd<G> cos_qt = SinPiEstrinVec(cos_qt_arg);
  const Pd<G> log_u2 = LogVec(u2);
  Pd<G> ratio, cos_t;
  for (int g = 0; g < G; ++g) {
    const __m256d w =
        _mm256_max_pd(_mm256_sub_pd(_mm256_setzero_pd(), log_u2.q[g]),
                      _mm256_set1_pd(kMinExponential));
    ratio.q[g] = _mm256_div_pd(cos_qt.q[g], w);
    cos_t.q[g] = _mm256_max_pd(cos_t_poly.q[g], _mm256_set1_pd(kCosHalfPi));
  }
  const Pd<G> log_ratio = LogVec(ratio);
  const Pd<G> log_cos_t = LogVec(cos_t);
  Pd<G> clamped;
  for (int g = 0; g < G; ++g) {
    const __m256d y = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_mul_pd(c.q, log_ratio.q[g]), log_cos_t.q[g]),
        c.inv_p);
    clamped.q[g] = _mm256_min_pd(_mm256_max_pd(y, _mm256_set1_pd(kExpArgMin)),
                                 _mm256_set1_pd(kExpArgMax));
  }
  const Pd<G> scale = ExpVec(clamped);
  Pd<G> out;
  for (int g = 0; g < G; ++g) {
    // The folded sine is >= +0, so OR-ing in pt's sign bit is copysign.
    const __m256d sin_pt = _mm256_or_pd(sin_folded.q[g],
                                        _mm256_and_pd(sign, pt.q[g]));
    out.q[g] = _mm256_mul_pd(sin_pt, scale.q[g]);
  }
  return out;
}

/// The p != 1 variates of 4G keys, from the uniforms the scalar kernel draws.
template <int G>
inline Pd<G> CmsVariates(const CmsParams& c, __m256i vbase,
                         const Epi<G>& key) {
  const Epi<G> s1 = FirstUniformState(vbase, key);
  const Pd<G> u1 = UniformVec(Mix64Fin(s1));
  const Pd<G> u2 = UniformVec(Mix64Fin(AddGamma(s1)));
  return CmsStableAvx2(c, u1, u2);
}

/// acc plus each quad's lane-wise products with its deltas, quad after quad.
template <int G>
inline __m256d AddProducts(__m256d acc, const Pd<G>& x, const double* deltas) {
  for (int g = 0; g < G; ++g) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(x.q[g], _mm256_loadu_pd(deltas + 4 * g)));
  }
  return acc;
}

/// cauchy_pow_batch for p in (0, 2) \ {1}: bit-identical to the scalar
/// loop at every count, because each lane runs the scalar transform's
/// operations and the row takes the products one at a time, in order.
double CmsPowBatchAvx2(double p, uint64_t row_base, const uint64_t* keys,
                       const double* deltas, size_t count, double init) {
  const CmsParams c(p);
  const __m256i vbase = Set1(row_base);
  alignas(32) double x[kGroupLanes];
  double acc = init;
  size_t t = 0;
  for (; t + kGroupLanes <= count; t += kGroupLanes) {
    StorePd(x, CmsVariates(c, vbase, LoadEpi<kGroup>(keys + t)));
    for (size_t j = 0; j < kGroupLanes; ++j) acc += x[j] * deltas[t + j];
  }
  for (; t < count; t += 4) {
    // A short last quad's spare lanes read key 0. They are never added: a
    // variate may be +-inf, and 0 * inf = NaN.
    const size_t lanes = std::min<size_t>(4, count - t);
    StorePd(x, CmsVariates(c, vbase, LoadTail(keys + t, lanes)));
    for (size_t j = 0; j < lanes; ++j) acc += x[j] * deltas[t + j];
  }
  return acc;
}

void KWiseHornerBatchAvx2(const uint64_t* coeffs, size_t k, const uint64_t* xs,
                          size_t count, uint64_t* out) {
  size_t t = 0;
  for (; t + kGroupLanes <= count; t += kGroupLanes) {
    HornerGroup<kGroup>(coeffs, k, xs + t, out + t);
  }
  for (; t + 4 <= count; t += 4) HornerGroup<1>(coeffs, k, xs + t, out + t);
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
  __m256d acc = _mm256_setzero_pd();
  size_t t = 0;
  for (; t + kGroupLanes <= count; t += kGroupLanes) {
    acc = AddProducts(
        acc, CauchyVariates(vbase, LoadEpi<kGroup>(keys + t)), deltas + t);
  }
  for (; t + 4 <= count; t += 4) {
    acc = AddProducts(acc, CauchyVariates(vbase, LoadEpi<1>(keys + t)),
                      deltas + t);
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

void StableBatchAvx2(double p, const double* u1, const double* u2,
                     size_t count, double* out) {
  size_t t = 0;
  if (p != 1.0 && p != 2.0) {
    const CmsParams c(p);
    for (; t + kGroupLanes <= count; t += kGroupLanes) {
      StorePd(out + t, CmsStableAvx2(c, LoadPd<kGroup>(u1 + t),
                                     LoadPd<kGroup>(u2 + t)));
    }
    for (; t + 4 <= count; t += 4) {
      StorePd(out + t, CmsStableAvx2(c, LoadPd<1>(u1 + t), LoadPd<1>(u2 + t)));
    }
  }
  // p = 1 and p = 2 keep libm's tan and Box-Muller, and the last count % 4
  // variates cost less one at a time.
  ScalarTable()->stable_batch(p, u1 + t, u2 + t, count - t, out + t);
}

const KernelTable kAvx2Table = {
    Backend::kAvx2,       KWiseHornerBatchAvx2, Gf61MulBatchAvx2,
    CountRowsApplyAvx2,   Gf61SyndromeBatchAvx2,
    CauchyPowBatchAvx2,   StableBatchAvx2,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace lps::kernels::internal

#else  // !__AVX2__ || LPS_DISABLE_SIMD

namespace lps::kernels::internal {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace lps::kernels::internal

#endif
