// SSE4.2 two-lane backend: the same lane math as kernels_avx2.cc (see the
// derivation there) on __m128i/__m128d. SSE4.2 is the floor because the
// canonicalizing compare needs _mm_cmpgt_epi64. Exactness taxonomy is
// identical to AVX2: all integer/GF kernels are bit-identical to scalar,
// the p = 1 Cauchy path is query-equivalent, and p != 1 (cauchy_pow_batch
// and stable_batch) calls the scalar reference (no two-lane
// Chambers-Mallows-Stuck twin), so it is exact.
#include "src/kernels/backends.h"

#if defined(__SSE4_2__) && !defined(LPS_DISABLE_SIMD)

#include <nmmintrin.h>
#include <smmintrin.h>

#include <cstddef>
#include <cstdint>

#include "src/field/gf61.h"
#include "src/hash/kwise.h"
#include "src/kernels/stable_transform.h"
#include "src/util/random.h"

namespace lps::kernels::internal {

namespace gf = ::lps::gf61;

namespace {

inline __m128i Set1(uint64_t v) {
  return _mm_set1_epi64x(static_cast<long long>(v));
}

inline __m128i CondSubP(__m128i v) {
  const __m128i mask = _mm_cmpgt_epi64(v, Set1(gf::kP - 1));
  return _mm_sub_epi64(v, _mm_and_si128(mask, Set1(gf::kP)));
}

inline __m128i AddP(__m128i a, __m128i b) {
  return CondSubP(_mm_add_epi64(a, b));
}

inline __m128i MulP(__m128i a, __m128i b) {
  const __m128i a_hi = _mm_srli_epi64(a, 32);
  const __m128i b_hi = _mm_srli_epi64(b, 32);
  const __m128i ll = _mm_mul_epu32(a, b);
  const __m128i lh = _mm_mul_epu32(a, b_hi);
  const __m128i hl = _mm_mul_epu32(a_hi, b);
  const __m128i hh = _mm_mul_epu32(a_hi, b_hi);
  const __m128i mid = _mm_add_epi64(lh, hl);
  __m128i s = _mm_and_si128(ll, Set1(gf::kP));
  s = _mm_add_epi64(s, _mm_srli_epi64(ll, 61));
  s = _mm_add_epi64(
      s, _mm_slli_epi64(_mm_and_si128(mid, Set1((1ULL << 29) - 1)), 32));
  s = _mm_add_epi64(s, _mm_srli_epi64(mid, 29));
  s = _mm_add_epi64(s, _mm_slli_epi64(hh, 3));
  s = _mm_add_epi64(_mm_and_si128(s, Set1(gf::kP)), _mm_srli_epi64(s, 61));
  s = _mm_add_epi64(_mm_and_si128(s, Set1(gf::kP)), _mm_srli_epi64(s, 61));
  return CondSubP(s);
}

inline __m128i ScaleToRangeVec(__m128i value, __m128i range) {
  const __m128i b_full = _mm_mul_epu32(value, range);
  const __m128i a_part = _mm_mul_epu32(_mm_srli_epi64(value, 32), range);
  const __m128i c = _mm_add_epi64(a_part, _mm_srli_epi64(b_full, 32));
  const __m128i q = _mm_srli_epi64(c, 29);
  const __m128i b_lo = _mm_and_si128(b_full, Set1(0xFFFFFFFFULL));
  const __m128i rem = _mm_add_epi64(
      _mm_or_si128(
          _mm_slli_epi64(_mm_and_si128(c, Set1((1ULL << 29) - 1)), 32), b_lo),
      q);
  return _mm_sub_epi64(q, _mm_cmpgt_epi64(rem, Set1(gf::kP - 1)));
}

inline __m128i MulLo64(__m128i a, __m128i b) {
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), b),
                    _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
  return _mm_add_epi64(_mm_mul_epu32(a, b), _mm_slli_epi64(cross, 32));
}

inline __m128i Mix64Fin(__m128i z) {
  z = MulLo64(_mm_xor_si128(z, _mm_srli_epi64(z, 30)),
              Set1(0xbf58476d1ce4e5b9ULL));
  z = MulLo64(_mm_xor_si128(z, _mm_srli_epi64(z, 27)),
              Set1(0x94d049bb133111ebULL));
  return _mm_xor_si128(z, _mm_srli_epi64(z, 31));
}

inline __m128d U64ToDouble(__m128i v) {
  const __m128i lo = _mm_or_si128(_mm_and_si128(v, Set1(0xFFFFFFFFULL)),
                                  Set1(0x4330000000000000ULL));
  const __m128i hi =
      _mm_or_si128(_mm_srli_epi64(v, 32), Set1(0x4530000000000000ULL));
  const __m128d hi_part =
      _mm_sub_pd(_mm_castsi128_pd(hi), _mm_set1_pd(0x1.00000001p+84));
  return _mm_add_pd(hi_part, _mm_castsi128_pd(lo));
}

inline __m128d SinPiVec(__m128d x) {
  const __m128d x2 = _mm_mul_pd(x, x);
  __m128d acc = _mm_set1_pd(kSinPiCoeffs[11]);
  for (int i = 10; i >= 0; --i) {
    acc = _mm_add_pd(_mm_mul_pd(acc, x2), _mm_set1_pd(kSinPiCoeffs[i]));
  }
  return _mm_mul_pd(acc, x);
}

void KWiseHornerBatchSse4(const uint64_t* coeffs, size_t k, const uint64_t* xs,
                          size_t count, uint64_t* out) {
  size_t t = 0;
  for (; t + 2 <= count; t += 2) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + t));
    __m128i acc = Set1(coeffs[k - 1]);
    for (size_t i = k - 1; i-- > 0;) {
      acc = AddP(MulP(acc, x), Set1(coeffs[i]));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + t), acc);
  }
  for (; t < count; ++t) {
    out[t] = hash::PolyEval(coeffs, k, xs[t]);
  }
}

void Gf61MulBatchSse4(const uint64_t* a, const uint64_t* b, size_t count,
                      uint64_t* out) {
  size_t t = 0;
  for (; t + 2 <= count; t += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + t));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + t));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + t), MulP(va, vb));
  }
  for (; t < count; ++t) {
    out[t] = gf::Mul(a[t], b[t]);
  }
}

void CountRowsApplySse4(const uint64_t* xs, const double* deltas, size_t count,
                        uint64_t b0, uint64_t b1, uint64_t s0, uint64_t s1,
                        bool use_sign, uint64_t range, double* row) {
  const __m128i vb0 = Set1(b0), vb1 = Set1(b1), vrange = Set1(range);
  alignas(16) uint64_t idx[2];
  alignas(16) double sd[2];
  size_t t = 0;
  if (use_sign) {
    const __m128i vs0 = Set1(s0), vs1 = Set1(s1);
    for (; t + 2 <= count; t += 2) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + t));
      const __m128i bucket = ScaleToRangeVec(AddP(MulP(vb1, x), vb0), vrange);
      const __m128i bit = _mm_and_si128(AddP(MulP(vs1, x), vs0), Set1(1));
      const __m128i flip = _mm_slli_epi64(_mm_xor_si128(bit, Set1(1)), 63);
      const __m128d signed_delta =
          _mm_xor_pd(_mm_loadu_pd(deltas + t), _mm_castsi128_pd(flip));
      _mm_store_si128(reinterpret_cast<__m128i*>(idx), bucket);
      _mm_store_pd(sd, signed_delta);
      row[idx[0]] += sd[0];
      row[idx[1]] += sd[1];
    }
    for (; t < count; ++t) {
      const uint64_t x = xs[t];
      const uint64_t k = hash::ScaleToRange(hash::PolyEval2(b0, b1, x), range);
      const int64_t bit = static_cast<int64_t>(hash::PolyEval2(s0, s1, x) & 1);
      row[k] += static_cast<double>(2 * bit - 1) * deltas[t];
    }
  } else {
    for (; t + 2 <= count; t += 2) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs + t));
      const __m128i bucket = ScaleToRangeVec(AddP(MulP(vb1, x), vb0), vrange);
      _mm_store_si128(reinterpret_cast<__m128i*>(idx), bucket);
      row[idx[0]] += deltas[t];
      row[idx[1]] += deltas[t + 1];
    }
    for (; t < count; ++t) {
      const uint64_t k =
          hash::ScaleToRange(hash::PolyEval2(b0, b1, xs[t]), range);
      row[k] += deltas[t];
    }
  }
}

void Gf61SyndromeBatchSse4(uint64_t* syndromes, size_t n, uint64_t power[4],
                           const uint64_t a[4]) {
  __m128i p0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(power));
  __m128i p1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(power + 2));
  const __m128i a0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i a1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 2));
  alignas(16) uint64_t l0[2], l1[2];
  for (size_t r = 0; r < n; ++r) {
    _mm_store_si128(reinterpret_cast<__m128i*>(l0), p0);
    _mm_store_si128(reinterpret_cast<__m128i*>(l1), p1);
    syndromes[r] = gf::Add(
        syndromes[r], gf::Add(gf::Add(l0[0], l0[1]), gf::Add(l1[0], l1[1])));
    p0 = MulP(p0, a0);
    p1 = MulP(p1, a1);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(power), p0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(power + 2), p1);
}

double CauchyPowBatchSse4(double p, uint64_t row_base, const uint64_t* keys,
                          const double* deltas, size_t count, double init) {
  if (p != 1.0) {
    return ScalarTable()->cauchy_pow_batch(p, row_base, keys, deltas, count,
                                           init);
  }
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  const __m128i vbase = Set1(row_base);
  const __m128i vgamma = Set1(kGamma);
  const __m128d cos_floor = _mm_set1_pd(kCosHalfPi);
  __m128d acc = _mm_setzero_pd();
  size_t t = 0;
  for (; t + 2 <= count; t += 2) {
    const __m128i key =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + t));
    const __m128i x = _mm_xor_si128(key, vbase);
    const __m128i base = Mix64Fin(_mm_add_epi64(x, vgamma));
    const __m128i w1 = Mix64Fin(_mm_add_epi64(base, vgamma));
    const __m128d u1 =
        _mm_mul_pd(_mm_add_pd(U64ToDouble(_mm_srli_epi64(w1, 11)),
                              _mm_set1_pd(1.0)),
                   _mm_set1_pd(0x1.0p-53));
    const __m128d targ = _mm_sub_pd(u1, _mm_set1_pd(0.5));
    const __m128d abs_t = _mm_andnot_pd(_mm_set1_pd(-0.0), targ);
    const __m128d sin_num = SinPiVec(targ);
    const __m128d cos_den =
        _mm_max_pd(SinPiVec(_mm_sub_pd(_mm_set1_pd(0.5), abs_t)), cos_floor);
    const __m128d cauchy = _mm_div_pd(sin_num, cos_den);
    acc = _mm_add_pd(acc, _mm_mul_pd(cauchy, _mm_loadu_pd(deltas + t)));
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, acc);
  double total = init + (lanes[0] + lanes[1]);
  for (; t < count; ++t) {
    const uint64_t base = Mix64(row_base ^ keys[t]);
    uint64_t s = base;
    const uint64_t w1 = SplitMix64(s);
    const double u1 = (static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53;
    total += StableFromUniformsImpl(1.0, u1, 0.5) * deltas[t];
  }
  return total;
}

void StableBatchSse4(double p, const double* u1, const double* u2,
                     size_t count, double* out) {
  ScalarTable()->stable_batch(p, u1, u2, count, out);
}

const KernelTable kSse4Table = {
    Backend::kSse4,       KWiseHornerBatchSse4, Gf61MulBatchSse4,
    CountRowsApplySse4,   Gf61SyndromeBatchSse4,
    CauchyPowBatchSse4,   StableBatchSse4,
};

}  // namespace

const KernelTable* Sse4Table() { return &kSse4Table; }

}  // namespace lps::kernels::internal

#else  // !__SSE4_2__ || LPS_DISABLE_SIMD

namespace lps::kernels::internal {

const KernelTable* Sse4Table() { return nullptr; }

}  // namespace lps::kernels::internal

#endif
