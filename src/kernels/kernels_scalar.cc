// Scalar reference backend. The integer/GF bodies are the exact loops that
// lived inside the sketches' UpdateBatch methods before the kernel layer
// was extracted, and this file holds the one definition of the p-stable
// transform (StableFromUniformsImpl): libm tan at p = 1, libm Box-Muller
// at p = 2, and for every other p the portable Chambers-Mallows-Stuck body
// that the AVX2 backend mirrors lane for lane. Every SIMD backend is
// tested against these bodies, and the bit-identity suites (batch
// equivalence, merge, window subtraction, server WINDOW) hold on every
// backend except at p = 1, whose vector form is query-equivalent.
#include <cmath>
#include <cstring>

#include "src/field/gf61.h"
#include "src/hash/kwise.h"
#include "src/kernels/backends.h"
#include "src/kernels/stable_transform.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::kernels::internal {

namespace gf = ::lps::gf61;

namespace {

void KWiseHornerBatchScalar(const uint64_t* coeffs, size_t k,
                            const uint64_t* xs, size_t count, uint64_t* out) {
  if (k == 2) {
    // Pairwise is by far the most common family; keep both coefficients in
    // registers like the historical count-sketch loop did.
    const uint64_t c0 = coeffs[0], c1 = coeffs[1];
    for (size_t t = 0; t < count; ++t) {
      out[t] = hash::PolyEval2(c0, c1, xs[t]);
    }
    return;
  }
  for (size_t t = 0; t < count; ++t) {
    out[t] = hash::PolyEval(coeffs, k, xs[t]);
  }
}

void Gf61MulBatchScalar(const uint64_t* a, const uint64_t* b, size_t count,
                        uint64_t* out) {
  for (size_t t = 0; t < count; ++t) {
    out[t] = gf::Mul(a[t], b[t]);
  }
}

void CountRowsApplyScalar(const uint64_t* xs, const double* deltas,
                          size_t count, uint64_t b0, uint64_t b1, uint64_t s0,
                          uint64_t s1, bool use_sign, uint64_t range,
                          double* row) {
  if (use_sign) {
    // The count-sketch row: the sign bit is turned into +-1.0
    // arithmetically instead of through an unpredictable branch.
    for (size_t t = 0; t < count; ++t) {
      const uint64_t x = xs[t];
      const uint64_t k = hash::ScaleToRange(hash::PolyEval2(b0, b1, x), range);
      const int64_t bit = static_cast<int64_t>(hash::PolyEval2(s0, s1, x) & 1);
      row[k] += static_cast<double>(2 * bit - 1) * deltas[t];
    }
  } else {
    for (size_t t = 0; t < count; ++t) {
      const uint64_t k =
          hash::ScaleToRange(hash::PolyEval2(b0, b1, xs[t]), range);
      row[k] += deltas[t];
    }
  }
}

void Gf61SyndromeBatchScalar(uint64_t* syndromes, size_t n, uint64_t power[4],
                             const uint64_t a[4]) {
  // Four independent chains through one loop so the CPU can overlap the
  // serial power *= a multiply latencies (the historical sparse_recovery
  // hand-rolled interleave).
  for (size_t r = 0; r < n; ++r) {
    syndromes[r] = gf::Add(syndromes[r], gf::Add(gf::Add(power[0], power[1]),
                                                 gf::Add(power[2], power[3])));
    for (size_t j = 0; j < 4; ++j) power[j] = gf::Mul(power[j], a[j]);
  }
}

inline uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

inline double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

// The comparisons of _mm256_min_pd / _mm256_max_pd, which the AVX2 twin
// uses: the second operand wins ties and NaNs.
inline double Min(double a, double b) { return a < b ? a : b; }
inline double Max(double a, double b) { return a > b ? a : b; }

/// sin(pi x) for |x| <= 0.5 over kSinPiCoeffs in Estrin's scheme: pairs
/// in x^2, then x^4, then x^8, a dependency chain four multiply-adds deep
/// where Horner's is twelve.
inline double SinPiEstrin(double x) {
  const double* c = kSinPiCoeffs;
  const double x2 = x * x;
  const double x4 = x2 * x2;
  const double x8 = x4 * x4;
  const double b0 = (c[0] + c[1] * x2) + x4 * (c[2] + c[3] * x2);
  const double b1 = (c[4] + c[5] * x2) + x4 * (c[6] + c[7] * x2);
  const double b2 = (c[8] + c[9] * x2) + x4 * (c[10] + c[11] * x2);
  return (b0 + x8 * (b1 + x8 * b2)) * x;
}

/// fdlibm's log for a positive normal x: x = 2^k (1 + f) with 1 + f in
/// [sqrt(2)/2, sqrt(2)), then the s = f / (2 + f) series, its polynomials
/// split in Estrin's scheme. Always takes fdlibm's f^2/2 branch, so it
/// stays branch-free for the vector twin.
inline double Log(double x) {
  using namespace cms;
  const uint64_t bits = Bits(x);
  const uint64_t mantissa = bits & 0x000fffffffffffffULL;
  // Bit 52 set iff the mantissa is >= sqrt(2) - 1: then halve into range.
  const uint64_t half = (mantissa + (0x95f64ULL << 32)) & (1ULL << 52);
  const double f = FromBits(mantissa | (half ^ (0x3ffULL << 52))) - 1.0;
  const double k = static_cast<double>(
      static_cast<int64_t>((bits >> 52) + (half >> 52)) - 1023);  // exact
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double w2 = w * w;
  const double t1 = w * ((kLg2 + w * kLg4) + w2 * kLg6);
  const double t2 = z * ((kLg1 + w * kLg3) + w2 * (kLg5 + w * kLg7));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

/// fdlibm's exp for y in [kExpArgMin, kExpArgMax]: y = k ln2 + r with
/// |r| <= ln2 / 2, then 2^k as two normal powers of two so the product
/// overflows to +inf or underflows to 0 by itself at the ends.
inline double Exp(double y) {
  using namespace cms;
  const double kd = y * kInvLn2 + kRoundMagic;
  const double kf = kd - kRoundMagic;
  const int64_t k = static_cast<int64_t>(Bits(kd) - kRoundMagicBits);
  const double hi = y - kf * kLn2Hi;
  const double lo = kf * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double t2 = t * t;
  const double c =
      r - t * ((kP1 + t * kP2) + t2 * ((kP3 + t * kP4) + t2 * kP5));
  const double er = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  const int64_t k1 = ((k + 2048) >> 1) - 1024;  // floor(k / 2)
  const int64_t k2 = k - k1;
  return er * FromBits(static_cast<uint64_t>(k1 + 1023) << 52) *
         FromBits(static_cast<uint64_t>(k2 + 1023) << 52);
}

/// Chambers-Mallows-Stuck for p in (0, 2) \ {1}; see stable_transform.h.
/// CmsStableAvx2 in kernels_avx2.cc runs these operations in this order.
inline double CmsStable(double p, double inv_p, double u1, double u2) {
  using namespace cms;
  const double q = 1.0 - p;
  const double t = u1 - 0.5;  // theta / pi, exact on the 2^-53 grid
  const double pt = p * t;
  const double abs_pt = std::fabs(pt);
  // |pt| < 1; sin(pi x) = sin(pi (1 - x)) folds it onto the polynomial's
  // [0, 1/2] (1 - |pt| is exact wherever it is the smaller).
  const double sin_pt =
      std::copysign(SinPiEstrin(Min(abs_pt, 1.0 - abs_pt)), pt);
  // cos(theta) = sin(pi min(u1, 1 - u1)), an exact argument for every u1
  // (on the uniforms' 2^-53 grid it equals 1/2 - |t|).
  const double cos_t = Max(SinPiEstrin(Min(u1, 1.0 - u1)), kCosHalfPi);
  const double cos_qt = SinPiEstrin(0.5 - std::fabs(q * t));
  const double w = Max(0.0 - Log(u2), kMinExponential);
  const double y = (q * Log(cos_qt / w) - Log(cos_t)) * inv_p;
  return sin_pt * Exp(Min(Max(y, kExpArgMin), kExpArgMax));
}

double CauchyPowBatchScalar(double p, uint64_t row_base, const uint64_t* keys,
                            const double* deltas, size_t count, double init) {
  double acc = init;
  for (size_t t = 0; t < count; ++t) {
    // Two independent uniforms in (0,1] from a hash of (row_base ^ key):
    // the same (row, i) always yields the same variate, keeping the
    // sketch linear.
    const uint64_t base = Mix64(row_base ^ keys[t]);
    uint64_t s = base;
    const uint64_t w1 = SplitMix64(s);
    const uint64_t w2 = SplitMix64(s);
    const double u1 = (static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = (static_cast<double>(w2 >> 11) + 1.0) * 0x1.0p-53;
    acc += StableFromUniformsImpl(p, u1, u2) * deltas[t];
  }
  return acc;
}

void StableBatchScalar(double p, const double* u1, const double* u2,
                       size_t count, double* out) {
  for (size_t t = 0; t < count; ++t) {
    out[t] = StableFromUniformsImpl(p, u1[t], u2[t]);
  }
}

const KernelTable kScalarTable = {
    Backend::kScalar,        KWiseHornerBatchScalar, Gf61MulBatchScalar,
    CountRowsApplyScalar,    Gf61SyndromeBatchScalar,
    CauchyPowBatchScalar,    StableBatchScalar,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace lps::kernels::internal

namespace lps::kernels {

double StableFromUniformsImpl(double p, double u1, double u2) {
  LPS_CHECK(p > 0 && p <= 2);
  constexpr double pi = 3.141592653589793238462643383279502884;
  if (p == 2.0) {
    // Gaussian by Box-Muller; N(0,1) is 2-stable under the Euclidean norm.
    return std::sqrt(-2.0 * std::log(u2)) * std::cos(2.0 * pi * u1);
  }
  if (p == 1.0) {
    return std::tan(pi * (u1 - 0.5));  // standard Cauchy
  }
  // 1 / p is off the dependency chain; the multiply that uses it is not.
  return internal::CmsStable(p, 1.0 / p, u1, u2);
}

}  // namespace lps::kernels
