// The kernel layer: one SIMD surface for all 21 sketch kinds.
//
// Every structure in the library reduces its UpdateBatch hot loop to a
// handful of shared primitives — k-wise polynomial hashing over a key
// batch (Horner in GF(2^61 - 1)), signed count-sketch row scatter,
// GF(2^61 - 1) syndrome power chains, and the p-stable variate transform.
// This layer names those primitives once and provides a scalar reference
// backend plus SSE4.2 and AVX2 backends behind a one-time runtime CPUID
// dispatch, so vectorizing a kernel here accelerates every sketch at once.
//
// Exactness taxonomy (enforced by tests/kernels_test.cc):
//   - kwise_horner_batch, gf61_mul_batch, count_rows_apply and
//     gf61_syndrome_batch are EXACT on every backend: field arithmetic is
//     integer, results are canonical elements of [0, p), and
//     count_rows_apply scatters in stream order, so whole-sketch state is
//     bit-identical no matter which backend ran.
//   - cauchy_pow_batch is EXACT for p != 1 on every backend, and
//     stable_batch at every p. The reference is the scalar backend's
//     portable Chambers-Mallows-Stuck transform (stable_transform.h);
//     AVX2 runs a four-lane twin of it that performs the same IEEE
//     operations in the same order and adds the products to the row one
//     at a time, in stream order, and SSE4.2 calls the scalar kernel.
//     p = 2 (Box-Muller) is scalar everywhere.
//     The AVX2/SSE4.2 p = 1 (Cauchy) path of cauchy_pow_batch replaces
//     libm's tan with a polynomial sin(pi x) ratio and a vectorized
//     accumulation order, so it is query-equivalent (relative error
//     ~1e-15, ULP-bounded by the tests) but not bit-identical to scalar.
//
// Backend selection: the first call to Active() probes the CPU
// (__builtin_cpu_supports) and picks the widest compiled-in backend;
// LPS_KERNELS=scalar|sse4|avx2 in the environment overrides the choice
// (falling back, with a one-line stderr note, when the request is not
// available). Tests and the bench backend sweep switch backends
// in-process with ForceBackendForTesting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lps::kernels {

enum class Backend : int {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
};

/// Stable lowercase name ("scalar", "sse4", "avx2") — the vocabulary of
/// the LPS_KERNELS override, BENCH_throughput.json's "kernel_backend"
/// field, and the lps_serve STATS report.
const char* BackendName(Backend backend);

/// One backend's implementation of every kernel. All function pointers are
/// always non-null; a backend that has no vector win for some kernel
/// installs the scalar reference.
struct KernelTable {
  Backend backend;

  /// out[t] = coeffs[k-1] * xs[t]^(k-1) + ... + coeffs[0] over
  /// GF(2^61 - 1), Horner from the leading coefficient; xs must already be
  /// reduced to [0, p). k >= 1. EXACT.
  /// AVX2 runs four quads of keys through the k - 1 chained steps side by
  /// side, and each step with two 32x32 multiplies instead of four when
  /// all 16 keys are below 2^32 (the same short product as
  /// count_rows_apply, with the running value, canonical after every
  /// step, in the c1 role); a group with any longer key takes the general
  /// product. tests/kernels_test.cc pins short, long and mixed groups
  /// against scalar up to k = 110.
  void (*kwise_horner_batch)(const uint64_t* coeffs, size_t k,
                             const uint64_t* xs, size_t count, uint64_t* out);

  /// out[t] = a[t] * b[t] over GF(2^61 - 1); inputs in [0, p). EXACT.
  void (*gf61_mul_batch)(const uint64_t* a, const uint64_t* b, size_t count,
                         uint64_t* out);

  /// One pairwise count-sketch/count-min row over a whole batch:
  ///   k_t    = floor(PolyEval2(b0, b1, xs[t]) * range / p)
  ///   sign_t = use_sign ? (PolyEval2(s0, s1, xs[t]) & 1 ? +1 : -1) : +1
  ///   row[k_t] += sign_t * deltas[t]          (in stream order)
  /// The scatter is performed in t order on every backend, so the row is
  /// bit-identical to the scalar loop. EXACT.
  /// AVX2 evaluates each PolyEval2 with two 32x32 multiplies instead of
  /// four when all four keys of a quad are below 2^32: with x_hi = 0 the
  /// partials c1_lo*x < 2^64 and c1_hi*x < 2^61 fold, with c0, below
  /// 2^63, so one more fold and one conditional subtract give the
  /// canonical residue, the value gf61::Add(gf61::Mul(c1, x), c0) returns.
  /// A quad with any longer key takes the general four-multiply product;
  /// tests/kernels_test.cc pins both paths against scalar.
  void (*count_rows_apply)(const uint64_t* xs, const double* deltas,
                           size_t count, uint64_t b0, uint64_t b1, uint64_t s0,
                           uint64_t s1, bool use_sign, uint64_t range,
                           double* row);

  /// Four interleaved syndrome power chains (sparse recovery, Lemma 5):
  ///   for r in [0, n): syndromes[r] += power[0] + ... + power[3];
  ///                    power[j] *= a[j]
  /// all over GF(2^61 - 1). Field addition is exact, so any order of the
  /// four-way sum yields identical syndromes. EXACT.
  void (*gf61_syndrome_batch)(uint64_t* syndromes, size_t n, uint64_t power[4],
                              const uint64_t a[4]);

  /// The stable-sketch row inner product: returns
  ///   init + sum_t Stable_p(row_base, keys[t]) * deltas[t]
  /// where Stable_p regenerates the (row, i) p-stable variate from two
  /// splitmix64 uniforms seeded by Mix64(row_base ^ key), and the sum runs
  /// left to right from init. p != 1 is EXACT on every backend (the AVX2
  /// twin of the scalar transform keeps that order); p = 1 uses a
  /// vectorized Cauchy transform on the SIMD backends (query-equivalent,
  /// see the taxonomy above). AVX2 computes the variates of four quads of
  /// keys side by side and still adds them to the sum in stream order
  /// (at p = 1, quad after quad into one four-lane sum).
  double (*cauchy_pow_batch)(double p, uint64_t row_base, const uint64_t* keys,
                             const double* deltas, size_t count, double init);

  /// out[t] = Stable_p(u1[t], u2[t]), the transform StableFromUniformsImpl
  /// applies, for uniforms in (0, 1] the caller drew (StableMedianAbs's
  /// calibration). EXACT on every backend: AVX2 runs the p != 1 twin
  /// four quads at a time, and p = 1, p = 2 and the other backends run
  /// the scalar transform.
  void (*stable_batch)(double p, const double* u1, const double* u2,
                       size_t count, double* out);
};

/// The dispatched kernel table. First call performs the one-time CPUID +
/// LPS_KERNELS selection; later calls are a single atomic load.
const KernelTable& Active();

/// Identity of the dispatched backend (for STATS, benches, logs).
Backend ActiveBackend();
const char* ActiveBackendName();

/// Every backend this binary can actually run: compiled in at build time
/// and supported by the current CPU. Always contains kScalar.
std::vector<Backend> AvailableBackends();

/// Re-points the dispatch at a specific backend so one process can compare
/// backends (kernels_test, the bench backend sweep). Returns false — and
/// leaves the dispatch unchanged — if the backend is not available.
bool ForceBackendForTesting(Backend backend);

}  // namespace lps::kernels
