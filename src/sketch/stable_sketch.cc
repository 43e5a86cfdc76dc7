#include "src/sketch/stable_sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "src/kernels/kernels.h"
#include "src/kernels/stable_transform.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

double StableFromUniforms(double p, double u1, double u2) {
  // The transform itself lives in the kernel layer, where every backend's
  // cauchy_pow_batch reproduces it (bit for bit at p != 1) and
  // stable_batch runs it for the calibration below; this wrapper keeps the
  // sketch-level API for tests.
  return kernels::StableFromUniformsImpl(p, u1, u2);
}

double StableMedianAbs(double p) {
  LPS_CHECK(p > 0 && p <= 2);
  if (p == 1.0) return 1.0;  // median |Cauchy| = tan(pi/4)
  if (p == 2.0) return 0.6744897501960817;  // Phi^{-1}(0.75)
  // Sketches are constructed on many threads at once (server connection
  // readers, idle-tenant rehydration, epoch folds), so the cache is
  // guarded; holding the lock through the calibration also computes each
  // p once.
  static std::mutex mu;
  static std::map<double, double> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(p);
  if (it != cache.end()) return it->second;
  // Deterministic offline calibration with a fixed seed; 200001 samples give
  // the median to ~3 decimal places, ample for a constant-factor estimator.
  // Each sample draws u2 before u1, the order GCC builds have always
  // calibrated with. Two statements, not two arguments of one call, so
  // that no compiler's argument evaluation order can swap them.
  Rng rng(0xace1dULL);
  const size_t kSamples = 200001;
  const size_t kChunk = 4096;
  std::vector<double> values(kSamples), u1(kChunk), u2(kChunk);
  const kernels::KernelTable& kernel = kernels::Active();
  for (size_t at = 0; at < kSamples; at += kChunk) {
    const size_t count = std::min(kChunk, kSamples - at);
    for (size_t i = 0; i < count; ++i) {
      u2[i] = rng.NextDoublePositive();
      u1[i] = rng.NextDoublePositive();
    }
    kernel.stable_batch(p, u1.data(), u2.data(), count, values.data() + at);
  }
  for (double& value : values) value = std::abs(value);
  auto mid = values.begin() + kSamples / 2;
  std::nth_element(values.begin(), mid, values.end());
  cache[p] = *mid;
  return *mid;
}

StableSketch::StableSketch(double p, int rows, uint64_t seed)
    : p_(p), rows_(rows), seed_(seed), normalizer_(StableMedianAbs(p)),
      y_(static_cast<size_t>(rows), 0.0) {
  LPS_CHECK(p > 0 && p <= 2);
  LPS_CHECK(rows >= 1);
}

namespace {
// Key mixing multipliers of the (seed, row, i) hash: row j's variate for
// coordinate i is Stable_p(Mix64(seed ^ j * kRowMul ^ i * kKeyMul)).
constexpr uint64_t kRowMul = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kKeyMul = 0xc2b2ae3d27d4eb4fULL;
}  // namespace

void StableSketch::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

template <typename U>
void StableSketch::ApplyBatch(const U* updates, size_t count) {
  // Hoist the per-item work shared by all rows — the key product of the
  // (row, i) hash and the delta widening — so the row sweep is purely the
  // per-(row, item) mix + stable transform. The scratch is per thread.
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<double> deltas;
  keys.resize(count);
  deltas.resize(count);
  for (size_t t = 0; t < count; ++t) {
    keys[t] = updates[t].index * kKeyMul;
    deltas[t] = static_cast<double>(updates[t].delta);
  }
  const kernels::KernelTable& kernel = kernels::Active();
  for (int j = 0; j < rows_; ++j) {
    // The whole row inner product is one cauchy_pow_batch call: the
    // kernel regenerates Stable_p(row, i) from row_base ^ key and
    // accumulates against the deltas. Every backend is bit-identical to
    // the scalar one except at p = 1, whose vectorized Cauchy transform
    // is query-equivalent.
    const uint64_t row_base =
        seed_ ^ (static_cast<uint64_t>(j) * kRowMul);
    y_[static_cast<size_t>(j)] =
        kernel.cauchy_pow_batch(p_, row_base, keys.data(), deltas.data(),
                                count, y_[static_cast<size_t>(j)]);
  }
}

void StableSketch::UpdateBatch(const stream::ScaledUpdate* updates,
                               size_t count) {
  ApplyBatch(updates, count);
}

void StableSketch::UpdateBatch(const stream::Update* updates, size_t count) {
  ApplyBatch(updates, count);
}

double StableSketch::EstimateNorm() const {
  std::vector<double> magnitudes(y_.size());
  for (size_t j = 0; j < y_.size(); ++j) magnitudes[j] = std::abs(y_[j]);
  auto mid = magnitudes.begin() + static_cast<int64_t>(magnitudes.size() / 2);
  std::nth_element(magnitudes.begin(), mid, magnitudes.end());
  return *mid / normalizer_;
}

void StableSketch::WriteParams(BitWriter* writer) const {
  writer->WriteDouble(p_);
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteU64(seed_);
}

void StableSketch::ReadParams(BitReader* reader) {
  const double p = reader->ReadDouble();
  const int rows = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = StableSketch(p, rows, seed);
}

size_t StableSketch::SpaceBits(int bits_per_counter) const {
  // Counters plus the 64-bit seed that generates the stable variables.
  return y_.size() * static_cast<size_t>(bits_per_counter) + 64;
}

}  // namespace lps::sketch
