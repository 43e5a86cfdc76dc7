#include "src/norm/l0_norm.h"

#include <algorithm>
#include <cmath>

#include "src/field/gf61.h"
#include "src/kernels/kernels.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::norm {

namespace gf = ::lps::gf61;

L0Estimator::L0Estimator(uint64_t n, int reps, uint64_t seed)
    : n_(n), seed_(seed), reps_(reps),
      levels_(CeilLog2(std::max<uint64_t>(n, 2)) + 1),
      fingerprints_(static_cast<size_t>(reps) * static_cast<size_t>(levels_),
                    0) {
  LPS_CHECK(reps >= 1);
  level_hash_.reserve(static_cast<size_t>(reps));
  fp_hash_.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    level_hash_.emplace_back(
        2, Mix64(seed ^ (0x10a0ULL + static_cast<uint64_t>(r))));
    // Degree-3 polynomial weights: a non-trivial linear combination of
    // values at distinct points vanishes w.p. <= 3/p per repetition, and
    // the estimator takes a median over reps anyway.
    fp_hash_.emplace_back(
        4, Mix64(seed ^ (0x20b0ULL + static_cast<uint64_t>(r))));
  }
}

void L0Estimator::Update(uint64_t i, int64_t delta) {
  const stream::Update u{i, delta};
  UpdateBatch(&u, 1);
}

void L0Estimator::UpdateBatch(const stream::Update* updates, size_t count) {
  // Batch scratch, chunk-sized and per thread: keys mod 2^61 - 1, deltas
  // in the field, then per repetition the level hash and fingerprint
  // weight of each key.
  thread_local std::vector<uint64_t> reduced_keys;
  thread_local std::vector<uint64_t> field_deltas;
  thread_local std::vector<uint64_t> level_evals;
  thread_local std::vector<uint64_t> weighted;
  const kernels::KernelTable& kernel = kernels::Active();
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    reduced_keys.resize(chunk);
    field_deltas.resize(chunk);
    for (size_t t = 0; t < chunk; ++t) {
      LPS_CHECK(updates[start + t].index < n_);
      reduced_keys[t] = gf::Reduce(updates[start + t].index);
      field_deltas[t] = gf::FromInt64(updates[start + t].delta);
    }
    level_evals.resize(chunk);
    weighted.resize(chunk);
    for (int r = 0; r < reps_; ++r) {
      const size_t rr = static_cast<size_t>(r);
      const auto& lc = level_hash_[rr].coefficients();
      const auto& fc = fp_hash_[rr].coefficients();
      uint64_t* fps = fingerprints_.data() + rr * static_cast<size_t>(levels_);
      // Both hash sweeps and the delta weighting run on the dispatched
      // kernels (exact field arithmetic, bit-identical on every backend);
      // only the level-depth floor(-log2 u) and the nested fingerprint
      // adds stay scalar.
      kernel.kwise_horner_batch(lc.data(), lc.size(), reduced_keys.data(),
                                chunk, level_evals.data());
      kernel.kwise_horner_batch(fc.data(), fc.size(), reduced_keys.data(),
                                chunk, weighted.data());
      kernel.gf61_mul_batch(field_deltas.data(), weighted.data(), chunk,
                            weighted.data());
      for (size_t t = 0; t < chunk; ++t) {
        const double u = (static_cast<double>(level_evals[t]) + 1.0) /
                         static_cast<double>(gf::kP);
        // Nested membership: i survives to levels 0 .. deepest.
        const int deepest = std::min(
            levels_ - 1, static_cast<int>(std::floor(-std::log2(u))));
        for (int l = 0; l <= deepest; ++l) {
          fps[l] = gf::Add(fps[l], weighted[t]);
        }
      }
    }
  }
}

std::vector<int> L0Estimator::DeepestNonZeroLevels() const {
  std::vector<int> deepest(static_cast<size_t>(reps_), -1);
  for (int r = 0; r < reps_; ++r) {
    for (int l = levels_ - 1; l >= 0; --l) {
      if (fingerprints_[static_cast<size_t>(r) * static_cast<size_t>(levels_) +
                        static_cast<size_t>(l)] != 0) {
        deepest[static_cast<size_t>(r)] = l;
        break;
      }
    }
  }
  return deepest;
}

double L0Estimator::Estimate() const {
  std::vector<int> deepest = DeepestNonZeroLevels();
  std::nth_element(deepest.begin(),
                   deepest.begin() + static_cast<int64_t>(deepest.size() / 2),
                   deepest.end());
  const int med = deepest[deepest.size() / 2];
  if (med < 0) return 0.0;
  return std::log(2.0) * std::pow(2.0, med);
}

void L0Estimator::WriteParams(BitWriter* writer) const {
  writer->WriteU64(n_);
  writer->WriteBits(static_cast<uint64_t>(reps_), 32);
  writer->WriteU64(seed_);
}

void L0Estimator::ReadParams(BitReader* reader) {
  const uint64_t n = reader->ReadU64();
  const int reps = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = L0Estimator(n, reps, seed);
}

size_t L0Estimator::SpaceBits() const {
  size_t bits = fingerprints_.size() * 61;
  for (const auto& h : level_hash_) bits += h.SeedBits();
  for (const auto& h : fp_hash_) bits += h.SeedBits();
  return bits;
}

}  // namespace lps::norm
