#include "src/core/fis_l0_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::core {

FisL0Sampler::FisL0Sampler(uint64_t n, uint64_t seed, int buckets)
    : n_(n), levels_(CeilLog2(std::max<uint64_t>(n, 2)) + 1),
      buckets_(buckets > 0 ? buckets
                           : std::max(8, 2 * CeilLog2(std::max<uint64_t>(n, 2)))),
      seed_(seed), level_hash_(2, Mix64(seed ^ 0xf15aULL)) {
  bucket_hash_.reserve(static_cast<size_t>(levels_));
  table_.resize(static_cast<size_t>(levels_));
  for (int l = 0; l < levels_; ++l) {
    bucket_hash_.emplace_back(
        2, Mix64(seed ^ (0xf15bULL + static_cast<uint64_t>(l))));
    auto& row = table_[static_cast<size_t>(l)];
    row.reserve(static_cast<size_t>(buckets_));
    for (int b = 0; b < buckets_; ++b) {
      row.emplace_back(n, Mix64(seed ^ (0xf15cULL +
                                        static_cast<uint64_t>(l) * 1024 +
                                        static_cast<uint64_t>(b))));
    }
  }
}

int FisL0Sampler::DeepestLevel(uint64_t i) const {
  const double u = level_hash_.UniformPositive(i);
  return std::min(levels_ - 1, static_cast<int>(std::floor(-std::log2(u))));
}

void FisL0Sampler::Update(uint64_t i, int64_t delta) {
  LPS_CHECK(i < n_);
  const int deepest = DeepestLevel(i);
  for (int l = 0; l <= deepest; ++l) {
    const size_t ll = static_cast<size_t>(l);
    const uint64_t b = bucket_hash_[ll].Range(i, static_cast<uint64_t>(buckets_));
    table_[ll][b].Update(i, delta);
  }
}

void FisL0Sampler::UpdateBatch(const stream::Update* updates, size_t count) {
  for (size_t t = 0; t < count; ++t) {
    Update(updates[t].index, updates[t].delta);
  }
}

void FisL0Sampler::WriteParams(BitWriter* writer) const {
  writer->WriteU64(n_);
  writer->WriteU64(seed_);
  writer->WriteBits(static_cast<uint64_t>(buckets_), 32);
}

void FisL0Sampler::ReadParams(BitReader* reader) {
  const uint64_t n = reader->ReadU64();
  const uint64_t seed = reader->ReadU64();
  const int buckets = static_cast<int>(reader->ReadBits(32));
  *this = FisL0Sampler(n, seed, buckets);
}

Result<SampleResult> FisL0Sampler::Sample() const {
  // Scan from the sparsest level down: the first level with any valid
  // 1-sparse bucket has few survivors, so the choice is near-uniform over
  // the support.
  for (int l = levels_ - 1; l >= 0; --l) {
    std::vector<recovery::OneSparse::Entry> found;
    for (const auto& bucket : table_[static_cast<size_t>(l)]) {
      if (bucket.IsZero()) continue;
      auto entry = bucket.Recover();
      if (entry.ok()) found.push_back(entry.value());
    }
    if (!found.empty()) {
      const uint64_t pick =
          Mix64(seed_ ^ 0xc40f5eULL ^ static_cast<uint64_t>(l)) % found.size();
      return SampleResult{found[pick].index,
                          static_cast<double>(found[pick].value)};
    }
  }
  return Status::Failed("no level yielded a 1-sparse bucket");
}

size_t FisL0Sampler::SpaceBits() const {
  size_t bits = level_hash_.SeedBits();
  for (const auto& h : bucket_hash_) bits += h.SeedBits();
  for (const auto& row : table_) {
    for (const auto& bucket : row) bits += bucket.SpaceBits();
  }
  return bits;
}

}  // namespace lps::core
