#include "src/core/l0_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::core {

L0Sampler::L0Sampler(L0SamplerParams params) : params_(params), n_(params.n) {
  LPS_CHECK(params.n >= 1);
  LPS_CHECK(params.delta > 0 && params.delta < 1);
  s_ = params.s != 0
           ? params.s
           : static_cast<uint64_t>(
                 std::max(4.0, std::ceil(4 * std::log2(1 / params.delta))));
  params_.s = s_;
  const int max_level = FloorLog2(std::max<uint64_t>(n_, 1));
  // Words consumed: one membership word per (level, coordinate) pair plus
  // one choice word per level.
  const uint64_t words_needed =
      (static_cast<uint64_t>(max_level) + 1) * (n_ + 1) + 1;
  if (params.use_nisan) {
    source_ = std::make_unique<prg::NisanSource>(CeilLog2(words_needed),
                                                 params.seed);
  } else {
    source_ = std::make_unique<prg::OracleSource>(params.seed);
  }
  levels_.reserve(static_cast<size_t>(max_level) + 1);
  rates_.reserve(static_cast<size_t>(max_level) + 1);
  for (int k = 0; k <= max_level; ++k) {
    levels_.emplace_back(n_, s_,
                         Mix64(params.seed ^ (0x10ca1ULL + static_cast<uint64_t>(k))));
    rates_.push_back(std::pow(2.0, k) /
                     static_cast<double>(n_));  // |I_k| = 2^k in expectation
  }
}

bool L0Sampler::InLevel(int k, uint64_t i) const {
  if (k == 0) return true;  // I_0 = [n]
  const uint64_t word_index = static_cast<uint64_t>(k) * (n_ + 1) + i;
  return source_->Uniform01(word_index) < rates_[static_cast<size_t>(k)];
}

void L0Sampler::Update(uint64_t i, int64_t delta) {
  const stream::Update u{i, delta};
  UpdateBatch(&u, 1);
}

void L0Sampler::UpdateBatch(const stream::Update* updates, size_t count) {
  // Batch scratch, chunk-sized and per thread: one level's survivors.
  thread_local std::vector<stream::Update> survivors;
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    const stream::Update* batch = updates + start;
    for (int k = 0; k < static_cast<int>(levels_.size()); ++k) {
      auto& level = levels_[static_cast<size_t>(k)];
      if (k == 0) {
        // I_0 = [n]: every update survives, so the whole chunk goes
        // straight to the recovery's interleaved kernel (which validates
        // indices).
        level.UpdateBatch(batch, chunk);
        continue;
      }
      // Filter the chunk through this level's membership test, then hand
      // the survivors to the batch kernel in one go.
      survivors.clear();
      for (size_t t = 0; t < chunk; ++t) {
        if (InLevel(k, batch[t].index)) survivors.push_back(batch[t]);
      }
      if (!survivors.empty()) {
        level.UpdateBatch(survivors.data(), survivors.size());
      }
    }
  }
}

Result<SampleResult> L0Sampler::Sample() const {
  int level;
  return SampleWithLevel(&level);
}

Result<SampleResult> L0Sampler::SampleWithLevel(int* level_out) const {
  for (int k = 0; k < static_cast<int>(levels_.size()); ++k) {
    const auto& level = levels_[static_cast<size_t>(k)];
    auto recovered = level.Recover();
    if (!recovered.ok()) continue;         // DENSE: try the next level
    if (recovered.value().empty()) continue;  // zero restriction
    // Uniform choice among the recovered support, driven by the same
    // random source (a dedicated word per level).
    const auto& entries = recovered.value();
    const uint64_t word =
        source_->Word(levels_.size() * (n_ + 1) + static_cast<uint64_t>(k));
    const auto& entry = entries[word % entries.size()];
    *level_out = k;
    return SampleResult{entry.index, static_cast<double>(entry.value)};
  }
  return Status::Failed("all levels zero or DENSE");
}

void L0Sampler::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.delta);
  writer->WriteU64(params_.s);
  writer->WriteU64(params_.seed);
  writer->WriteBits(params_.use_nisan ? 1 : 0, 1);
}

void L0Sampler::ReadParams(BitReader* reader) {
  L0SamplerParams params;
  params.n = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.s = reader->ReadU64();
  params.seed = reader->ReadU64();
  params.use_nisan = reader->ReadBits(1) != 0;
  *this = L0Sampler(params);
}

size_t L0Sampler::SpaceBits() const {
  size_t bits = source_->SeedBits();
  for (const auto& level : levels_) bits += level.SpaceBits();
  return bits;
}

}  // namespace lps::core
