#include "src/sketch/dyadic.h"

#include <algorithm>
#include <cmath>

#include "src/field/gf61.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

namespace {

/// Feeds real-valued updates to every level of a tree over [0, 2^log_n)
/// from this thread's two buffers, a chunk at a time: the deltas are
/// copied out once, and per level the block ids index >> l, reduced into
/// the field, overwrite one key buffer that the level's row sweep reads.
/// Each level sees the same keys and deltas in stream order as
/// UpdateBatch on block-id updates would give it, so its counters are
/// bit-identical to that.
template <typename Level>
void FeedLevels(int log_n, const stream::ScaledUpdate* updates, size_t count,
                std::vector<Level>* levels) {
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<double> deltas;
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    const stream::ScaledUpdate* batch = updates + start;
    keys.resize(chunk);
    deltas.resize(chunk);
    for (size_t t = 0; t < chunk; ++t) {
      LPS_CHECK(batch[t].index < (1ULL << log_n));
      deltas[t] = batch[t].delta;
    }
    for (size_t l = 0; l < levels->size(); ++l) {
      for (size_t t = 0; t < chunk; ++t) {
        keys[t] = gf61::Reduce(batch[t].index >> l);
      }
      (*levels)[l].UpdateReduced(keys.data(), deltas.data(), chunk);
    }
  }
}

/// Feeds a combined batch to every level of a tree over [0, 2^log_n). The
/// cascade starts at the first level with no more blocks than the batch
/// has leaves: below it each level hashes the leaves' block ids; at it the
/// leaf sums are added into one dense array of its blocks, and each level
/// above takes pairwise sums of the one below, so none of those levels
/// hashes to find a block. A block whose sum is zero is not swept.
template <typename Level>
void FeedCombined(int log_n, const CombinedBatch& batch,
                  std::vector<Level>* levels) {
  if (batch.count == 0) return;
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<double> block_sums;
  thread_local std::vector<double> deltas;
  keys.resize(batch.count);
  const int top = static_cast<int>(levels->size()) - 1;
  const int cascade = std::max(0, log_n - FloorLog2(batch.count));
  for (int l = 0; l < cascade && l <= top; ++l) {
    for (size_t t = 0; t < batch.count; ++t) {
      keys[t] = gf61::Reduce(batch.index[t] >> l);
    }
    (*levels)[static_cast<size_t>(l)].UpdateReduced(keys.data(), batch.sum,
                                                    batch.count);
  }
  if (cascade > top) return;
  // At most batch.count blocks, so each block id is already reduced.
  size_t width = size_t{1} << (log_n - cascade);
  block_sums.assign(width, 0.0);
  deltas.resize(width);
  for (size_t t = 0; t < batch.count; ++t) {
    block_sums[batch.index[t] >> cascade] += batch.sum[t];
  }
  for (int l = cascade;; ++l) {
    size_t nonzero = 0;
    for (size_t b = 0; b < width; ++b) {
      if (block_sums[b] == 0) continue;
      keys[nonzero] = b;
      deltas[nonzero] = block_sums[b];
      ++nonzero;
    }
    (*levels)[static_cast<size_t>(l)].UpdateReduced(keys.data(), deltas.data(),
                                                    nonzero);
    if (l == top) break;
    width /= 2;
    for (size_t b = 0; b < width; ++b) {
      block_sums[b] = block_sums[2 * b] + block_sums[2 * b + 1];
    }
  }
}

}  // namespace

CombinedBatch CombineRepeats(const stream::Update* updates, size_t count,
                             int log_n) {
  LPS_CHECK(count <= stream::kBatchChunk);
  thread_local std::vector<uint64_t> index;
  thread_local std::vector<double> sum;
  // Open addressing over at least twice as many slots as updates: each
  // slot holds 1 + the position of its index in `index`, 0 when empty.
  thread_local std::vector<uint32_t> slots;
  index.resize(count);
  sum.resize(count);
  const int bits = CeilLog2(2 * std::max<size_t>(count, 1));
  slots.assign(size_t{1} << bits, 0);
  const size_t mask = slots.size() - 1;
  const uint64_t universe = 1ULL << log_n;
  size_t distinct = 0;
  for (size_t t = 0; t < count; ++t) {
    const uint64_t i = updates[t].index;
    LPS_CHECK(i < universe);
    const double delta = static_cast<double>(updates[t].delta);
    size_t slot = static_cast<size_t>(
        ((i ^ (i >> 32)) * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    for (;; slot = (slot + 1) & mask) {
      const uint32_t at = slots[slot];
      if (at == 0) {
        index[distinct] = i;
        sum[distinct] = delta;
        slots[slot] = static_cast<uint32_t>(++distinct);
        break;
      }
      if (index[at - 1] == i) {
        sum[at - 1] += delta;
        break;
      }
    }
  }
  size_t kept = 0;
  for (size_t d = 0; d < distinct; ++d) {
    if (sum[d] == 0) continue;
    index[kept] = index[d];
    sum[kept] = sum[d];
    ++kept;
  }
  return {index.data(), sum.data(), kept};
}

DyadicCountMin::DyadicCountMin(int log_n, int rows, int buckets, uint64_t seed)
    : log_n_(log_n), rows_(rows), buckets_(buckets), seed_(seed) {
  LPS_CHECK(log_n >= 0 && log_n < 63);
  levels_.reserve(static_cast<size_t>(log_n) + 1);
  for (int l = 0; l <= log_n; ++l) {
    levels_.emplace_back(rows, buckets,
                         Mix64(seed ^ (0xd1adULL + static_cast<uint64_t>(l))));
  }
}

void DyadicCountMin::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void DyadicCountMin::UpdateBatch(const stream::ScaledUpdate* updates,
                                 size_t count) {
  FeedLevels(log_n_, updates, count, &levels_);
}

void DyadicCountMin::UpdateBatch(const stream::Update* updates, size_t count) {
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    UpdateCombined(CombineRepeats(updates + start, chunk, log_n_));
  }
}

void DyadicCountMin::UpdateCombined(const CombinedBatch& batch) {
  FeedCombined(log_n_, batch, &levels_);
}

double DyadicCountMin::Query(uint64_t i) const {
  return levels_[0].QueryMin(i);
}

std::vector<uint64_t> DyadicCountMin::HeavyLeaves(double threshold) const {
  std::vector<uint64_t> heavy;
  for (uint64_t leaf : Candidates(threshold)) {
    if (levels_[0].QueryMin(leaf) >= threshold) heavy.push_back(leaf);
  }
  return heavy;
}

std::vector<uint64_t> DyadicCountMin::Candidates(double threshold) const {
  // Frontier of candidate blocks, expanded top-down. At the root level the
  // whole universe is one block (block id 0).
  std::vector<uint64_t> frontier = {0};
  for (int l = log_n_; l >= 1; --l) {
    std::vector<uint64_t> next;
    for (uint64_t block : frontier) {
      if (levels_[static_cast<size_t>(l)].QueryMin(block) >= threshold) {
        next.push_back(block << 1);
        next.push_back((block << 1) | 1);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

void DyadicCountMin::WriteParams(BitWriter* writer) const {
  writer->WriteBits(static_cast<uint64_t>(log_n_), 32);
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteBits(static_cast<uint64_t>(buckets_), 32);
  writer->WriteU64(seed_);
}

void DyadicCountMin::ReadParams(BitReader* reader) {
  const int log_n = static_cast<int>(reader->ReadBits(32));
  const int rows = static_cast<int>(reader->ReadBits(32));
  const int buckets = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = DyadicCountMin(log_n, rows, buckets, seed);
}

size_t DyadicCountMin::SpaceBits(int bits_per_counter) const {
  size_t bits = 0;
  for (const auto& level : levels_) bits += level.SpaceBits(bits_per_counter);
  return bits;
}

DyadicCountSketch::DyadicCountSketch(int log_n, int rows, int buckets,
                                     uint64_t seed)
    : log_n_(log_n), rows_(rows), buckets_(buckets), seed_(seed) {
  LPS_CHECK(log_n >= 0 && log_n < 63);
  // Only the levels a descent reads exist: every query starts at
  // start_level(), so the coarser levels above it would be ingest cost
  // and state with no reader. Each kept level has the seed it would have
  // in the full tree, so answers do not depend on where the tree stops.
  const int top = start_level();
  levels_.reserve(static_cast<size_t>(top) + 1);
  for (int l = 0; l <= top; ++l) {
    levels_.emplace_back(
        rows, buckets, Mix64(seed ^ (0xdc5ULL + static_cast<uint64_t>(l))));
  }
}

void DyadicCountSketch::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void DyadicCountSketch::UpdateBatch(const stream::ScaledUpdate* updates,
                                    size_t count) {
  FeedLevels(log_n_, updates, count, &levels_);
}

void DyadicCountSketch::UpdateBatch(const stream::Update* updates,
                                    size_t count) {
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    FeedCombined(log_n_, CombineRepeats(updates + start, chunk, log_n_),
                 &levels_);
  }
}

double DyadicCountSketch::Query(uint64_t i) const {
  return levels_[0].Query(i);
}

int DyadicCountSketch::start_level() const { return std::max(0, log_n_ - 6); }

std::vector<uint64_t> DyadicCountSketch::HeavyLeaves(double threshold) const {
  std::vector<uint64_t> heavy;
  for (uint64_t leaf : Candidates(threshold)) {
    if (std::abs(levels_[0].Query(leaf)) >= threshold) heavy.push_back(leaf);
  }
  return heavy;
}

std::vector<uint64_t> DyadicCountSketch::Candidates(double threshold) const {
  // Scan every block of the starting level (at most 2^6 of them), then
  // descend. Expansion uses the halved threshold (block estimates are
  // noisy in both directions under general updates); leaves are for the
  // caller to verify.
  const int start = start_level();
  std::vector<uint64_t> frontier;
  for (uint64_t block = 0; block < (1ULL << (log_n_ - start)); ++block) {
    frontier.push_back(block);
  }
  const double expand = threshold / 2;
  for (int l = start; l >= 1; --l) {
    std::vector<uint64_t> next;
    for (uint64_t block : frontier) {
      if (std::abs(levels_[static_cast<size_t>(l)].Query(block)) >= expand) {
        next.push_back(block << 1);
        next.push_back((block << 1) | 1);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

std::vector<uint64_t> DyadicCountSketch::TopCandidates(uint64_t m) const {
  const size_t beam = static_cast<size_t>(std::max<uint64_t>(4 * m, 64));
  const int start = start_level();
  std::vector<std::pair<double, uint64_t>> frontier;  // (|estimate|, block)
  frontier.reserve(1ULL << (log_n_ - start));
  for (uint64_t block = 0; block < (1ULL << (log_n_ - start)); ++block) {
    frontier.emplace_back(
        std::abs(levels_[static_cast<size_t>(start)].Query(block)), block);
  }
  // Keep the beam deterministic: |estimate| desc, block id asc on ties.
  const auto heavier = [](const std::pair<double, uint64_t>& a,
                          const std::pair<double, uint64_t>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::vector<std::pair<double, uint64_t>> next;
  for (int l = start; l >= 1; --l) {
    if (frontier.size() > beam) {
      std::partial_sort(frontier.begin(),
                        frontier.begin() + static_cast<int64_t>(beam),
                        frontier.end(), heavier);
      frontier.resize(beam);
    }
    next.clear();
    next.reserve(2 * frontier.size());
    const auto& child_level = levels_[static_cast<size_t>(l - 1)];
    for (const auto& [est, block] : frontier) {
      for (uint64_t child : {block << 1, (block << 1) | 1}) {
        next.emplace_back(std::abs(child_level.Query(child)), child);
      }
    }
    frontier.swap(next);
  }
  if (frontier.size() > beam) {
    std::partial_sort(frontier.begin(),
                      frontier.begin() + static_cast<int64_t>(beam),
                      frontier.end(), heavier);
    frontier.resize(beam);
  }
  std::vector<uint64_t> leaves;
  leaves.reserve(frontier.size());
  for (const auto& [est, leaf] : frontier) leaves.push_back(leaf);
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

void DyadicCountSketch::WriteParams(BitWriter* writer) const {
  writer->WriteBits(static_cast<uint64_t>(log_n_), 32);
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteBits(static_cast<uint64_t>(buckets_), 32);
  writer->WriteU64(seed_);
}

void DyadicCountSketch::ReadParams(BitReader* reader) {
  const int log_n = static_cast<int>(reader->ReadBits(32));
  const int rows = static_cast<int>(reader->ReadBits(32));
  const int buckets = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = DyadicCountSketch(log_n, rows, buckets, seed);
}

size_t DyadicCountSketch::SpaceBits(int bits_per_counter) const {
  size_t bits = 0;
  for (const auto& level : levels_) bits += level.SpaceBits(bits_per_counter);
  return bits;
}

}  // namespace lps::sketch
