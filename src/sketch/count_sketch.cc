#include "src/sketch/count_sketch.h"

#include <algorithm>
#include <cmath>

#include "src/kernels/kernels.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::sketch {

namespace {

double MedianInPlace(std::vector<double>* v) {
  LPS_CHECK(!v->empty());
  const size_t mid = v->size() / 2;
  std::nth_element(v->begin(), v->begin() + static_cast<int64_t>(mid),
                   v->end());
  double median = (*v)[mid];
  if (v->size() % 2 == 0) {
    const double lower =
        *std::max_element(v->begin(), v->begin() + static_cast<int64_t>(mid));
    median = (median + lower) / 2;
  }
  return median;
}

}  // namespace

CountSketch::CountSketch(int rows, int buckets, uint64_t seed)
    : rows_(rows), buckets_(buckets), seed_(seed),
      table_(static_cast<size_t>(rows) * static_cast<size_t>(buckets), 0.0) {
  LPS_CHECK(rows >= 1 && buckets >= 1);
  bucket_.reserve(static_cast<size_t>(rows));
  sign_.reserve(static_cast<size_t>(rows));
  for (int j = 0; j < rows; ++j) {
    bucket_.emplace_back(2, Mix64(seed ^ (0x1111ULL + 2 * static_cast<uint64_t>(j))));
    sign_.emplace_back(2, Mix64(seed ^ (0x2222ULL + 2 * static_cast<uint64_t>(j) + 1)));
  }
}

void CountSketch::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

template <typename U>
void CountSketch::ApplyBatch(const U* updates, size_t count) {
  // Batch scratch, one chunk-sized pair per thread: keys mod 2^61 - 1,
  // deltas widened.
  thread_local std::vector<uint64_t> reduced_keys;
  thread_local std::vector<double> deltas;
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    reduced_keys.resize(chunk);
    deltas.resize(chunk);
    for (size_t t = 0; t < chunk; ++t) {
      reduced_keys[t] = gf61::Reduce(updates[start + t].index);
      deltas[t] = static_cast<double>(updates[start + t].delta);
    }
    UpdateReduced(reduced_keys.data(), deltas.data(), chunk);
  }
}

void CountSketch::UpdateReduced(const uint64_t* keys, const double* deltas,
                                size_t count) {
  const uint64_t range = static_cast<uint64_t>(buckets_);
  const kernels::KernelTable& kernel = kernels::Active();
  for (int j = 0; j < rows_; ++j) {
    const size_t jj = static_cast<size_t>(j);
    const auto& bc = bucket_[jj].coefficients();
    const auto& sc = sign_[jj].coefficients();
    // Every row is pairwise, so it runs on the dispatched CountRowsApply
    // kernel: bucket + sign evaluation is vectorized, the scatter stays in
    // stream order, and the row is bit-identical on every backend.
    kernel.count_rows_apply(keys, deltas, count, bc[0], bc[1], sc[0], sc[1],
                            /*use_sign=*/true, range,
                            table_.data() + jj * static_cast<size_t>(buckets_));
  }
}

void CountSketch::UpdateBatch(const stream::ScaledUpdate* updates,
                              size_t count) {
  ApplyBatch(updates, count);
}

void CountSketch::UpdateBatch(const stream::Update* updates, size_t count) {
  ApplyBatch(updates, count);
}

double CountSketch::Query(uint64_t i) const {
  std::vector<double> estimates(static_cast<size_t>(rows_));
  for (int j = 0; j < rows_; ++j) {
    const size_t jj = static_cast<size_t>(j);
    const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
    estimates[jj] = static_cast<double>(sign_[jj].Sign(i)) *
                    table_[jj * static_cast<size_t>(buckets_) + k];
  }
  return MedianInPlace(&estimates);
}

std::vector<double> CountSketch::EstimateAll(uint64_t n) const {
  std::vector<double> result(n);
  std::vector<double> estimates(static_cast<size_t>(rows_));
  for (uint64_t i = 0; i < n; ++i) {
    for (int j = 0; j < rows_; ++j) {
      const size_t jj = static_cast<size_t>(j);
      const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
      estimates[jj] = static_cast<double>(sign_[jj].Sign(i)) *
                      table_[jj * static_cast<size_t>(buckets_) + k];
    }
    result[i] = MedianInPlace(&estimates);
  }
  return result;
}

std::vector<std::pair<uint64_t, double>> CountSketch::TopM(uint64_t n,
                                                           uint64_t m) const {
  std::vector<double> est = EstimateAll(n);
  std::vector<uint64_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = i;
  const uint64_t keep = std::min(m, n);
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(keep),
                    order.end(), [&est](uint64_t a, uint64_t b) {
                      const double fa = std::abs(est[a]), fb = std::abs(est[b]);
                      return fa != fb ? fa > fb : a < b;
                    });
  std::vector<std::pair<uint64_t, double>> top;
  top.reserve(keep);
  for (uint64_t r = 0; r < keep; ++r) {
    top.emplace_back(order[r], est[order[r]]);
  }
  return top;
}

std::vector<std::pair<uint64_t, double>> CountSketch::TopM(
    const std::vector<uint64_t>& candidates, uint64_t m) const {
  std::vector<std::pair<uint64_t, double>> scored;
  scored.reserve(candidates.size());
  std::vector<double> estimates(static_cast<size_t>(rows_));
  for (uint64_t i : candidates) {
    for (int j = 0; j < rows_; ++j) {
      const size_t jj = static_cast<size_t>(j);
      const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
      estimates[jj] = static_cast<double>(sign_[jj].Sign(i)) *
                      table_[jj * static_cast<size_t>(buckets_) + k];
    }
    scored.emplace_back(i, MedianInPlace(&estimates));
  }
  // Drop duplicate candidates (callers may merge several generators), then
  // rank exactly like the oracle overload: |estimate| desc, index asc.
  std::sort(scored.begin(), scored.end());
  scored.erase(std::unique(scored.begin(), scored.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               scored.end());
  const uint64_t keep = std::min<uint64_t>(m, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<int64_t>(keep),
                    scored.end(), [](const auto& a, const auto& b) {
                      const double fa = std::abs(a.second),
                                   fb = std::abs(b.second);
                      return fa != fb ? fa > fb : a.first < b.first;
                    });
  scored.resize(keep);
  return scored;
}

double CountSketch::EstimateResidualL2(
    const std::vector<std::pair<uint64_t, double>>& v) const {
  // Subtract the sparse vector in place — touching only the |v| * rows
  // affected buckets — instead of cloning the whole O(rows * buckets)
  // table. The originals are saved and restored bit-exactly afterwards
  // ((y - d) + d is not y in IEEE arithmetic, so re-adding would corrupt
  // the sketch; restoring the saved doubles is exact).
  std::vector<std::pair<size_t, double>> saved;
  saved.reserve(v.size() * static_cast<size_t>(rows_));
  for (const auto& [i, value] : v) {
    for (int j = 0; j < rows_; ++j) {
      const size_t jj = static_cast<size_t>(j);
      const uint64_t k = bucket_[jj].Range(i, static_cast<uint64_t>(buckets_));
      const size_t cell = jj * static_cast<size_t>(buckets_) + k;
      saved.emplace_back(cell, table_[cell]);
      table_[cell] -= static_cast<double>(sign_[jj].Sign(i)) * value;
    }
  }
  std::vector<double> row_f2(static_cast<size_t>(rows_));
  for (int j = 0; j < rows_; ++j) {
    double sum = 0;
    for (int k = 0; k < buckets_; ++k) {
      const double y = table_[static_cast<size_t>(j) *
                                  static_cast<size_t>(buckets_) +
                              static_cast<size_t>(k)];
      sum += y * y;
    }
    row_f2[static_cast<size_t>(j)] = sum;
  }
  // Restore in reverse so buckets hit by several entries of v end at their
  // original value.
  for (size_t r = saved.size(); r-- > 0;) {
    table_[saved[r].first] = saved[r].second;
  }
  const double f2 = MedianInPlace(&row_f2);
  return std::sqrt(std::max(f2, 0.0));
}

void CountSketch::WriteParams(BitWriter* writer) const {
  writer->WriteBits(static_cast<uint64_t>(rows_), 32);
  writer->WriteBits(static_cast<uint64_t>(buckets_), 32);
  writer->WriteU64(seed_);
}

void CountSketch::ReadParams(BitReader* reader) {
  const int rows = static_cast<int>(reader->ReadBits(32));
  const int buckets = static_cast<int>(reader->ReadBits(32));
  const uint64_t seed = reader->ReadU64();
  *this = CountSketch(rows, buckets, seed);
}

size_t CountSketch::SpaceBits(int bits_per_counter) const {
  size_t bits = table_.size() * static_cast<size_t>(bits_per_counter);
  for (const auto& h : bucket_) bits += h.SeedBits();
  for (const auto& h : sign_) bits += h.SeedBits();
  return bits;
}

}  // namespace lps::sketch
