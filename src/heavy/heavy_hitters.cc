#include "src/heavy/heavy_hitters.h"

#include <algorithm>
#include <cmath>

#include "src/field/gf61.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::heavy {

namespace {

int DefaultRows(uint64_t n) {
  return std::max(7, 2 * CeilLog2(std::max<uint64_t>(n, 2)) + 1);
}

// Threshold constant: with point error <= (phi/8) ||x||_p and a norm
// estimate within (1 +- 0.1), tau = 0.75 phi N~ separates heavy
// (|x*| >= 0.875 phi N) from light (|x*| <= 0.625 phi N); see header.
constexpr double kThresholdFraction = 0.75;

// Default rows of the dyadic candidate generators. Small on purpose:
// candidates are verified in the flat sketch, so the tree only has to
// find them (and for the count-min tree, min-over-rows stays a sound
// strict-turnstile overestimate at any row count).
constexpr int kDefaultDyadicRows = 5;

}  // namespace

CsHeavyHitters::CsHeavyHitters(Params params)
    : params_(params),
      m_(std::max(4, static_cast<int>(
                         std::ceil(std::pow(8.0 / params.phi, params.p))))),
      cs_(params.rows > 0 ? params.rows : DefaultRows(params.n), 6 * m_,
          Mix64(params.seed ^ 0xbeefULL)),
      dyadic_(CeilLog2(std::max<uint64_t>(params.n, 1)),
              params.dyadic_rows > 0 ? params.dyadic_rows : kDefaultDyadicRows,
              6 * m_, Mix64(params.seed ^ 0xd7adULL)) {
  LPS_CHECK(params.n >= 1);
  LPS_CHECK(params.p > 0 && params.p <= 2);
  LPS_CHECK(params.phi > 0 && params.phi < 1);
  const bool exact_l1 = params.strict_turnstile && params.p == 1.0;
  const bool cs_f2 = params.p == 2.0;
  if (!exact_l1 && !cs_f2) {
    const int rows = params.norm_rows > 0 ? params.norm_rows : 1200;
    norm_ = std::make_unique<norm::LpNormEstimator>(
        params.p, rows, Mix64(params.seed ^ 0xbef0ULL));
  }
}

void CsHeavyHitters::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void CsHeavyHitters::UpdateBatch(const stream::ScaledUpdate* updates,
                                 size_t count) {
  cs_.UpdateBatch(updates, count);
  dyadic_.UpdateBatch(updates, count);
  for (size_t t = 0; t < count; ++t) running_sum_ += updates[t].delta;
  if (norm_) norm_->UpdateBatch(updates, count);
}

void CsHeavyHitters::UpdateBatch(const stream::Update* updates, size_t count) {
  scaled_.resize(count);
  for (size_t t = 0; t < count; ++t) {
    scaled_[t] = {updates[t].index, static_cast<double>(updates[t].delta)};
  }
  UpdateBatch(scaled_.data(), count);
}

double CsHeavyHitters::NormEstimate() const {
  if (params_.strict_turnstile && params_.p == 1.0) return running_sum_;
  if (params_.p == 2.0) {
    // The count-sketch rows are themselves F2 estimators: each row's sum of
    // squared buckets has mean F2 and relative sd ~ sqrt(2/buckets); the
    // median over Theta(log n) rows is a (1 +- 0.1) estimate w.h.p. No
    // extra sketch needed. Realized by querying the residual estimator
    // with an empty sparse vector.
    return cs_.EstimateResidualL2({});
  }
  return norm_->EstimateRaw();
}

std::vector<uint64_t> CsHeavyHitters::Query() const {
  const double norm = NormEstimate();
  const double tau = kThresholdFraction * params_.phi * norm;
  std::vector<uint64_t> heavy;
  if (tau <= 0) return heavy;  // zero vector: nothing can be heavy
  // Dyadic descent to O(#heavy log n) candidate leaves, each verified by
  // the same flat point estimate the universe scan used — so a candidate
  // passes iff the oracle would report it.
  for (uint64_t i : dyadic_.Candidates(tau)) {
    if (i >= params_.n) continue;  // power-of-two padding never carries mass
    if (std::abs(cs_.Query(i)) >= tau) heavy.push_back(i);
  }
  std::sort(heavy.begin(), heavy.end());
  return heavy;
}

std::vector<uint64_t> CsHeavyHitters::QueryOracle() const {
  const double norm = NormEstimate();
  const double tau = kThresholdFraction * params_.phi * norm;
  std::vector<uint64_t> heavy;
  if (tau <= 0) return heavy;  // zero vector: nothing can be heavy
  const std::vector<double> est = cs_.EstimateAll(params_.n);
  for (uint64_t i = 0; i < params_.n; ++i) {
    if (std::abs(est[i]) >= tau) heavy.push_back(i);
  }
  return heavy;
}

size_t CsHeavyHitters::SpaceBits(int bits_per_counter) const {
  size_t bits = cs_.SpaceBits(bits_per_counter) +
                DyadicSpaceBits(bits_per_counter) +
                static_cast<size_t>(bits_per_counter);  // running sum
  if (norm_) bits += norm_->SpaceBits(bits_per_counter);
  return bits;
}

size_t CsHeavyHitters::DyadicSpaceBits(int bits_per_counter) const {
  return dyadic_.SpaceBits(bits_per_counter);
}

void CsHeavyHitters::Counters(CounterList* list) {
  cs_.Counters(list);
  dyadic_.Counters(list);
  list->Real(&running_sum_, 1);
  if (norm_) norm_->Counters(list);
}

void CsHeavyHitters::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.p);
  writer->WriteDouble(params_.phi);
  writer->WriteBits(static_cast<uint64_t>(params_.rows), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.norm_rows), 32);
  writer->WriteBits(params_.strict_turnstile ? 1 : 0, 1);
  writer->WriteBits(static_cast<uint64_t>(params_.dyadic_rows), 32);
  writer->WriteU64(params_.seed);
}

void CsHeavyHitters::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.p = reader->ReadDouble();
  params.phi = reader->ReadDouble();
  params.rows = static_cast<int>(reader->ReadBits(32));
  params.norm_rows = static_cast<int>(reader->ReadBits(32));
  params.strict_turnstile = reader->ReadBits(1) != 0;
  params.dyadic_rows = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  *this = CsHeavyHitters(params);
}

CmHeavyHitters::CmHeavyHitters(Params params)
    : params_(params),
      cm_(params.rows > 0 ? params.rows : DefaultRows(params.n),
          std::max(4, static_cast<int>(std::ceil(8.0 / params.phi))),
          Mix64(params.seed ^ 0xc0deULL)),
      tree_(CeilLog2(std::max<uint64_t>(params.n, 1)), kDefaultDyadicRows,
            std::max(4, static_cast<int>(std::ceil(8.0 / params.phi))),
            Mix64(params.seed ^ 0xd7aeULL)) {
  LPS_CHECK(params.phi > 0 && params.phi < 1);
}

void CmHeavyHitters::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void CmHeavyHitters::UpdateBatch(const stream::ScaledUpdate* updates,
                                 size_t count) {
  cm_.UpdateBatch(updates, count);
  tree_.UpdateBatch(updates, count);
  for (size_t t = 0; t < count; ++t) running_sum_ += updates[t].delta;
}

void CmHeavyHitters::UpdateBatch(const stream::Update* updates, size_t count) {
  // Integer deltas: each chunk is combined once, and the flat count-min
  // and the tree both take its distinct indices with their summed deltas.
  thread_local std::vector<uint64_t> keys;
  for (size_t start = 0; start < count; start += stream::kBatchChunk) {
    const size_t chunk = std::min(stream::kBatchChunk, count - start);
    const sketch::CombinedBatch batch =
        sketch::CombineRepeats(updates + start, chunk, tree_.log_n());
    keys.resize(batch.count);
    for (size_t t = 0; t < batch.count; ++t) {
      keys[t] = gf61::Reduce(batch.index[t]);
    }
    cm_.UpdateReduced(keys.data(), batch.sum, batch.count);
    tree_.UpdateCombined(batch);
  }
  for (size_t t = 0; t < count; ++t) {
    running_sum_ += static_cast<double>(updates[t].delta);
  }
}

std::vector<uint64_t> CmHeavyHitters::Query() const {
  // Strict turnstile: ||x||_1 equals the running sum exactly.
  const double tau = kThresholdFraction * params_.phi * running_sum_;
  std::vector<uint64_t> heavy;
  if (tau <= 0) return heavy;  // zero vector: nothing can be heavy
  // Candidates from the count-min tree descent (block min-estimates
  // upper-bound leaf mass, so no heavy leaf is missed in the strict
  // turnstile model), verified against the flat count-min — the exact
  // estimate the old universe scan thresholded.
  for (uint64_t i : tree_.Candidates(tau)) {
    if (i >= params_.n) continue;  // power-of-two padding never carries mass
    const double est =
        params_.use_median ? cm_.QueryMedian(i) : cm_.QueryMin(i);
    if (est >= tau) heavy.push_back(i);
  }
  std::sort(heavy.begin(), heavy.end());
  return heavy;
}

std::vector<uint64_t> CmHeavyHitters::QueryOracle() const {
  const double tau = kThresholdFraction * params_.phi * running_sum_;
  std::vector<uint64_t> heavy;
  if (tau <= 0) return heavy;  // zero vector: nothing can be heavy
  for (uint64_t i = 0; i < params_.n; ++i) {
    const double est =
        params_.use_median ? cm_.QueryMedian(i) : cm_.QueryMin(i);
    if (est >= tau) heavy.push_back(i);
  }
  return heavy;
}

size_t CmHeavyHitters::SpaceBits(int bits_per_counter) const {
  return cm_.SpaceBits(bits_per_counter) + DyadicSpaceBits(bits_per_counter) +
         static_cast<size_t>(bits_per_counter);
}

size_t CmHeavyHitters::DyadicSpaceBits(int bits_per_counter) const {
  return tree_.SpaceBits(bits_per_counter);
}

void CmHeavyHitters::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.phi);
  writer->WriteBits(static_cast<uint64_t>(params_.rows), 32);
  writer->WriteU64(params_.seed);
  writer->WriteBits(params_.use_median ? 1 : 0, 1);
}

void CmHeavyHitters::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.phi = reader->ReadDouble();
  params.rows = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  params.use_median = reader->ReadBits(1) != 0;
  *this = CmHeavyHitters(params);
}

DyadicHeavyHitters::DyadicHeavyHitters(int log_n, double phi, uint64_t seed)
    : log_n_(log_n), phi_(phi), seed_(seed),
      tree_(log_n, DefaultRows(1ULL << log_n),
            std::max(4, static_cast<int>(std::ceil(8.0 / phi))),
            Mix64(seed ^ 0xdadULL)) {}

void DyadicHeavyHitters::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void DyadicHeavyHitters::UpdateBatch(const stream::ScaledUpdate* updates,
                                     size_t count) {
  tree_.UpdateBatch(updates, count);
  for (size_t t = 0; t < count; ++t) running_sum_ += updates[t].delta;
}

void DyadicHeavyHitters::UpdateBatch(const stream::Update* updates,
                                     size_t count) {
  tree_.UpdateBatch(updates, count);
  for (size_t t = 0; t < count; ++t) {
    running_sum_ += static_cast<double>(updates[t].delta);
  }
}

std::vector<uint64_t> DyadicHeavyHitters::Query() const {
  const double tau = kThresholdFraction * phi_ * running_sum_;
  if (tau <= 0) return {};  // zero vector: nothing can be heavy
  return tree_.HeavyLeaves(tau);
}

size_t DyadicHeavyHitters::SpaceBits(int bits_per_counter) const {
  return tree_.SpaceBits(bits_per_counter) +
         static_cast<size_t>(bits_per_counter);
}

void DyadicHeavyHitters::WriteParams(BitWriter* writer) const {
  writer->WriteBits(static_cast<uint64_t>(log_n_), 32);
  writer->WriteDouble(phi_);
  writer->WriteU64(seed_);
}

void DyadicHeavyHitters::ReadParams(BitReader* reader) {
  const int log_n = static_cast<int>(reader->ReadBits(32));
  const double phi = reader->ReadDouble();
  const uint64_t seed = reader->ReadU64();
  *this = DyadicHeavyHitters(log_n, phi, seed);
}

HeavyValidation ValidateHeavySet(const stream::ExactVector& x, double p,
                                 double phi,
                                 const std::vector<uint64_t>& set) {
  HeavyValidation result;
  const double norm = x.NormP(p);
  std::vector<bool> in_set(x.n(), false);
  for (uint64_t i : set) in_set[i] = true;
  for (uint64_t i = 0; i < x.n(); ++i) {
    const double v = std::abs(static_cast<double>(x[i]));
    if (v >= phi * norm && !in_set[i]) ++result.missing_heavy;
    if (v <= 0.5 * phi * norm && in_set[i]) ++result.included_light;
  }
  result.valid = result.missing_heavy == 0 && result.included_light == 0;
  return result;
}

}  // namespace lps::heavy
