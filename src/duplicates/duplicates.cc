#include "src/duplicates/duplicates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "src/kernels/kernels.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::duplicates {

namespace {

core::LpSamplerParams L1Params(uint64_t n, double delta, int repetitions,
                               uint64_t seed) {
  core::LpSamplerParams params;
  params.n = n;
  params.p = 1.0;
  // Theorem 3 runs the sampler with relative error 1/2; each round that
  // recovers yields a positive estimate with constant probability, so
  // O(log 1/delta) *productive* rounds suffice.
  params.eps = 0.5;
  params.delta = delta;
  params.repetitions = repetitions;
  params.seed = seed;
  return params;
}

bool SameParams(const DuplicateFinder::Params& a,
                const DuplicateFinder::Params& b) {
  return a.n == b.n && a.delta == b.delta && a.repetitions == b.repetitions &&
         a.seed == b.seed;
}
bool SameParams(const SparseDuplicateFinder::Params& a,
                const SparseDuplicateFinder::Params& b) {
  return a.n == b.n && a.s == b.s && a.delta == b.delta &&
         a.repetitions == b.repetitions && a.seed == b.seed;
}

// The sampler half of each finder kind (the sparse finder's gets a halved
// delta budget and its own seed; see its constructor).
core::LpSamplerParams SamplerParams(const DuplicateFinder::Params& params) {
  return L1Params(params.n, params.delta, params.repetitions, params.seed);
}
core::LpSamplerParams SamplerParams(
    const SparseDuplicateFinder::Params& params) {
  // The DENSE fallback only guarantees a 2/5 positive fraction (vs
  // Theorem 3's > 1/2), so the sampler gets a halved delta budget —
  // i.e. ~50% more rounds — to hold the overall failure at delta.
  return L1Params(params.n, params.delta / 2, params.repetitions,
                  Mix64(params.seed ^ 0xdead6ULL));
}
recovery::SparseRecovery MakeRecovery(
    const SparseDuplicateFinder::Params& params) {
  return recovery::SparseRecovery(params.n,
                                  std::max<uint64_t>(2, 5 * params.s),
                                  Mix64(params.seed ^ 0xdead5ULL));
}

// Feeds the reduction's initialization (i, -1) for every i < n, one
// fixed-size chunk at a time so the feed never holds n updates.
template <typename Sink>
void FeedInitialMinusOnes(uint64_t n, Sink* sink) {
  constexpr uint64_t kChunk = 4096;
  stream::UpdateStream chunk;
  for (uint64_t start = 0; start < n; start += kChunk) {
    chunk.clear();
    for (uint64_t i = start; i < std::min(n, start + kChunk); ++i) {
      chunk.push_back({i, -1});
    }
    sink->UpdateBatch(chunk.data(), chunk.size());
  }
}

// The reduction's initialization as an LpSampler::UpdateSource: the
// update at position i is (i, -1).
void MinusOnes(uint64_t start, size_t length, stream::ScaledUpdate* out) {
  for (size_t t = 0; t < length; ++t) out[t] = {start + t, -1.0};
}

// Process-wide cache of init sketches. It holds weak references, so an
// entry lives exactly as long as some finder shares it; concurrent
// requests for one key build the sketch once. The key includes the
// active kernel backend because the SIMD p = 1 rows are query-equivalent,
// not bit-identical, to the scalar ones.
template <typename Key, typename Sketch>
class InitCache {
 public:
  template <typename Build>
  std::shared_ptr<const Sketch> Get(const Key& key, Build build) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = slots_.find(key);
      if (it != slots_.end()) slot = it->second.lock();
      if (slot == nullptr) {
        for (auto e = slots_.begin(); e != slots_.end();) {
          e = e->second.expired() ? slots_.erase(e) : std::next(e);
        }
        slot = std::make_shared<Slot>();
        slots_[key] = slot;
      }
    }
    std::call_once(slot->once, [&] { slot->sketch.emplace(build()); });
    return std::shared_ptr<const Sketch>(slot, &*slot->sketch);
  }

 private:
  struct Slot {
    std::once_flag once;
    std::optional<Sketch> sketch;
  };
  std::mutex mu_;
  std::map<Key, std::weak_ptr<Slot>> slots_;
};

std::shared_ptr<const core::LpSampler> SharedSamplerInit(
    const core::LpSamplerParams& params) {
  using Key = std::tuple<uint64_t, double, double, double, int, uint64_t,
                         kernels::Backend>;
  static auto* cache = new InitCache<Key, core::LpSampler>();
  const Key key(params.n, params.p, params.eps, params.delta,
                params.repetitions, params.seed, kernels::ActiveBackend());
  return cache->Get(key, [&params] {
    // The one O(n) feed, its parts spread over the allowed CPUs.
    core::LpSampler init(params);
    init.FeedGenerated(params.n, MinusOnes);
    return init;
  });
}

std::shared_ptr<const recovery::SparseRecovery> SharedRecoveryInit(
    const SparseDuplicateFinder::Params& params) {
  using Key = std::tuple<uint64_t, uint64_t, uint64_t, kernels::Backend>;
  static auto* cache = new InitCache<Key, recovery::SparseRecovery>();
  const Key key(params.n, params.s, params.seed, kernels::ActiveBackend());
  return cache->Get(key, [&params] {
    recovery::SparseRecovery init = MakeRecovery(params);
    FeedInitialMinusOnes(params.n, &init);
    return init;
  });
}

}  // namespace

DuplicateFinder::DuplicateFinder(Params params)
    : params_(params),
      sampler_(SamplerParams(params)),
      init_(SharedSamplerInit(SamplerParams(params))) {
  sampler_.Merge(*init_);
}

const core::LpSampler& DuplicateFinder::Init() {
  if (init_ == nullptr) init_ = SharedSamplerInit(SamplerParams(params_));
  return *init_;
}

void DuplicateFinder::MergeSigned(const LinearSketch& other, int sign) {
  // (init + lettersA) ± (init + lettersB) ∓ init: again a well-formed
  // finder over the summed or subtracted letter multiset (for a window,
  // exactly the letters the window saw).
  LinearSketch::MergeSigned(other, sign);
  sampler_.MergeSigned(Init(), -sign);
}

void DuplicateFinder::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteU64(params_.seed);
}

void DuplicateFinder::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  // The restored counters already include the initialization, so the
  // init sketch is only fetched when a later Merge/Reset needs it; a held
  // one stays valid if the parameters did not change.
  if (!SameParams(params, params_)) init_.reset();
  params_ = params;
  sampler_ = core::LpSampler(SamplerParams(params));
}

void DuplicateFinder::Reset() {
  LinearSketch::Reset();
  sampler_.Merge(Init());
}

Result<uint64_t> DuplicateFinder::Find() const {
  // Scan the sampler's rounds: the first recovered sample with a positive
  // estimate is a duplicate (x_i >= 1 there unless the estimate's sign is
  // wrong, a low-probability event). Rounds with negative estimates are
  // treated as this trial's FAIL, exactly as in Theorem 3's proof.
  const double r = sampler_.NormEstimate();
  if (r <= 0) return Status::Failed("zero norm estimate");
  for (int v = 0; v < sampler_.repetitions(); ++v) {
    auto res = sampler_.round(v).Recover(r);
    if (res.ok() && res.value().estimate > 0) return res.value().index;
  }
  return Status::Failed("no positive sample");
}

SparseDuplicateFinder::SparseDuplicateFinder(Params params)
    : params_(params),
      recovery_(MakeRecovery(params)),
      sampler_(SamplerParams(params)),
      recovery_init_(SharedRecoveryInit(params)),
      sampler_init_(SharedSamplerInit(SamplerParams(params))) {
  recovery_.Merge(*recovery_init_);
  sampler_.Merge(*sampler_init_);
}

const recovery::SparseRecovery& SparseDuplicateFinder::RecoveryInit() {
  if (recovery_init_ == nullptr) recovery_init_ = SharedRecoveryInit(params_);
  return *recovery_init_;
}

const core::LpSampler& SparseDuplicateFinder::SamplerInit() {
  if (sampler_init_ == nullptr) {
    sampler_init_ = SharedSamplerInit(SamplerParams(params_));
  }
  return *sampler_init_;
}

void SparseDuplicateFinder::ProcessItem(uint64_t letter) {
  recovery_.Update(letter, +1);
  sampler_.Update(letter, +1);
}

void SparseDuplicateFinder::UpdateBatch(const stream::Update* updates,
                                        size_t count) {
  recovery_.UpdateBatch(updates, count);
  sampler_.UpdateBatch(updates, count);
}

void SparseDuplicateFinder::MergeSigned(const LinearSketch& other, int sign) {
  // Cancel the doubled or removed initialization (see DuplicateFinder).
  LinearSketch::MergeSigned(other, sign);
  recovery_.MergeSigned(RecoveryInit(), -sign);
  sampler_.MergeSigned(SamplerInit(), -sign);
}

void SparseDuplicateFinder::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteU64(params_.s);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteU64(params_.seed);
}

void SparseDuplicateFinder::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.s = reader->ReadU64();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  // As in DuplicateFinder::ReadParams: the init sketches are fetched
  // lazily, and held ones survive an unchanged parameter set.
  if (!SameParams(params, params_)) {
    recovery_init_.reset();
    sampler_init_.reset();
  }
  params_ = params;
  recovery_ = MakeRecovery(params);
  sampler_ = core::LpSampler(SamplerParams(params));
}

void SparseDuplicateFinder::Reset() {
  LinearSketch::Reset();
  recovery_.Merge(RecoveryInit());
  sampler_.Merge(SamplerInit());
}

SparseDuplicateFinder::Outcome SparseDuplicateFinder::Find() const {
  auto recovered = recovery_.Recover();
  if (recovered.ok()) {
    // Exact knowledge of x: any positive coordinate is a duplicate; no
    // positive coordinate certifies NO-DUPLICATE (probability 1 on
    // duplicate-free streams, whose x is exactly s-sparse).
    for (const auto& entry : recovered.value()) {
      if (entry.value > 0) return {Kind::kDuplicate, entry.index, true};
    }
    return {Kind::kNoDuplicate, 0, true};
  }
  // DENSE: ||x||_1^+ + ||x||_1^- > 5s while their difference is -s, so the
  // positive mass is > 2/5 of ||x||_1 and the sampler path fires.
  const double r = sampler_.NormEstimate();
  if (r > 0) {
    for (int v = 0; v < sampler_.repetitions(); ++v) {
      auto res = sampler_.round(v).Recover(r);
      if (res.ok() && res.value().estimate > 0) {
        return {Kind::kDuplicate, res.value().index, false};
      }
    }
  }
  return {Kind::kFail, 0, false};
}

size_t SparseDuplicateFinder::SpaceBits(int bits_per_counter) const {
  return recovery_.SpaceBits() + sampler_.SpaceBits(bits_per_counter);
}

OversampledDuplicateFinder::OversampledDuplicateFinder(Params params)
    : n_(params.n) {
  LPS_CHECK(params.s >= 1);
  const double ratio = static_cast<double>(params.n) /
                       static_cast<double>(params.s);
  const bool sample_positions =
      params.force_strategy == 1 ||
      (params.force_strategy == 0 &&
       ratio < static_cast<double>(CeilLog2(std::max<uint64_t>(params.n, 2))));
  if (sample_positions) {
    strategy_ = Strategy::kPositionSampling;
    const uint64_t length = params.n + params.s;
    const uint64_t k = 4 * static_cast<uint64_t>(std::ceil(ratio));
    Rng rng(params.seed);
    positions_.reserve(k);
    for (uint64_t j = 0; j < k; ++j) positions_.push_back(rng.Below(length));
    std::sort(positions_.begin(), positions_.end());
  } else {
    strategy_ = Strategy::kL1Sampler;
    finder_ = std::make_unique<DuplicateFinder>(DuplicateFinder::Params{
        params.n, params.delta, params.repetitions, params.seed});
  }
}

void OversampledDuplicateFinder::ProcessItem(uint64_t letter) {
  if (strategy_ == Strategy::kL1Sampler) {
    finder_->ProcessItem(letter);
    return;
  }
  // A watched letter re-appearing is a duplicate by construction (it was
  // sampled at a strictly earlier position).
  if (!found_.ok()) {
    auto it = watched_.find(letter);
    if (it != watched_.end()) found_ = letter;
  }
  while (next_position_ < positions_.size() &&
         positions_[next_position_] == clock_) {
    ++watched_[letter];
    ++next_position_;
  }
  ++clock_;
}

Result<uint64_t> OversampledDuplicateFinder::Find() const {
  if (strategy_ == Strategy::kL1Sampler) return finder_->Find();
  return found_;
}

size_t OversampledDuplicateFinder::SpaceBits(int bits_per_counter) const {
  if (strategy_ == Strategy::kL1Sampler) {
    return finder_->SpaceBits(bits_per_counter);
  }
  // Sampled positions plus watched letters, log n bits each.
  const size_t log_n = static_cast<size_t>(BitWidth(std::max<uint64_t>(n_, 2)));
  return (positions_.size() + watched_.size()) * log_n;
}

}  // namespace lps::duplicates
