#include "src/core/lp_sampler.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::core {

namespace {

// Scaling factors below this are clamped; the event t_i < 2^-60 has
// probability < n * 2^-60 per stream, the same "low probability" bucket the
// paper uses for t_i^{-1} > n^c (Theorem 1 proof).
constexpr double kMinScaling = 0x1.0p-60;

// Calibrated "large enough constant factor" for m (Figure 1 step 1); see
// EXPERIMENTS.md (claims C1/C3) for the measured distribution accuracy.
constexpr double kMConstant = 8.0;

// Inflation applied to the count-sketch residual-F2 median so that
// s in [||z - zhat||_2, 2||z - zhat||_2] w.h.p. (recovery stage, step 3).
constexpr double kResidualInflation = 1.35;

// Default rows of the per-round dyadic candidate generator. Small on
// purpose: a candidate only needs to *survive the beam*, the flat
// count-sketch (with its full O(log n) rows) does the accurate ranking,
// so a per-block median of 5 is ample and keeps the ingest overhead of
// the dyadic levels bounded.
constexpr int kDefaultDyadicRows = 5;

using stream::kBatchChunk;

// Runs work(part) once for every part in [0, parts): on the calling thread
// and on one helper per other CPU in its affinity mask, at most parts - 1
// of them, which take parts from one counter. Each helper is pinned to its
// CPU: left to the scheduler, new threads that run for a fraction of a
// second stayed on their parent's CPU (ROADMAP item 8). Returns once every
// helper is joined, and rethrows the first exception a part threw.
void RunOnAllowedCpus(size_t parts, const std::function<void(size_t)>& work) {
  std::atomic<size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // guarded by failure_mu
  const auto drain = [&] {
    try {
      for (size_t part = next++; part < parts; part = next++) work(part);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (failure == nullptr) failure = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (parts > 1 && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    helpers.reserve(parts - 1);
    const int own = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE && helpers.size() + 1 < parts;
         ++cpu) {
      if (cpu == own || !CPU_ISSET(cpu, &allowed)) continue;
      try {
        helpers.emplace_back([&drain, cpu] {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          // Unpinned, the helper still drains; only placement is lost.
          pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
          drain();
        });
      } catch (const std::system_error&) {
        break;  // out of threads: the running ones and the caller drain
      }
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

}  // namespace

LpSamplerParams LpSampler::Resolve(LpSamplerParams params) {
  LPS_CHECK(params.n >= 1);
  LPS_CHECK(params.p > 0 && params.p < 2);
  LPS_CHECK(params.eps > 0 && params.eps < 1);
  LPS_CHECK(params.delta > 0 && params.delta < 1);
  const double p = params.p;
  const double eps = params.eps;
  if (params.k == 0) {
    if (p == 1.0) {
      params.k = std::max(4, static_cast<int>(std::ceil(4 * std::log2(1 / eps))));
    } else {
      params.k = 10 * static_cast<int>(std::ceil(1.0 / std::abs(p - 1.0)));
    }
  }
  if (params.m == 0) {
    if (p == 1.0) {
      params.m = std::max(
          4, static_cast<int>(std::ceil(4 * std::log2(1 / eps))));
    } else {
      params.m = std::max(4, static_cast<int>(std::ceil(
                                 kMConstant * std::pow(eps, -std::max(0.0, p - 1)))));
    }
  }
  if (params.cs_rows == 0) {
    params.cs_rows = std::max(7, 2 * CeilLog2(std::max<uint64_t>(params.n, 2)) + 1);
  }
  if (params.norm_rows == 0) {
    params.norm_rows = norm::LpNormEstimator::DefaultRows(params.n);
  }
  if (params.dyadic_rows == 0) {
    params.dyadic_rows = kDefaultDyadicRows;
  }
  if (params.repetitions == 0) {
    // Per-round success is >= eps / 2^p (Theorem 1 proof); the 1.5 safety
    // factor is calibrated against the measured rates in
    // bench_lp_sampler_accuracy (which run ~3.5x above the bound).
    const double per_round = eps / std::pow(2.0, p) / 1.5;
    params.repetitions = std::clamp(
        static_cast<int>(std::ceil(std::log(1 / params.delta) / per_round)), 1,
        300);
  }
  return params;
}

LpSamplerRound::LpSamplerRound(const LpSamplerParams& params, int round_index)
    : n_(params.n), p_(params.p), eps_(params.eps), m_(params.m),
      beta_(std::pow(params.eps, 1.0 - 1.0 / params.p)),
      override_index_(params.override_index), override_t_(params.override_t),
      t_hash_(params.k,
              Mix64(params.seed ^ (0x70f0ULL + static_cast<uint64_t>(round_index)))),
      cs_(params.cs_rows, 6 * params.m,
          Mix64(params.seed ^ (0xc500ULL + static_cast<uint64_t>(round_index)))),
      dyadic_(CeilLog2(std::max<uint64_t>(params.n, 1)),
              params.dyadic_rows > 0 ? params.dyadic_rows : kDefaultDyadicRows,
              6 * params.m,
              Mix64(params.seed ^
                    (0xd7a0ULL + static_cast<uint64_t>(round_index)))) {}

double LpSamplerRound::ScalingFactor(uint64_t i) const {
  if (override_index_ >= 0 && static_cast<uint64_t>(override_index_) == i) {
    return override_t_;
  }
  return std::max(t_hash_.UniformPositive(i), kMinScaling);
}

void LpSamplerRound::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void LpSamplerRound::UpdateBatch(const stream::ScaledUpdate* updates,
                                 size_t count) {
  // Batch scratch, one set per thread: the scaled batch, and the keys
  // reduced into the field with their t_hash_ values.
  thread_local std::vector<stream::ScaledUpdate> scaled;
  thread_local std::vector<uint64_t> reduced_keys;
  thread_local std::vector<uint64_t> t_evals;
  snapshot_.reset();
  scaled.resize(count);
  if (override_index_ >= 0) {
    // Test hook in play: keep the per-item path so the overridden
    // coordinate picks up its forced t.
    if (p_ == 1.0) {
      for (size_t t = 0; t < count; ++t) {
        scaled[t] = {updates[t].index,
                     updates[t].delta / ScalingFactor(updates[t].index)};
      }
    } else {
      const double inv_p = 1.0 / p_;
      for (size_t t = 0; t < count; ++t) {
        const double scale = ScalingFactor(updates[t].index);
        scaled[t] = {updates[t].index,
                     updates[t].delta / std::pow(scale, inv_p)};
      }
    }
  } else {
    // The k-wise t_i hash (k is 10*ceil(1/|p-1|) — the deepest Horner in
    // the library) runs on the dispatched kernel; the (eval + 1) / p
    // uniform, the kMinScaling clamp and the divide replicate
    // ScalingFactor per item, so the scaled stream is bit-identical to
    // the per-item path.
    reduced_keys.resize(count);
    t_evals.resize(count);
    for (size_t t = 0; t < count; ++t) {
      reduced_keys[t] = gf61::Reduce(updates[t].index);
    }
    t_hash_.EvalBatch(reduced_keys.data(), count, t_evals.data());
    if (p_ == 1.0) {
      // t^{1/p} = t at p = 1: the per-item std::pow is the identity, so
      // the hot loop is a single divide (std::pow(x, 1.0) returns x
      // exactly, so this is bit-identical to the general path).
      for (size_t t = 0; t < count; ++t) {
        const double scale =
            std::max((static_cast<double>(t_evals[t]) + 1.0) /
                         static_cast<double>(gf61::kP),
                     kMinScaling);
        scaled[t] = {updates[t].index, updates[t].delta / scale};
      }
    } else {
      const double inv_p = 1.0 / p_;
      for (size_t t = 0; t < count; ++t) {
        const double scale =
            std::max((static_cast<double>(t_evals[t]) + 1.0) /
                         static_cast<double>(gf61::kP),
                     kMinScaling);
        scaled[t] = {updates[t].index,
                     updates[t].delta / std::pow(scale, inv_p)};
      }
    }
  }
  cs_.UpdateBatch(scaled.data(), count);
  dyadic_.UpdateBatch(scaled.data(), count);
}

const LpSamplerRound::RecoverySnapshot& LpSamplerRound::Snapshot() const {
  if (!snapshot_.has_value()) {
    // Candidate generation: O(m log n) dyadic beam descent over z instead
    // of the O(n * rows) universe scan. Leaves >= n_ (padding of the
    // power-of-two dyadic universe) never carry mass; drop them so the
    // flat estimates match the [0, n) oracle exactly.
    std::vector<uint64_t> candidates =
        dyadic_.TopCandidates(static_cast<uint64_t>(m_));
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [this](uint64_t i) { return i >= n_; }),
        candidates.end());
    RecoverySnapshot snap;
    snap.zhat = cs_.TopM(candidates, static_cast<uint64_t>(m_));
    snap.s = kResidualInflation * cs_.EstimateResidualL2(snap.zhat);
    snapshot_ = std::move(snap);
  }
  return *snapshot_;
}

bool LpSamplerRound::WouldAbortOnTail(double r) const {
  return Snapshot().s > beta_ * std::sqrt(static_cast<double>(m_)) * r;
}

Result<SampleResult> LpSamplerRound::Decide(const RecoverySnapshot& snap,
                                            double r) const {
  // Step 1 happened in the caller: z* restricted to zhat's support.
  if (snap.zhat.empty()) return Status::Failed("empty sketch");

  // Step 5: the two abort tests (step 3 produced s).
  if (snap.s > beta_ * std::sqrt(static_cast<double>(m_)) * r) {
    return Status::Failed("tail too heavy: s > beta m^1/2 r");
  }
  const auto& [index, z_star] = snap.zhat[0];  // step 4: argmax |z*_i|
  if (std::abs(z_star) < std::pow(eps_, -1.0 / p_) * r) {
    return Status::Failed("no sufficiently heavy coordinate");
  }

  // Step 6: the sample and the estimate of x_i.
  const double t = ScalingFactor(index);
  return SampleResult{index, z_star * std::pow(t, 1.0 / p_)};
}

Result<SampleResult> LpSamplerRound::Recover(double r) const {
  return Decide(Snapshot(), r);
}

Result<SampleResult> LpSamplerRound::RecoverReference(double r) const {
  RecoverySnapshot snap;
  snap.zhat = cs_.TopM(n_, static_cast<uint64_t>(m_));
  snap.s = kResidualInflation * cs_.EstimateResidualL2(snap.zhat);
  return Decide(snap, r);
}

size_t LpSamplerRound::SpaceBits(int bits_per_counter) const {
  return cs_.SpaceBits(bits_per_counter) + t_hash_.SeedBits() +
         DyadicSpaceBits(bits_per_counter);
}

size_t LpSamplerRound::DyadicSpaceBits(int bits_per_counter) const {
  return dyadic_.SpaceBits(bits_per_counter);
}

LpSampler::LpSampler(LpSamplerParams params)
    : params_(Resolve(std::move(params))),
      norm_(params_.p, params_.norm_rows, Mix64(params_.seed ^ 0x4042ULL)) {
  rounds_.reserve(static_cast<size_t>(params_.repetitions));
  for (int v = 0; v < params_.repetitions; ++v) {
    rounds_.emplace_back(params_, v);
  }
}

void LpSampler::Update(uint64_t i, double delta) {
  const stream::ScaledUpdate u{i, delta};
  UpdateBatch(&u, 1);
}

void LpSampler::UpdateBatch(const stream::ScaledUpdate* updates,
                            size_t count) {
  for (size_t t = 0; t < count; ++t) {
    LPS_CHECK(updates[t].index < params_.n);
  }
  for (size_t start = 0; start < count; start += kBatchChunk) {
    const size_t chunk = std::min(kBatchChunk, count - start);
    norm_.UpdateBatch(updates + start, chunk);
    for (auto& round : rounds_) round.UpdateBatch(updates + start, chunk);
  }
}

void LpSampler::UpdateBatch(const stream::Update* updates, size_t count) {
  // This thread's converted chunk; a round's own scaled chunk is live at
  // the same time, so the two are distinct buffers.
  thread_local std::vector<stream::ScaledUpdate> scaled;
  for (size_t start = 0; start < count; start += kBatchChunk) {
    const size_t chunk = std::min(kBatchChunk, count - start);
    scaled.resize(chunk);
    for (size_t t = 0; t < chunk; ++t) {
      scaled[t] = {updates[start + t].index,
                   static_cast<double>(updates[start + t].delta)};
    }
    UpdateBatch(scaled.data(), chunk);
  }
}

void LpSampler::FeedGenerated(uint64_t count, const UpdateSource& source) {
  // Part 0 is the norm sketch, part v + 1 round v.
  RunOnAllowedCpus(rounds_.size() + 1, [&](size_t part) {
    thread_local std::vector<stream::ScaledUpdate> chunk;
    for (uint64_t start = 0; start < count; start += kBatchChunk) {
      chunk.resize(
          static_cast<size_t>(std::min<uint64_t>(kBatchChunk, count - start)));
      source(start, chunk.size(), chunk.data());
      for (const stream::ScaledUpdate& u : chunk) {
        LPS_CHECK(u.index < params_.n);
      }
      if (part == 0) {
        norm_.UpdateBatch(chunk.data(), chunk.size());
      } else {
        rounds_[part - 1].UpdateBatch(chunk.data(), chunk.size());
      }
    }
  });
}

double LpSampler::NormEstimate() const { return norm_.Estimate2Approx(); }

Result<SampleResult> LpSampler::Sample() const {
  const double r = NormEstimate();
  if (r <= 0) return Status::Failed("zero vector");
  for (const auto& round : rounds_) {
    Result<SampleResult> res = round.Recover(r);
    if (res.ok()) return res;
  }
  return Status::Failed("all rounds failed");
}

void LpSampler::Counters(CounterList* list) {
  norm_.Counters(list);
  for (auto& round : rounds_) round.Counters(list);
}

void LpSampler::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.p);
  writer->WriteDouble(params_.eps);
  writer->WriteDouble(params_.delta);
  writer->WriteBits(static_cast<uint64_t>(params_.repetitions), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.cs_rows), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.m), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.k), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.norm_rows), 32);
  writer->WriteBits(static_cast<uint64_t>(params_.dyadic_rows), 32);
  writer->WriteU64(params_.seed);
  writer->WriteU64(static_cast<uint64_t>(params_.override_index));
  writer->WriteDouble(params_.override_t);
}

void LpSampler::ReadParams(BitReader* reader) {
  LpSamplerParams params;
  params.n = reader->ReadU64();
  params.p = reader->ReadDouble();
  params.eps = reader->ReadDouble();
  params.delta = reader->ReadDouble();
  params.repetitions = static_cast<int>(reader->ReadBits(32));
  params.cs_rows = static_cast<int>(reader->ReadBits(32));
  params.m = static_cast<int>(reader->ReadBits(32));
  params.k = static_cast<int>(reader->ReadBits(32));
  params.norm_rows = static_cast<int>(reader->ReadBits(32));
  params.dyadic_rows = static_cast<int>(reader->ReadBits(32));
  params.seed = reader->ReadU64();
  params.override_index = static_cast<int64_t>(reader->ReadU64());
  params.override_t = reader->ReadDouble();
  *this = LpSampler(params);  // serialized params are already resolved
}

size_t LpSampler::SpaceBits(int bits_per_counter) const {
  size_t bits = norm_.SpaceBits(bits_per_counter);
  for (const auto& round : rounds_) bits += round.SpaceBits(bits_per_counter);
  return bits;
}

size_t LpSampler::DyadicSpaceBits(int bits_per_counter) const {
  size_t bits = 0;
  for (const auto& round : rounds_) {
    bits += round.DyadicSpaceBits(bits_per_counter);
  }
  return bits;
}

}  // namespace lps::core
