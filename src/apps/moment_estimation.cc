#include "src/apps/moment_estimation.h"

#include <cmath>
#include <vector>

#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::apps {

MomentEstimator::MomentEstimator(Params params)
    : params_(params),
      q_norm_(params.q, norm::LpNormEstimator::DefaultRows(params.n),
              Mix64(params.seed ^ 0xf00dULL)) {
  LPS_CHECK(params.p > 2.0);
  LPS_CHECK(params.q > 1.0 && params.q < 2.0);
  LPS_CHECK(params.samples >= 1);
  samplers_.reserve(static_cast<size_t>(params.samples));
  for (int j = 0; j < params.samples; ++j) {
    core::LpSamplerParams sp;
    sp.n = params.n;
    sp.p = params.q;
    sp.eps = 0.25;
    sp.repetitions = 12;
    sp.seed = Mix64(params.seed ^ (0xf00eULL + static_cast<uint64_t>(j)));
    samplers_.emplace_back(sp);
  }
}

void MomentEstimator::Update(uint64_t i, int64_t delta) {
  const stream::Update u{i, delta};
  UpdateBatch(&u, 1);
}

void MomentEstimator::UpdateBatch(const stream::Update* updates,
                                  size_t count) {
  q_norm_.UpdateBatch(updates, count);
  for (auto& sampler : samplers_) sampler.UpdateBatch(updates, count);
}

Result<double> MomentEstimator::Estimate() const {
  // ||x||_q^q from the shared norm estimator (raw, uninflated median).
  const double norm_q = q_norm_.EstimateRaw();
  if (norm_q <= 0) return Status::Failed("zero vector");
  const double mass_q = std::pow(norm_q, params_.q);

  // Sample-and-reweight: i ~ |x_i|^q / ||x||_q^q, estimate
  // ||x||_q^q * |x_i|^{p - q} using the sampler's own value estimate.
  std::vector<double> estimates;
  for (const auto& sampler : samplers_) {
    auto res = sampler.Sample();
    if (!res.ok()) continue;
    const double xi = std::abs(res.value().estimate);
    if (xi <= 0) continue;
    estimates.push_back(mass_q * std::pow(xi, params_.p - params_.q));
  }
  if (estimates.empty()) return Status::Failed("all samplers failed");
  double sum = 0;
  for (double e : estimates) sum += e;
  return sum / static_cast<double>(estimates.size());
}

void MomentEstimator::WriteParams(BitWriter* writer) const {
  writer->WriteU64(params_.n);
  writer->WriteDouble(params_.p);
  writer->WriteBits(static_cast<uint64_t>(params_.samples), 32);
  writer->WriteDouble(params_.q);
  writer->WriteU64(params_.seed);
}

void MomentEstimator::ReadParams(BitReader* reader) {
  Params params;
  params.n = reader->ReadU64();
  params.p = reader->ReadDouble();
  params.samples = static_cast<int>(reader->ReadBits(32));
  params.q = reader->ReadDouble();
  params.seed = reader->ReadU64();
  *this = MomentEstimator(params);
}

size_t MomentEstimator::SpaceBits(int bits_per_counter) const {
  size_t bits = q_norm_.SpaceBits(bits_per_counter);
  for (const auto& sampler : samplers_) bits += sampler.SpaceBits(bits_per_counter);
  return bits;
}

}  // namespace lps::apps
