#include "src/api/sketch_spec.h"

#include <algorithm>
#include <cmath>

#include "src/field/gf61.h"
#include "src/apps/moment_estimation.h"
#include "src/core/ako_sampler.h"
#include "src/core/fis_l0_sampler.h"
#include "src/core/l0_sampler.h"
#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/duplicates/positive_finder.h"
#include "src/heavy/heavy_hitters.h"
#include "src/norm/l0_norm.h"
#include "src/norm/lp_norm.h"
#include "src/recovery/one_sparse.h"
#include "src/recovery/sparse_recovery.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/stable_sketch.h"
#include "src/util/bits.h"

namespace lps {

namespace {

// The dyadic structures take log2(universe); at least one level so the
// degenerate n <= 2 universes still construct.
int LogN(uint64_t n) {
  const uint64_t clamped = std::max<uint64_t>(n, 2);
  return std::max(1, CeilLog2(clamped));
}

int OrOne(uint32_t v) { return v == 0 ? 1 : static_cast<int>(v); }

core::LpSamplerParams LpParamsFromSpec(const SketchSpec& spec) {
  core::LpSamplerParams params;
  params.n = std::max<uint64_t>(spec.n, 1);
  params.p = spec.p;
  params.eps = spec.eps;
  params.delta = spec.delta;
  params.repetitions = static_cast<int>(spec.repetitions);
  params.cs_rows = static_cast<int>(spec.rows);
  params.m = static_cast<int>(spec.buckets);
  params.seed = spec.seed;
  return params;
}

}  // namespace

bool SketchSpec::operator==(const SketchSpec& o) const {
  return kind == o.kind && n == o.n && p == o.p && eps == o.eps &&
         delta == o.delta && phi == o.phi && rows == o.rows &&
         buckets == o.buckets && s == o.s && repetitions == o.repetitions &&
         seed == o.seed;
}

std::unique_ptr<LinearSketch> MakeSketch(const SketchSpec& spec) {
  const uint64_t n = std::max<uint64_t>(spec.n, 1);
  switch (spec.kind) {
    case SketchKind::kCountSketch:
      return std::make_unique<sketch::CountSketch>(
          OrOne(spec.rows), OrOne(spec.buckets), spec.seed);
    case SketchKind::kCountMin:
      return std::make_unique<sketch::CountMin>(
          OrOne(spec.rows), OrOne(spec.buckets), spec.seed);
    case SketchKind::kAmsF2:
      return std::make_unique<sketch::AmsF2>(OrOne(spec.rows),
                                             OrOne(spec.buckets), spec.seed);
    case SketchKind::kStableSketch:
      return std::make_unique<sketch::StableSketch>(spec.p, OrOne(spec.rows),
                                                    spec.seed);
    case SketchKind::kDyadicCountMin:
      return std::make_unique<sketch::DyadicCountMin>(
          LogN(spec.n), OrOne(spec.rows), OrOne(spec.buckets), spec.seed);
    case SketchKind::kDyadicCountSketch:
      return std::make_unique<sketch::DyadicCountSketch>(
          LogN(spec.n), OrOne(spec.rows), OrOne(spec.buckets), spec.seed);
    case SketchKind::kL0Estimator:
      return std::make_unique<norm::L0Estimator>(n, OrOne(spec.repetitions),
                                                 spec.seed);
    case SketchKind::kLpNormEstimator:
      return std::make_unique<norm::LpNormEstimator>(
          spec.p,
          spec.rows == 0 ? norm::LpNormEstimator::DefaultRows(n)
                         : static_cast<int>(spec.rows),
          spec.seed);
    case SketchKind::kOneSparse:
      return std::make_unique<recovery::OneSparse>(n, spec.seed);
    case SketchKind::kSparseRecovery:
      return std::make_unique<recovery::SparseRecovery>(
          n, std::max<uint64_t>(spec.s, 1), spec.seed);
    case SketchKind::kLpSampler:
      return std::make_unique<core::LpSampler>(LpParamsFromSpec(spec));
    case SketchKind::kL0Sampler:
      return std::make_unique<core::L0Sampler>(
          core::L0SamplerParams{n, spec.delta, spec.s, spec.seed, false});
    case SketchKind::kFisL0Sampler:
      return std::make_unique<core::FisL0Sampler>(
          n, spec.seed, static_cast<int>(spec.buckets));
    case SketchKind::kAkoSampler:
      return std::make_unique<core::AkoSampler>(LpParamsFromSpec(spec));
    case SketchKind::kCsHeavyHitters: {
      heavy::CsHeavyHitters::Params params;
      params.n = n;
      params.p = spec.p;
      params.phi = spec.phi;
      params.rows = static_cast<int>(spec.rows);
      params.seed = spec.seed;
      return std::make_unique<heavy::CsHeavyHitters>(params);
    }
    case SketchKind::kCmHeavyHitters: {
      heavy::CmHeavyHitters::Params params;
      params.n = n;
      params.phi = spec.phi;
      params.rows = static_cast<int>(spec.rows);
      params.seed = spec.seed;
      return std::make_unique<heavy::CmHeavyHitters>(params);
    }
    case SketchKind::kDyadicHeavyHitters:
      return std::make_unique<heavy::DyadicHeavyHitters>(LogN(spec.n),
                                                         spec.phi, spec.seed);
    case SketchKind::kDuplicateFinder:
      return std::make_unique<duplicates::DuplicateFinder>(
          duplicates::DuplicateFinder::Params{
              n, spec.delta, static_cast<int>(spec.repetitions), spec.seed});
    case SketchKind::kSparseDuplicateFinder: {
      duplicates::SparseDuplicateFinder::Params params;
      params.n = n;
      params.s = std::max<uint64_t>(spec.s, 1);
      params.delta = spec.delta;
      params.repetitions = static_cast<int>(spec.repetitions);
      params.seed = spec.seed;
      return std::make_unique<duplicates::SparseDuplicateFinder>(params);
    }
    case SketchKind::kPositiveFinder: {
      duplicates::PositiveFinder::Params params;
      params.n = n;
      if (spec.s != 0) params.s_budget = spec.s;
      params.delta = spec.delta;
      params.repetitions = static_cast<int>(spec.repetitions);
      params.seed = spec.seed;
      return std::make_unique<duplicates::PositiveFinder>(params);
    }
    case SketchKind::kMomentEstimator: {
      apps::MomentEstimator::Params params;
      params.n = n;
      if (spec.p > 2.0) params.p = spec.p;
      if (spec.repetitions != 0) {
        params.samples = static_cast<int>(spec.repetitions);
      }
      params.seed = spec.seed;
      return std::make_unique<apps::MomentEstimator>(params);
    }
  }
  return nullptr;
}

Status ValidateSpec(const SketchSpec& spec) {
  // Mirrors the LPS_CHECK preconditions of the constructors MakeSketch
  // dispatches to (plus the MakeSketch zero-defaults), so a hostile
  // spec fails here as a Status instead of aborting inside a ctor.
  if (!std::isfinite(spec.p) || !std::isfinite(spec.eps) ||
      !std::isfinite(spec.delta) || !std::isfinite(spec.phi)) {
    return Status::InvalidArgument("spec has a non-finite parameter");
  }
  // Generous caps on the size fields: real sketches are polylogarithmic,
  // and the casts to int inside the params structs must stay positive.
  constexpr uint32_t kMaxDim = 1u << 20;
  constexpr uint64_t kMaxSparsity = 1ull << 22;
  if (spec.rows > kMaxDim || spec.buckets > kMaxDim ||
      spec.repetitions > kMaxDim) {
    return Status::InvalidArgument("spec rows/buckets/repetitions too large");
  }
  if (uint64_t(spec.rows) * spec.buckets > (1ull << 26)) {
    return Status::InvalidArgument("spec rows*buckets too large");
  }
  if (spec.s > kMaxSparsity) {
    return Status::InvalidArgument("spec sparsity budget too large");
  }
  const bool p_in_0_2_open = spec.p > 0 && spec.p < 2;
  const bool p_in_0_2_closed = spec.p > 0 && spec.p <= 2;
  const bool eps_ok = spec.eps > 0 && spec.eps < 1;
  const bool delta_ok = spec.delta > 0 && spec.delta < 1;
  const bool phi_ok = spec.phi > 0 && spec.phi < 1;
  // 2^61 - 1 is the GF fingerprinting modulus (SparseRecovery requires
  // n < p - 1); the dyadic trees require log2(universe) < 63.
  const bool n_fits_gf = spec.n < gf61::kP - 1;
  const bool n_fits_dyadic = spec.n <= (1ull << 62);
  switch (spec.kind) {
    case SketchKind::kCountSketch:
    case SketchKind::kCountMin:
    case SketchKind::kAmsF2:
    case SketchKind::kL0Estimator:
      return Status::OK();
    case SketchKind::kStableSketch:
    case SketchKind::kLpNormEstimator:
      if (!p_in_0_2_closed) {
        return Status::InvalidArgument("spec p must be in (0, 2]");
      }
      return Status::OK();
    case SketchKind::kDyadicCountMin:
    case SketchKind::kDyadicCountSketch:
      if (!n_fits_dyadic) {
        return Status::InvalidArgument("spec n too large for a dyadic tree");
      }
      return Status::OK();
    case SketchKind::kOneSparse:
    case SketchKind::kSparseRecovery:
      if (!n_fits_gf) {
        return Status::InvalidArgument(
            "spec n too large for GF fingerprinting");
      }
      return Status::OK();
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
      if (!p_in_0_2_open) {
        return Status::InvalidArgument("spec p must be in (0, 2)");
      }
      if (!eps_ok) return Status::InvalidArgument("spec eps must be in (0, 1)");
      if (!delta_ok) {
        return Status::InvalidArgument("spec delta must be in (0, 1)");
      }
      return Status::OK();
    case SketchKind::kL0Sampler:
      if (!delta_ok) {
        return Status::InvalidArgument("spec delta must be in (0, 1)");
      }
      return Status::OK();
    case SketchKind::kFisL0Sampler:
      return Status::OK();
    case SketchKind::kCsHeavyHitters:
      if (!p_in_0_2_closed) {
        return Status::InvalidArgument("spec p must be in (0, 2]");
      }
      if (!phi_ok) return Status::InvalidArgument("spec phi must be in (0, 1)");
      return Status::OK();
    case SketchKind::kCmHeavyHitters:
      if (!phi_ok) return Status::InvalidArgument("spec phi must be in (0, 1)");
      return Status::OK();
    case SketchKind::kDyadicHeavyHitters:
      if (!phi_ok) return Status::InvalidArgument("spec phi must be in (0, 1)");
      if (!n_fits_dyadic) {
        return Status::InvalidArgument("spec n too large for a dyadic tree");
      }
      return Status::OK();
    case SketchKind::kDuplicateFinder:
      if (!delta_ok) {
        return Status::InvalidArgument("spec delta must be in (0, 1)");
      }
      return Status::OK();
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
      if (!delta_ok) {
        return Status::InvalidArgument("spec delta must be in (0, 1)");
      }
      if (!n_fits_gf) {
        return Status::InvalidArgument(
            "spec n too large for GF fingerprinting");
      }
      return Status::OK();
    case SketchKind::kMomentEstimator:
      return Status::OK();
  }
  return Status::InvalidArgument("unknown sketch kind");
}

uint64_t EnforcedUniverse(const SketchSpec& spec) {
  switch (spec.kind) {
    // These kinds (or a sampler/recovery structure inside them) check
    // index < n on every update; the bound is the same max(n, 1)
    // resolution MakeSketch applies.
    case SketchKind::kOneSparse:
    case SketchKind::kSparseRecovery:
    case SketchKind::kLpSampler:
    case SketchKind::kL0Sampler:
    case SketchKind::kFisL0Sampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
    // The dyadic-decomposition kinds check index < 2^ceil(log2 n) at
    // every level; max(n, 1) is at most that, so enforcing it here
    // keeps the CHECK unreachable from the wire.
    case SketchKind::kDyadicCountMin:
    case SketchKind::kDyadicCountSketch:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kCmHeavyHitters:
    case SketchKind::kDyadicHeavyHitters:
      return std::max<uint64_t>(spec.n, 1);
    default:
      return 0;  // hashes arbitrary 64-bit indices
  }
}

Result<SketchKind> SketchKindFromName(const std::string& name) {
  // SketchKindName is the single source of the names; invert it by scan
  // (21 entries — not a hot path).
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    if (name == SketchKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown sketch kind '" + name + "'");
}

void SerializeSpec(const SketchSpec& spec, BitWriter* writer) {
  writer->WriteBits(static_cast<uint64_t>(spec.kind), 8);
  writer->WriteU64(spec.n);
  writer->WriteDouble(spec.p);
  writer->WriteDouble(spec.eps);
  writer->WriteDouble(spec.delta);
  writer->WriteDouble(spec.phi);
  writer->WriteBits(spec.rows, 32);
  writer->WriteBits(spec.buckets, 32);
  writer->WriteU64(spec.s);
  writer->WriteBits(spec.repetitions, 32);
  writer->WriteU64(spec.seed);
}

SketchSpec DeserializeSpec(BitReader* reader) {
  SketchSpec spec;
  spec.kind = static_cast<SketchKind>(reader->ReadBits(8));
  spec.n = reader->ReadU64();
  spec.p = reader->ReadDouble();
  spec.eps = reader->ReadDouble();
  spec.delta = reader->ReadDouble();
  spec.phi = reader->ReadDouble();
  spec.rows = static_cast<uint32_t>(reader->ReadBits(32));
  spec.buckets = static_cast<uint32_t>(reader->ReadBits(32));
  spec.s = reader->ReadU64();
  spec.repetitions = static_cast<uint32_t>(reader->ReadBits(32));
  spec.seed = reader->ReadU64();
  return spec;
}

bool IdenticalSpecs(const SketchSpec& a, const SketchSpec& b) {
  BitWriter wa;
  BitWriter wb;
  SerializeSpec(a, &wa);
  SerializeSpec(b, &wb);
  return wa == wb;
}

Result<std::unique_ptr<LinearSketch>> DecodeSketchState(
    const SketchSpec& spec, const std::vector<uint64_t>& words, size_t bits) {
  // The spec may come from the wire: bound it before MakeSketch walks it.
  const Status valid = ValidateSpec(spec);
  if (!valid.ok()) return valid;
  auto sketch = MakeSketch(spec);
  BitWriter prefix;
  sketch->WritePrefix(&prefix);
  // Plain integer tests before anything walks the state.
  if (bits < 32 || bits > words.size() * 64) {
    return Status::InvalidArgument("sketch state truncated");
  }
  if (uint32_t(words[0]) != uint32_t(prefix.words()[0])) {
    return Status::InvalidArgument(
        "sketch state header (magic, kind, version) does not match its spec");
  }
  // Counters change values, never layout, so the spec fixes the size:
  // truncated and padded state stops here.
  if (bits != prefix.bit_count() + sketch->CounterBits()) {
    return Status::InvalidArgument("sketch state does not match its spec");
  }
  // A state whose interior lies (same size, another seed or an
  // out-of-range parameter) differs from the spec's prefix somewhere.
  // BitWriter leaves the bits past its count zero, so each word compares
  // whole against the same number of state bits.
  BitReader reader(&words, bits);
  size_t left = prefix.bit_count();
  for (uint64_t word : prefix.words()) {
    const int take = int(std::min<size_t>(left, 64));
    if (reader.ReadBits(take) != word) {
      return Status::InvalidArgument(
          "sketch state parameters do not match its spec");
    }
    left -= size_t(take);
  }
  sketch->DeserializeCounters(&reader);
  return sketch;
}

}  // namespace lps
