#include "src/stream/linear_sketch.h"

// Construction is delegated to the MakeSketch registry (the one place
// that names every concrete LinearSketch), so the wire-format dispatch,
// the server's CREATE path, and the CLI all build through one door.
#include "src/api/sketch_spec.h"
#include "src/util/check.h"

namespace lps {

namespace {

// "LS" in ASCII; 16 bits at the front of every serialized sketch.
constexpr uint64_t kMagic = 0x4C53;

// True for the kinds whose state holds a DyadicCountSketch, directly or
// through an LpSampler or CsHeavyHitters: the layouts v3 changed.
bool HoldsDyadicCountSketch(SketchKind kind) {
  switch (kind) {
    case SketchKind::kDyadicCountSketch:
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
      return true;
    default:
      return false;
  }
}

// The oldest version whose layout `kind` still reads: the last version
// that changed the kind's layout.
uint32_t MinSketchFormatVersion(SketchKind kind) {
  if (HoldsDyadicCountSketch(kind)) return 3;
  if (kind == SketchKind::kCmHeavyHitters) return 2;
  return 1;
}

}  // namespace

uint32_t SketchFormatVersion(SketchKind kind) {
  return HoldsDyadicCountSketch(kind) ? 3 : 2;
}

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kCountSketch: return "count_sketch";
    case SketchKind::kCountMin: return "count_min";
    case SketchKind::kAmsF2: return "ams_f2";
    case SketchKind::kStableSketch: return "stable_sketch";
    case SketchKind::kDyadicCountMin: return "dyadic_count_min";
    case SketchKind::kDyadicCountSketch: return "dyadic_count_sketch";
    case SketchKind::kL0Estimator: return "l0_estimator";
    case SketchKind::kLpNormEstimator: return "lp_norm_estimator";
    case SketchKind::kOneSparse: return "one_sparse";
    case SketchKind::kSparseRecovery: return "sparse_recovery";
    case SketchKind::kLpSampler: return "lp_sampler";
    case SketchKind::kL0Sampler: return "l0_sampler";
    case SketchKind::kFisL0Sampler: return "fis_l0_sampler";
    case SketchKind::kAkoSampler: return "ako_sampler";
    case SketchKind::kCsHeavyHitters: return "cs_heavy_hitters";
    case SketchKind::kCmHeavyHitters: return "cm_heavy_hitters";
    case SketchKind::kDyadicHeavyHitters: return "dyadic_heavy_hitters";
    case SketchKind::kDuplicateFinder: return "duplicate_finder";
    case SketchKind::kSparseDuplicateFinder: return "sparse_duplicate_finder";
    case SketchKind::kPositiveFinder: return "positive_finder";
    case SketchKind::kMomentEstimator: return "moment_estimator";
  }
  return "unknown";
}

void WriteSketchHeader(BitWriter* writer, SketchKind kind) {
  writer->WriteBits(kMagic, 16);
  writer->WriteBits(static_cast<uint64_t>(kind), 8);
  writer->WriteBits(SketchFormatVersion(kind), 8);
}

void ReadSketchHeader(BitReader* reader, SketchKind expected) {
  LPS_CHECK(reader->ReadBits(16) == kMagic);
  LPS_CHECK(reader->ReadBits(8) == static_cast<uint64_t>(expected));
  const uint32_t version = static_cast<uint32_t>(reader->ReadBits(8));
  LPS_CHECK(version >= MinSketchFormatVersion(expected) &&
            version <= SketchFormatVersion(expected));
}

SketchKind PeekSketchKind(BitReader* reader) {
  LPS_CHECK(reader->ReadBits(16) == kMagic);
  return static_cast<SketchKind>(reader->ReadBits(8));
}

std::unique_ptr<LinearSketch> MakeEmptySketch(SketchKind kind) {
  // Throwaway parameters: Deserialize reconfigures the object to the
  // serialized ones, so the empty instance only has to construct. All
  // sizing fields are pinned to 1 so even the dyadic/recovery families
  // allocate next to nothing.
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 1;
  spec.rows = 1;
  spec.buckets = 1;
  spec.s = 1;
  spec.repetitions = 1;
  return MakeSketch(spec);
}

std::unique_ptr<LinearSketch> DeserializeAnySketch(BitReader* reader) {
  const SketchKind kind = PeekSketchKind(reader);
  auto sketch = MakeEmptySketch(kind);
  if (sketch == nullptr) return nullptr;
  reader->Rewind();
  sketch->Deserialize(reader);
  return sketch;
}

}  // namespace lps
