#include "src/stream/linear_sketch.h"

#include <cstring>

// Construction is delegated to the MakeSketch registry (the one place
// that names every concrete LinearSketch), so the wire-format dispatch,
// the server's CREATE path, and the CLI all build through one door.
#include "src/api/sketch_spec.h"
#include "src/field/gf61.h"
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

int WireBits(CounterList::Type type) {
  return type == CounterList::Type::kField ? 61 : 64;
}

// Lists `sketch`'s counters into this thread's list `slot` (0 or 1) and
// returns it; valid until the next walk through that slot. A merge holds
// one list of each slot; no walk starts another while it runs. Merges,
// resets and (de)serializations run often and between a sketch's large
// arrays: fresh lists on every walk left freed chunks there that raised
// the peak RSS of a repeated 2-shard duplicate_finder job (n = 2^17) from
// a median 23.5 to 26.1 MB over 10 runs (4-vCPU AVX2 host, glibc malloc).
CounterList& ListCounters(int slot, LinearSketch* sketch, bool writes) {
  thread_local CounterList lists[2] = {CounterList(false), CounterList(false)};
  CounterList& list = lists[slot];
  list.Clear(writes);
  sketch->Counters(&list);
  return list;
}

}  // namespace

size_t CounterList::bits() const {
  size_t bits = 0;
  for (const Array& a : arrays_) bits += a.size * size_t(WireBits(a.type));
  return bits;
}

const CounterList& LinearSketch::ReadCounters() const {
  // Listing for reading changes nothing, so it may go through the
  // non-const Counters on a const sketch.
  return ListCounters(1, const_cast<LinearSketch*>(this), /*writes=*/false);
}

bool Mergeable(const LinearSketch& a, const LinearSketch& b) {
  // Every merge runs this check; per-thread writers keep it from
  // allocating, for the reason ListCounters gives.
  if (a.kind() != b.kind()) return false;
  thread_local BitWriter prefix_a, prefix_b;
  prefix_a.Clear();
  prefix_b.Clear();
  a.WritePrefix(&prefix_a);
  b.WritePrefix(&prefix_b);
  return prefix_a == prefix_b;
}

void LinearSketch::MergeSigned(const LinearSketch& other, int sign) {
  LPS_CHECK(Mergeable(*this, other));
  const CounterList& mine = ListCounters(0, this, /*writes=*/true);
  const CounterList& theirs = other.ReadCounters();
  LPS_CHECK(mine.arrays().size() == theirs.arrays().size());
  for (size_t k = 0; k < mine.arrays().size(); ++k) {
    const CounterList::Array& x = mine.arrays()[k];
    const CounterList::Array& y = theirs.arrays()[k];
    LPS_CHECK(x.type == y.type && x.size == y.size);
    switch (x.type) {
      case CounterList::Type::kReal: {
        double* xs = static_cast<double*>(x.data);
        const double* ys = static_cast<const double*>(y.data);
        for (size_t c = 0; c < x.size; ++c) xs[c] += sign * ys[c];
        break;
      }
      case CounterList::Type::kField: {
        uint64_t* xs = static_cast<uint64_t*>(x.data);
        const uint64_t* ys = static_cast<const uint64_t*>(y.data);
        for (size_t c = 0; c < x.size; ++c) {
          xs[c] = gf61::AddSigned(xs[c], ys[c], sign);
        }
        break;
      }
      case CounterList::Type::kInteger: {
        // x += sign * y in uint64_t, which wraps where int64_t overflows.
        int64_t* xs = static_cast<int64_t*>(x.data);
        const int64_t* ys = static_cast<const int64_t*>(y.data);
        const uint64_t s = uint64_t(int64_t(sign));
        for (size_t c = 0; c < x.size; ++c) {
          xs[c] = int64_t(uint64_t(xs[c]) + s * uint64_t(ys[c]));
        }
        break;
      }
    }
  }
}

void LinearSketch::Reset() {
  const CounterList& list = ListCounters(0, this, /*writes=*/true);
  // 0.0, the field zero and integer 0 are all the all-zero word.
  for (const CounterList::Array& a : list.arrays()) {
    std::memset(a.data, 0, a.size * sizeof(uint64_t));
  }
}

void LinearSketch::Serialize(BitWriter* writer) const {
  WritePrefix(writer);
  SerializeCounters(writer);
}

void LinearSketch::Deserialize(BitReader* reader) {
  ReadPrefix(reader);
  DeserializeCounters(reader);
}

void LinearSketch::WritePrefix(BitWriter* writer) const {
  WriteSketchHeader(writer, kind());
  WriteParams(writer);
}

void LinearSketch::ReadPrefix(BitReader* reader) {
  ReadSketchHeader(reader, kind());
  ReadParams(reader);
}

// Real and integer counters travel bit for bit, as whole words; field
// elements as their 61 bits. The field loop calls the writer's and
// reader's fixed-width entry points: one loop over a runtime width made a
// 1.5 Mbit cm_heavy_hitters state 8-12% slower to write and read (4-vCPU
// AVX2 host).
void LinearSketch::SerializeCounters(BitWriter* writer) const {
  const CounterList& list = ReadCounters();
  // The words of a checkpoint or snapshot are kept as written, so they
  // get one allocation of the exact size.
  writer->Reserve(writer->bit_count() + list.bits());
  for (const CounterList::Array& a : list.arrays()) {
    if (a.type == CounterList::Type::kField) {
      const uint64_t* xs = static_cast<const uint64_t*>(a.data);
      for (size_t c = 0; c < a.size; ++c) writer->WriteBits(xs[c], 61);
    } else {
      writer->WriteWords(a.data, a.size);
    }
  }
}

void LinearSketch::DeserializeCounters(BitReader* reader) {
  const CounterList& list = ListCounters(0, this, /*writes=*/true);
  for (const CounterList::Array& a : list.arrays()) {
    if (a.type == CounterList::Type::kField) {
      uint64_t* xs = static_cast<uint64_t*>(a.data);
      for (size_t c = 0; c < a.size; ++c) xs[c] = reader->ReadBits(61);
    } else {
      reader->ReadWords(a.data, a.size);
    }
  }
}

size_t LinearSketch::CounterBits() const { return ReadCounters().bits(); }

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
