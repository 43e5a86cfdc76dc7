// SketchSpec — the one construction path for every structure in the
// library.
//
// Five PRs of growth left construction scattered across per-structure
// params structs (LpSamplerParams, CsHeavyHitters::Params, bare
// constructor argument lists, ...). Anything that needs to *name* a
// sketch across a boundary — the server's CREATE request, a saved spec
// next to a snapshot, the CLI's command parsing — would have to
// re-encode each of those shapes. SketchSpec collapses them into one
// small, wire-encodable description:
//
//     SketchSpec spec;
//     spec.kind = SketchKind::kCsHeavyHitters;
//     spec.n = 1 << 20; spec.p = 1.0; spec.phi = 0.05; spec.seed = 42;
//     auto sketch = MakeSketch(spec);       // any of the 21 kinds
//
// MakeSketch is total over SketchKind: every kind constructs, with
// zero-valued fields resolving to the same library defaults the concrete
// params structs use. MakeEmptySketch (the Deserialize target behind
// DeserializeAnySketch) is now a thin wrapper over MakeSketch, so the
// wire-format dispatch, the server registry, and the CLI all construct
// through this single registry.
// The map runs one way: a live sketch's parameters travel in its
// serialized state, whose parameter prefix DecodeSketchState compares
// bit for bit against the sketch a spec builds.
//
// Determinism contract: MakeSketch(spec) called twice yields two
// identically-seeded replicas (all randomness derives from spec.seed) —
// exactly what ParallelPipeline::Add requires of its per-shard replicas.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/stream/linear_sketch.h"
#include "src/util/serialize.h"
#include "src/util/status.h"

namespace lps {

/// One wire-encodable description of any constructible sketch. Fields a
/// kind does not use are ignored by MakeSketch; 0 (or 0.0) in a
/// sized/derived field means "library default", mirroring the
/// per-structure params structs.
struct SketchSpec {
  SketchKind kind = SketchKind::kLpSampler;
  uint64_t n = 0;        ///< universe size
  double p = 1.0;        ///< Lp parameter (samplers, norms, heavy hitters)
  double eps = 0.5;      ///< relative-error target (Lp sampler)
  double delta = 0.25;   ///< failure-probability target
  double phi = 0.1;      ///< heaviness threshold (heavy hitters)
  uint32_t rows = 0;     ///< rows / groups / reps; 0 = auto
  uint32_t buckets = 0;  ///< row width / per-group; 0 = auto
  uint64_t s = 0;        ///< sparsity budget (recovery, duplicates); 0 = auto
  uint32_t repetitions = 0;  ///< parallel rounds / samples; 0 = auto
  uint64_t seed = 0;

  bool operator==(const SketchSpec& o) const;
  bool operator!=(const SketchSpec& o) const { return !(*this == o); }
};

/// Constructs a sketch of spec.kind. Total over the enum: every kind
/// builds (unused fields ignored, zeros resolve to library defaults);
/// returns nullptr only for a kind value outside the enum (corrupt wire
/// data). Two calls with equal specs produce identically-seeded replicas.
///
/// Precondition: the spec's values are in range for its kind — the
/// underlying constructors LPS_CHECK their parameters (a programming
/// error aborts). Specs that arrive from an untrusted boundary (the
/// server's CREATE/RESTORE requests) must pass ValidateSpec first.
std::unique_ptr<LinearSketch> MakeSketch(const SketchSpec& spec);

/// Checks a spec's values against the constructor preconditions of its
/// kind, as a recoverable error instead of a CHECK abort: finite
/// doubles in their documented ranges (p, eps, delta, phi), size fields
/// under generous server-side caps (so a hostile spec cannot demand an
/// unbounded allocation), universe bounds for the GF-fingerprinting and
/// dyadic kinds. OK means MakeSketch(spec) constructs without tripping
/// any precondition. Wire-facing construction paths call this before
/// MakeSketch; in-process callers may skip it.
Status ValidateSpec(const SketchSpec& spec);

/// The bound MakeSketch(spec)'s sketch enforces on update indices
/// (update paths LPS_CHECK index < bound), or 0 for the kinds that hash
/// arbitrary 64-bit indices. Wire-facing ingest paths reject an index
/// at or past this bound before it reaches the sketch.
uint64_t EnforcedUniverse(const SketchSpec& spec);

/// Inverse of SketchKindName: resolves "cs_heavy_hitters" etc. to the
/// kind tag. Status::InvalidArgument for an unknown name.
Result<SketchKind> SketchKindFromName(const std::string& name);

/// Bit-exact spec encoding — the CREATE request payload and the header of
/// every server snapshot go through these, so the wire format has one
/// source of truth.
void SerializeSpec(const SketchSpec& spec, BitWriter* writer);
SketchSpec DeserializeSpec(BitReader* reader);

/// Whether two specs serialize to the same bits — stricter than
/// operator==, which takes -0.0 for 0.0. Sketches built from identical
/// specs pass Merge's parameter CHECK; the server folds a distributed
/// epoch into a stream only when this holds.
bool IdenticalSpecs(const SketchSpec& a, const SketchSpec& b);

/// Decodes serialized state that claims to be a sketch of `spec`, with
/// every mismatch an InvalidArgument instead of a CHECK abort — the one
/// check for state from outside the process (snapshot RESTORE, store
/// records, distributed epochs). In order: ValidateSpec, then one
/// MakeSketch(spec) — the only constructor that runs, on checked
/// values; the length and the 32-bit header (magic, kind, version)
/// against that sketch's prefix (LinearSketch::WritePrefix); the total
/// size, prefix plus CounterBits, which counters never change; then the
/// state's whole parameter prefix, bit for bit against the sketch's,
/// which proves every parameter and seed it carries is `spec`'s without
/// parsing any of them. Only then are the counters read, once, into
/// that sketch, through a view of `words` (no copy).
Result<std::unique_ptr<LinearSketch>> DecodeSketchState(
    const SketchSpec& spec, const std::vector<uint64_t>& words, size_t bits);

}  // namespace lps
