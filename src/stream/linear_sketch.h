// The uniform contract every linear structure in this library implements.
//
// All of the paper's machinery — count-sketch, the AMS and stable norm
// sketches, dyadic trees, sparse recovery, the Lp/L0 samplers, heavy
// hitters, and the duplicates finders built on them — maintains a linear
// function of the stream vector x. Linearity is what the Section 4
// reductions exploit ("send the memory contents" to a second party who
// keeps streaming), and it is what makes the structures production-scale:
// shards can ingest disjoint sub-streams independently and their sketches
// add coordinate-wise. The LinearSketch interface makes that deployment
// mode a first-class API:
//
//   - Update / UpdateBatch   ingest stream updates (batch path is the
//                            fast path; Update delegates to a batch of 1);
//   - MergeSigned            coordinate-wise addition (Merge, sign +1) or
//                            subtraction (MergeNegated, sign -1) of a
//                            replica built with identical parameters and
//                            seeds — CHECK-fails on any mismatch;
//   - Serialize/Deserialize  *full* reconstructible state: a versioned
//                            header, the construction parameters and seed,
//                            then the counters. Deserialize reconfigures
//                            the target object to the serialized
//                            parameters, so a fresh instance (any params
//                            of the right type) restores exactly;
//   - Reset                  zero the counters, keep seeds and
//                            allocations (cheap reuse across trials);
//   - SpaceBits              the paper-model space accounting.
//
// Structures that are not linear maps of x do not implement the interface:
// reservoir samplers (insertion-order dependent), the position-sampling
// strategy of OversampledDuplicateFinder, and the two-pass L0 sampler
// (state is split across passes).
#pragma once

#include <cstdint>
#include <memory>

#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps {

/// Type tag stored in every serialized sketch header. Values are part of
/// the wire format: never renumber, only append.
enum class SketchKind : uint32_t {
  kCountSketch = 1,
  kCountMin = 2,
  kAmsF2 = 3,
  kStableSketch = 4,
  kDyadicCountMin = 5,
  kDyadicCountSketch = 6,
  kL0Estimator = 7,
  kLpNormEstimator = 8,
  kOneSparse = 9,
  kSparseRecovery = 10,
  kLpSampler = 11,
  kL0Sampler = 12,
  kFisL0Sampler = 13,
  kAkoSampler = 14,
  kCsHeavyHitters = 15,
  kCmHeavyHitters = 16,
  kDyadicHeavyHitters = 17,
  kDuplicateFinder = 18,
  kSparseDuplicateFinder = 19,
  kPositiveFinder = 20,
  kMomentEstimator = 21,
};

/// Human-readable name of a kind (for tools and error messages).
const char* SketchKindName(SketchKind kind);

/// The serialized layout version `kind` writes. Versions are per kind, so
/// a layout change invalidates saved state of the kinds it touches and
/// of no other. ReadSketchHeader accepts a version from the kind's oldest
/// readable layout up to this one and CHECK-fails outside that range.
///   v2: the samplers and heavy-hitter classes grew co-updated dyadic
///       candidate generators (extra params + counters); cm_heavy_hitters
///       and the kinds v3 changes do not read v1 state.
///   v3: DyadicCountSketch keeps only the levels its descents read
///       (0..start_level()). The eight kinds whose state holds one —
///       dyadic_count_sketch, lp_sampler, ako_sampler, cs_heavy_hitters,
///       duplicate_finder, sparse_duplicate_finder, positive_finder and
///       moment_estimator — write v3 and read nothing older, since their
///       earlier layouts differ from it (v2 carries the dropped levels).
///       The other 13 kinds still write v2.
uint32_t SketchFormatVersion(SketchKind kind);

class LinearSketch {
 public:
  virtual ~LinearSketch() = default;

  /// Uniform single-update entry point; concrete classes keep their own
  /// typed Update fast paths alongside (which shadow this one — same
  /// semantics, both funnel into UpdateBatch).
  void Update(uint64_t i, int64_t delta) {
    const stream::Update u{i, delta};
    UpdateBatch(&u, 1);
  }

  /// Batched ingestion in stream order — the hot path.
  virtual void UpdateBatch(const stream::Update* updates, size_t count) = 0;

  /// Folds `sign` x `other`'s counters into this one. Precondition: `sign`
  /// is +1 or -1 (the double families multiply by it, the field families
  /// treat any positive value as +1). `other` must be the same concrete
  /// type, constructed with identical parameters and seeds (a shard
  /// replica); any mismatch CHECK-fails. With +1 this adds a replica
  /// (Merge); with -1 it subtracts a checkpoint (MergeNegated): if this
  /// sketch holds the prefix x[0..now) and `other` the prefix x[0..t),
  /// the result is exactly the window x[t..now) without re-ingesting an
  /// update (stream::WindowManager). Exactness, for either sign (x +
  /// (-1 * y) rounds exactly as x - y): bit-exact for the
  /// integer-valued-double and GF(2^61-1) counter families, exact up to
  /// FP reassociation for the real-scaled ones. The duplicates finders
  /// then fold -sign x their shared (i,-1) init sketch (O(state)), so the
  /// result is again a well-formed finder over the summed or subtracted
  /// letter multiset.
  virtual void MergeSigned(const LinearSketch& other, int sign) = 0;

  /// Coordinate-wise addition of a replica: MergeSigned(other, +1).
  void Merge(const LinearSketch& other) { MergeSigned(other, +1); }

  /// Coordinate-wise subtraction of a replica: MergeSigned(other, -1).
  void MergeNegated(const LinearSketch& other) { MergeSigned(other, -1); }

  /// Full reconstructible state: versioned header, parameters, seed,
  /// counters.
  virtual void Serialize(BitWriter* writer) const = 0;

  /// Restores serialized state, reconfiguring this object to the
  /// serialized parameters. CHECK-fails on a kind mismatch or a version
  /// outside the range this library reads for the kind.
  virtual void Deserialize(BitReader* reader) = 0;

  /// Zeroes the counters while keeping seeds, parameters, and
  /// allocations — after Reset the object is indistinguishable from a
  /// freshly constructed one, without paying reconstruction.
  virtual void Reset() = 0;

  /// Paper-model space at 64 bits per counter.
  virtual size_t SpaceBits() const = 0;

  /// The type tag this object serializes under.
  virtual SketchKind kind() const = 0;
};

/// Writes the standard header: 16-bit magic, 8-bit kind, 8-bit version.
void WriteSketchHeader(BitWriter* writer, SketchKind kind);

/// Reads and validates a header written by WriteSketchHeader. CHECK-fails
/// on bad magic, a kind other than `expected`, or a version outside the
/// range `expected` reads (see SketchFormatVersion).
void ReadSketchHeader(BitReader* reader, SketchKind expected);

/// Reads just the magic and kind tag (advancing `reader` by 24 bits) —
/// used by tools to dispatch on the type of a saved sketch before
/// constructing one; pass a throwaway reader and Deserialize through a
/// fresh one. CHECK-fails on bad magic.
SketchKind PeekSketchKind(BitReader* reader);

/// Constructs an empty instance of the given kind with throwaway
/// parameters — the canonical Deserialize target, since Deserialize
/// reconfigures the object to the serialized parameters. Covers every
/// SketchKind; returns nullptr for a kind value outside the enum (a
/// corrupt or future wire stream).
std::unique_ptr<LinearSketch> MakeEmptySketch(SketchKind kind);

/// Reads one serialized sketch of any kind: peeks the kind tag,
/// constructs the matching concrete type, rewinds, and Deserializes.
/// `reader` must hold the sketch starting at bit 0 (the save-file layout;
/// Rewind() is used to re-read the header). CHECK-fails on bad magic or a
/// version outside the range this library reads for the kind; returns
/// nullptr on an unknown kind tag. This is the dispatch the lps_cli
/// load/merge subcommands use.
std::unique_ptr<LinearSketch> DeserializeAnySketch(BitReader* reader);

}  // namespace lps
