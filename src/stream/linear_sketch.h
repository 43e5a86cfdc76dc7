// The uniform contract every linear structure in this library implements.
//
// All of the paper's machinery — count-sketch, the AMS and stable norm
// sketches, dyadic trees, sparse recovery, the Lp/L0 samplers, heavy
// hitters, and the duplicates finders built on them — maintains a linear
// function of the stream vector x. Linearity is what the Section 4
// reductions exploit ("send the memory contents" to a second party who
// keeps streaming), and it is what makes the structures production-scale:
// shards can ingest disjoint sub-streams independently and their sketches
// add coordinate-wise. A sketch is two things: its parameters (and
// seeds), and a counter vector that merges by addition. Each kind states
// each of them once:
//
//   - Update / UpdateBatch   ingest stream updates (batch path is the
//                            fast path; Update delegates to a batch of 1);
//   - WriteParams /          the construction parameters and seed;
//     ReadParams             ReadParams rebuilds the object from them;
//   - Counters               the counter arrays in wire order, each tagged
//                            real (double), field (GF(2^61-1)) or integer
//                            (int64);
//   - SpaceBits              the paper-model space accounting.
//
// LinearSketch implements the rest once, for every kind, over those two:
//
//   - Serialize/Deserialize  *full* reconstructible state: a versioned
//                            header, the parameters, then the counters.
//                            Deserialize reconfigures the target object to
//                            the serialized parameters, so a fresh
//                            instance (any params of the right type)
//                            restores exactly;
//   - SerializeCounters /    the counters alone, for protocol messages
//     DeserializeCounters    whose size must be the paper's;
//   - MergeSigned            coordinate-wise addition (Merge, sign +1) or
//                            subtraction (MergeNegated, sign -1) of a
//                            replica: same kind, bit-equal parameter
//                            prefix (header + WriteParams) and counter
//                            shape, else a CHECK failure;
//   - Reset                  zero the counters, keep seeds and
//                            allocations (cheap reuse across trials).
//
// Only the duplicates finders override MergeSigned and Reset, to fold
// their shared init sketch back in.
//
// Structures that are not linear maps of x do not implement the interface:
// reservoir samplers (insertion-order dependent), the position-sampling
// strategy of OversampledDuplicateFinder, and the two-pass L0 sampler
// (state is split across passes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

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

/// A sketch's counters: the arrays that merge by addition, listed in wire
/// order. The type of an array fixes its wire width and its merge.
class CounterList {
 public:
  enum class Type : uint8_t {
    kReal,     ///< double, 64 bits; merges by x += sign * y
    kField,    ///< GF(2^61 - 1) element, 61 bits; merges by gf61::AddSigned
    kInteger,  ///< int64_t, 64 bits; merges by integer addition
  };
  struct Array {
    Type type;
    void* data;  ///< `size` 64-bit counters of `type`
    size_t size;
  };

  /// `writes`: the walk will change the counters (Reset, merge,
  /// deserialize). A part that caches a function of its counters drops
  /// the cache when it is listed for writing; read-only walks keep it.
  explicit CounterList(bool writes) : writes_(writes) {}

  void Real(double* data, size_t size) { Add(Type::kReal, data, size); }
  void Real(std::vector<double>* v) { Real(v->data(), v->size()); }
  void Field(uint64_t* data, size_t size) { Add(Type::kField, data, size); }
  void Field(std::vector<uint64_t>* v) { Field(v->data(), v->size()); }
  void Integer(int64_t* data, size_t size) {
    Add(Type::kInteger, data, size);
  }

  /// Empties the list for another walk, keeping its storage.
  void Clear(bool writes) {
    arrays_.clear();
    writes_ = writes;
  }

  bool writes() const { return writes_; }
  const std::vector<Array>& arrays() const { return arrays_; }

  /// The counters' wire size: 61 bits per field element, 64 otherwise.
  size_t bits() const;

 private:
  void Add(Type type, void* data, size_t size) {
    arrays_.push_back({type, data, size});
  }

  std::vector<Array> arrays_;
  bool writes_;
};

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

  /// Lists this sketch's counter arrays, in wire order: the one place a
  /// kind states its counters (a composite lists its parts' in turn).
  /// Every method below that touches counters walks this list.
  virtual void Counters(CounterList* list) = 0;

  /// Writes the construction parameters and seeds: the bits between the
  /// header and the counters.
  virtual void WriteParams(BitWriter* writer) const = 0;

  /// Reads what WriteParams wrote and rebuilds this object from it; its
  /// counters are read next. CHECK-fails (in the constructors) on
  /// parameters out of range — state from outside the process goes
  /// through DecodeSketchState instead, which never parses them.
  virtual void ReadParams(BitReader* reader) = 0;

  /// Paper-model space at 64 bits per counter.
  virtual size_t SpaceBits() const = 0;

  /// The type tag this object serializes under.
  virtual SketchKind kind() const = 0;

  /// Folds `sign` x `other`'s counters into this one, array by array:
  /// real counters x += sign * y, field counters gf61::AddSigned, integer
  /// counters integer addition. Precondition: `sign` is +1 or -1.
  /// `other` must be a replica: same kind, bit-equal parameter prefix
  /// (so identical parameters and seeds) and the same counter shape;
  /// any mismatch CHECK-fails. With +1 this adds a replica (Merge); with
  /// -1 it subtracts a checkpoint (MergeNegated): if this sketch holds
  /// the prefix x[0..now) and `other` the prefix x[0..t), the result is
  /// exactly the window x[t..now) without re-ingesting an update
  /// (stream::WindowManager). Exactness, for either sign (x + (-1 * y)
  /// rounds exactly as x - y): bit-exact for the integer-valued-double
  /// and GF(2^61-1) counter families, exact up to FP reassociation for
  /// the real-scaled ones. The duplicates finders override it to then
  /// fold -sign x their shared (i,-1) init sketch (O(state)), so the
  /// result is again a well-formed finder over the summed or subtracted
  /// letter multiset.
  virtual void MergeSigned(const LinearSketch& other, int sign);

  /// Coordinate-wise addition of a replica: MergeSigned(other, +1).
  void Merge(const LinearSketch& other) { MergeSigned(other, +1); }

  /// Coordinate-wise subtraction of a replica: MergeSigned(other, -1).
  void MergeNegated(const LinearSketch& other) { MergeSigned(other, -1); }

  /// Zeroes the counters while keeping seeds, parameters, and
  /// allocations — after Reset the object is indistinguishable from a
  /// freshly constructed one, without paying reconstruction. The
  /// duplicates finders override it to fold their init sketch back in.
  virtual void Reset();

  /// Full reconstructible state: WritePrefix, then SerializeCounters.
  void Serialize(BitWriter* writer) const;

  /// Restores serialized state, reconfiguring this object to the
  /// serialized parameters: ReadPrefix, then DeserializeCounters.
  /// CHECK-fails on a kind mismatch or a version outside the range this
  /// library reads for the kind.
  void Deserialize(BitReader* reader);

  /// The parameter prefix every Serialize starts with: the header, then
  /// WriteParams. Counters never change it, so two sketches merge
  /// exactly when their kinds and prefixes are equal (Mergeable).
  void WritePrefix(BitWriter* writer) const;

  /// Reads a prefix written by WritePrefix: ReadSketchHeader, then
  /// ReadParams.
  void ReadPrefix(BitReader* reader);

  /// The counters alone, in wire order (seeds are shared randomness and
  /// travel out of band): what the Section 4 reductions send.
  void SerializeCounters(BitWriter* writer) const;
  void DeserializeCounters(BitReader* reader);

  /// Bits SerializeCounters writes.
  size_t CounterBits() const;

 private:
  /// The counter list of a walk that only reads; valid until the next
  /// walk on this thread.
  const CounterList& ReadCounters() const;
};

/// Whether `a` and `b` are of one kind with bit-equal parameter prefixes:
/// exactly when MergeSigned accepts one into the other.
bool Mergeable(const LinearSketch& a, const LinearSketch& b);

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
