// Delta compression for serialized sketch checkpoints.
//
// Consecutive checkpoints of a LinearSketch are near-duplicates: between
// two seals only the counters touched by that interval's updates change,
// and the parameter/seed prefix never changes. The codec exploits this by
// differencing a checkpoint's serialized words against its predecessor's
// and then byte-compressing the difference with a self-contained
// varint + zero-run-length scheme — no external compressor dependency.
//
// Two difference operators are provided, matching the two counter
// algebras in the library:
//
//   kXor  — bitwise XOR per 64-bit word. Always exact, and the natural
//           choice for the GF(2^61-1) families (fingerprints, syndromes),
//           whose group operation is modular — untouched state XORs to
//           zero regardless of representation.
//   kSub  — two's-complement subtraction per 64-bit word. Exact under
//           wraparound; for integer-valued counters that drift by small
//           amounts the difference has few significant bytes.
//
// A kKeyframe record is a delta against the all-zero stream: it decodes
// with no predecessor and anchors a chain of deltas (the spill ring cuts
// a keyframe every few records so rehydration never replays an unbounded
// chain). Round-trip is guaranteed bit-exact for every SketchKind — the
// codec never interprets the serialized bytes, so FP-scaled families are
// exactly as safe as integer ones.
//
// Compression is workload-dependent: checkpoints of a stream with
// temporal locality (a bounded working set per interval) compress by the
// fraction of untouched counters; a uniform stream that touches most
// counters per interval carries fresh entropy everywhere and is
// near-incompressible. bench_persist measures both regimes.
#pragma once

#include <cstdint>
#include <vector>

#include "src/stream/linear_sketch.h"

namespace lps::persist {

/// How a record's payload relates to its predecessor. Values are part of
/// the on-disk format: never renumber, only append.
enum class DeltaMode : uint8_t {
  kKeyframe = 0,  // delta against the all-zero stream (self-contained)
  kXor = 1,
  kSub = 2,
};

/// A compressed checkpoint record. `raw_bits` is the bit count of the
/// plaintext stream (BitWriter::bit_count()); the decoded word vector has
/// ceil(raw_bits / 64) words with trailing bits zero, matching the
/// BitWriter invariant — so decode reproduces the serialized state
/// bit-identically.
struct EncodedDelta {
  DeltaMode mode = DeltaMode::kKeyframe;
  uint64_t raw_bits = 0;
  std::vector<uint8_t> bytes;
};

/// Encodes `cur` against predecessor `prev` using `mode`. For kKeyframe
/// the predecessor is ignored (pass an empty vector). If `prev` is
/// shorter than `cur` it is zero-padded; a longer predecessor's tail is
/// ignored.
EncodedDelta EncodeDelta(DeltaMode mode, const std::vector<uint64_t>& cur,
                         size_t cur_bits, const std::vector<uint64_t>& prev,
                         size_t prev_bits);

/// Encodes `cur` with whichever of kXor / kSub yields the smaller
/// payload (ties go to kXor). With an empty predecessor this returns a
/// kKeyframe record.
EncodedDelta EncodeBestDelta(const std::vector<uint64_t>& cur,
                             size_t cur_bits,
                             const std::vector<uint64_t>& prev,
                             size_t prev_bits);

/// Inverts EncodeDelta: reconstructs the plaintext words from `delta` and
/// the same predecessor it was encoded against. `expected_bits` is the
/// bit count the caller knows the state has (every checkpoint of one
/// sketch serializes to the same count); a record claiming another is
/// rejected before anything is sized by its claim. Returns false
/// (leaving `out_words` untouched) on that, on a malformed payload — a
/// truncated varint, a stream that does not decode to exactly raw_bits
/// worth of bytes — or on an unknown mode. Never aborts or throws: store
/// payloads come from disk.
bool DecodeDelta(const EncodedDelta& delta, const std::vector<uint64_t>& prev,
                 size_t expected_bits, std::vector<uint64_t>* out_words);

/// The byte-compressor layer on its own (exposed for tests and for the
/// store's internal framing): LEB128 varints framing alternating
/// zero-run / literal-run spans.
std::vector<uint8_t> CompressBytes(const std::vector<uint8_t>& plain);
bool DecompressBytes(const std::vector<uint8_t>& packed, size_t plain_size,
                     std::vector<uint8_t>* out);

}  // namespace lps::persist
