// Workload generators for the tests, benches and `lps_cli gen`. All are
// deterministic in their seed. Streams are integer update streams in the
// paper's model; letter streams (for the duplicates problems of Section 3)
// are sequences over the alphabet [n].
#pragma once

#include <cstdint>
#include <vector>

#include "src/stream/update.h"

namespace lps::stream {

/// A letter stream for the duplicates problem: `letters[t]` in [0, n).
using LetterStream = std::vector<uint64_t>;

/// General turnstile stream: `num_updates` updates at uniform coordinates
/// with uniform deltas in [-max_abs, max_abs] \ {0}.
UpdateStream UniformTurnstile(uint64_t n, uint64_t num_updates,
                              int64_t max_abs, uint64_t seed);

/// Turnstile stream with temporal locality: every `epoch` updates a fresh
/// working set of `hot_keys` coordinates is drawn, and updates within the
/// epoch hit only that set (uniform deltas in [-max_abs, max_abs] \ {0}).
/// This is the monitoring-style workload where consecutive checkpoints of
/// a sketch differ in few counters — the regime the persist/ delta codec
/// is benchmarked on (checkpoints of a uniform stream carry fresh entropy
/// in nearly every counter and are near-incompressible by design).
UpdateStream HotSetTurnstile(uint64_t n, uint64_t num_updates,
                             uint64_t hot_keys, uint64_t epoch,
                             int64_t max_abs, uint64_t seed);

/// Sets x_i proportional to a Zipf(alpha) law over a random permutation of
/// coordinates, scaled so the largest magnitude is `scale`, with random
/// signs if `signed_values`. Delivered as single-coordinate updates in
/// random order.
UpdateStream ZipfianVector(uint64_t n, double alpha, int64_t scale,
                           bool signed_values, uint64_t seed);

/// Random vector with exactly k non-zero coordinates, each +1 or -1
/// (the hard instances of Theorem 8).
UpdateStream SignVector(uint64_t n, uint64_t k, uint64_t seed);

/// Random vector with exactly k non-zero coordinates with uniform values in
/// [1, max_abs] times a random sign, delivered as possibly-split updates
/// (each coordinate's value may arrive over several updates).
UpdateStream SparseVector(uint64_t n, uint64_t k, int64_t max_abs,
                          uint64_t seed);

/// Insert-then-delete churn: `churn` coordinates receive an insert and a
/// matching delete; `survivors` coordinates keep value +1. Stresses
/// L0 samplers and sparse recovery (the final vector is `survivors`-sparse
/// but the stream touches far more coordinates).
UpdateStream InsertDeleteChurn(uint64_t n, uint64_t churn, uint64_t survivors,
                               uint64_t seed);

/// Planted heavy hitters: `num_heavy` coordinates get magnitude `heavy_value`
/// (random signs if signed_values); `noise_support` others get magnitude 1.
UpdateStream PlantedHeavyHitters(uint64_t n, uint64_t num_heavy,
                                 int64_t heavy_value, uint64_t noise_support,
                                 bool signed_values, uint64_t seed);

/// Letter stream of length n + extras over alphabet [n]: a random
/// permutation of [n] with `extras` additional letters re-drawn uniformly
/// and inserted at random positions. extras >= 1 guarantees duplicates;
/// extras == 0 gives a duplicate-free stream.
LetterStream DuplicateStream(uint64_t n, uint64_t extras, uint64_t seed);

/// Letter stream of length n - s over alphabet [n] with `num_duplicates`
/// letters appearing exactly twice (Theorem 4 workloads). Requires
/// 2 * num_duplicates <= n - s.
LetterStream ShortStreamWithDuplicates(uint64_t n, uint64_t s,
                                       uint64_t num_duplicates, uint64_t seed);

/// Converts a letter stream into the update stream of Theorem 3's reduction:
/// first (i, -1) for every i in [0, n), then (letter, +1) per letter.
UpdateStream DuplicatesReduction(uint64_t n, const LetterStream& letters);

}  // namespace lps::stream
