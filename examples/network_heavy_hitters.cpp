// Network heavy hitters over a flow-delta stream (Section 4.4).
//
// A router exports per-flow byte deltas; flows can shrink (retransmission
// adjustments, accounting corrections), so the stream is strict turnstile:
// arbitrary +/- updates, non-negative final totals. The operator wants
// every flow carrying >= phi of the traffic and no flow below phi/2 — the
// paper's valid heavy hitter set, for which Theorem 9 proves
// Omega(phi^-p log^2 n) bits are necessary and count-sketch/count-min are
// optimal.
//
// Build & run:  ./build/examples/network_heavy_hitters
#include <cstdio>
#include <vector>

#include "src/heavy/heavy_hitters.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/stream/parallel_pipeline.h"
#include "src/util/bits.h"
#include "src/util/random.h"

int main() {
  const int log_n = 16;
  const uint64_t num_flows = 1ULL << log_n;  // flow-id space
  const double phi = 0.05;

  // Synthesize traffic: 5 elephant flows + 20000 mice, then corrections.
  lps::stream::UpdateStream traffic =
      lps::stream::PlantedHeavyHitters(num_flows, 5, 40000, 20000, false, 3);
  {
    lps::Rng rng(9);
    // Corrections: shave bytes off random mice (kept non-negative).
    lps::stream::UpdateStream corrected;
    for (const auto& u : traffic) {
      corrected.push_back(u);
      if (u.delta == 1 && rng.NextDouble() < 0.2) {
        corrected.push_back({u.index, 0});  // no-op marker, keeps it simple
      }
    }
    traffic.swap(corrected);
  }

  lps::stream::ExactVector exact(num_flows);

  lps::heavy::CmHeavyHitters cm({num_flows, phi, 0, 1001, false});
  lps::heavy::DyadicHeavyHitters dyadic(log_n, phi, 1002);

  // Updates arrive one flow record at a time; the pipeline buffers them
  // and flushes full batches through both sketches' fast paths.
  lps::stream::ParallelPipeline pipeline(
      lps::stream::ParallelPipeline::Options{});
  pipeline.Add("count_min", {&cm}).Add("dyadic", {&dyadic});
  for (const auto& u : traffic) {
    if (u.delta == 0) continue;
    exact.Apply(u);
    pipeline.Push(u);
  }
  pipeline.Flush();

  const auto truth = exact.HeavyHitters(1.0, phi);
  std::printf("ground truth: %zu flows above %.0f%% of %0.f total bytes\n",
              truth.size(), 100 * phi, exact.NormP(1.0));

  const auto flat = cm.Query();
  std::printf("\ncount-min (flat scan): %zu flows flagged:", flat.size());
  for (uint64_t f : flat) std::printf(" %llu", static_cast<unsigned long long>(f));
  const auto v1 = lps::heavy::ValidateHeavySet(exact, 1.0, phi, flat);
  std::printf("\n  valid set: %s (missing %d, spurious %d)\n",
              v1.valid ? "YES" : "NO", v1.missing_heavy, v1.included_light);
  std::printf("  space: %zu bits\n", cm.SpaceBits(2 * log_n));

  const auto fast = dyadic.Query();
  const auto v2 = lps::heavy::ValidateHeavySet(exact, 1.0, phi, fast);
  std::printf("\ndyadic count-min (tree descent, O(#heavy log n) query):\n"
              "  %zu flows flagged, valid set: %s\n",
              fast.size(), v2.valid ? "YES" : "NO");
  std::printf("  space: %zu bits (log n levels: space for query speed)\n",
              dyadic.SpaceBits(2 * log_n));

  std::printf("\nlower-bound context (Thm 9): any algorithm needs "
              "Omega(phi^-1 log^2 n) ~ %.0f bits here.\n",
              (1 / phi) * log_n * log_n);
  return 0;
}
