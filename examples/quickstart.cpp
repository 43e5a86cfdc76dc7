// Quickstart: Lp-sample from a turnstile stream (insertions AND deletions).
//
// A classical reservoir sampler breaks the moment a deletion arrives; the
// paper's Lp sampler handles fully general update streams in O(log^2 n)
// space. This example builds a small stream, draws an L1 sample and an L0
// sample, and prints what the samplers saw versus the exact vector.
//
// It is written against the library's public surface only: one include
// (src/lps.h), one construction path (SketchSpec -> MakeSketch), one
// answer type (Query -> QueryResult). The concrete classes stay available
// for typed access, but nothing here needs them.
//
// Build & run:  ./build/quickstart
#include <cstdio>

#include "src/lps.h"

int main() {
  const uint64_t n = 1000;

  // A stream of updates (i, u): note the deletions — after the stream,
  // item 42 has weight 60, item 7 has weight 25, item 999 has weight 15,
  // and item 500 was fully deleted.
  const lps::stream::UpdateStream stream = {
      {42, 40},  {7, 25},  {500, 30}, {42, 20},
      {999, 15}, {500, -30},
  };

  // Ground truth, for the printout only — the samplers never see it.
  lps::stream::ExactVector exact(n);
  exact.Apply(stream);

  // --- L1 sampler (Figure 1 + Theorem 1) ---
  lps::SketchSpec l1_spec;
  l1_spec.kind = lps::SketchKind::kLpSampler;
  l1_spec.n = n;
  l1_spec.p = 1.0;       // sample index i with probability |x_i| / ||x||_1
  l1_spec.eps = 0.25;    // relative error of the sampling distribution
  l1_spec.delta = 0.05;  // failure probability
  l1_spec.seed = 2024;
  auto l1 = lps::MakeSketch(l1_spec);

  // --- L0 sampler (Theorem 2): uniform over the surviving support ---
  lps::SketchSpec l0_spec;
  l0_spec.kind = lps::SketchKind::kL0Sampler;
  l0_spec.n = n;
  l0_spec.delta = 0.05;
  l0_spec.seed = 7;
  auto l0 = lps::MakeSketch(l0_spec);

  // One pass of the stream through both samplers, in cache-sized batches.
  lps::stream::ParallelPipeline pipeline(
      lps::stream::ParallelPipeline::Options{});
  pipeline.Add("l1", {l1.get()}).Add("l0", {l0.get()}).Drive(stream);

  std::printf("stream applied; exact vector: x[42]=%ld x[7]=%ld x[999]=%ld "
              "x[500]=%ld, ||x||_1=%.0f, support=%zu\n",
              static_cast<long>(exact[42]), static_cast<long>(exact[7]),
              static_cast<long>(exact[999]), static_cast<long>(exact[500]),
              exact.NormP(1.0), static_cast<size_t>(exact.L0()));

  // Query() answers any sketch with the same tagged QueryResult the CLI
  // and the lps_serve wire protocol use.
  const lps::QueryResult s1 = lps::Query(*l1);
  std::printf("L1 sample : %s", s1.ToText().c_str());
  const lps::QueryResult s0 = lps::Query(*l0);
  std::printf("L0 sample : %s", s0.ToText().c_str());

  std::printf("sampler space: L1 %zu bits, L0 %zu bits (paper counter model)\n",
              l1->SpaceBits(), l0->SpaceBits());
  std::printf("note: the deleted item 500 can never be sampled.\n");
  return 0;
}
