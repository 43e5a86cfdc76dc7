// Frequency moments beyond p = 2, via Lp sampling as a black box.
//
// The paper's introduction notes that Lp samplers yield alternative
// algorithms for classical streaming problems, frequency moment estimation
// among them ([23]). For p > 2 no small linear sketch estimates
// F_p = sum_i |x_i|^p directly, but sample-and-reweight does: draw
// i ~ Lq distribution (q close to 2), estimate F_p as
// ||x||_q^q * |x_i|^{p-q}, and average. This example estimates F_3 of a
// skewed turnstile stream and compares against the exact value.
//
// Build & run:  ./build/examples/moment_estimation
#include <cstdio>

#include "src/apps/moment_estimation.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/stream/parallel_pipeline.h"

int main() {
  const uint64_t n = 512;
  const double p = 3.0;

  // A skewed vector with signs: F_3 is dominated by the few heavy items.
  const auto stream = lps::stream::ZipfianVector(n, 0.9, 100, true, 11);
  lps::stream::ExactVector exact(n);
  exact.Apply(stream);
  const double truth = exact.NormPToP(p);

  std::printf("estimating F_%.0f of a %zu-dimensional signed Zipfian vector\n",
              p, static_cast<size_t>(n));
  std::printf("exact F_3 = %.3e\n\n", truth);

  for (int samples : {16, 64, 256}) {
    lps::apps::MomentEstimator est({n, p, samples, 1.9, 77});
    lps::stream::ParallelPipeline pipeline(
        lps::stream::ParallelPipeline::Options{});
    pipeline.Add("moments", {&est}).Drive(stream);
    auto r = est.Estimate();
    if (r.ok()) {
      std::printf("samples=%3d : F_3 ~ %.3e   (ratio %.2f, %zu bits)\n",
                  samples, r.value(), r.value() / truth,
                  est.SpaceBits(2 * 9));
    } else {
      std::printf("samples=%3d : estimation failed\n", samples);
    }
  }
  std::printf("\nexpected: ratio -> 1 as samples grow (the estimator is\n"
              "unbiased; averaging kills the variance).\n");
  return 0;
}
