// The update-stream model of the paper (Section 1, Notation): a stream of
// tuples (i, u) with i in [n] and integer u, implicitly defining x in Z^n
// where each update adds u to x_i. In the strict turnstile model all
// coordinates are non-negative at the end of the stream; in the general
// model they may be arbitrary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lps::stream {

struct Update {
  uint64_t index;  ///< coordinate in [0, n)
  int64_t delta;   ///< integer update value u
};

using UpdateStream = std::vector<Update>;

/// An update with a real-valued delta: what the sketches below the sampler
/// layer actually ingest, because the Lp sampler feeds them the *scaled*
/// vector z_i = x_i / t_i^{1/p}. Batch entry points accept either flavor.
struct ScaledUpdate {
  uint64_t index;
  double delta;
};

/// The sketches whose batch paths keep per-thread scratch walk every batch
/// in chunks of this many updates, so that scratch never outgrows one
/// chunk, however large a batch arrives (a served INGEST may carry
/// millions). Each chunk goes in stream order, so the state is the one an
/// unchunked batch would give wherever the batch kernels are bit-identical.
inline constexpr size_t kBatchChunk = 4096;

}  // namespace lps::stream
