// Internal registry wiring between the dispatcher and the backend
// translation units. Each backend exposes a getter that returns its
// KernelTable, or nullptr when the backend was not compiled in (missing
// ISA flags, LPS_DISABLE_SIMD, or wrong architecture) — the dispatcher
// additionally checks CPU support at runtime before using a non-null
// table. Not part of the public surface.
#pragma once

#include "src/kernels/kernels.h"

namespace lps::kernels::internal {

/// Always available; the bit-identical reference implementation.
const KernelTable* ScalarTable();

/// SSE4.2 two-lane backend; nullptr unless built with -msse4.2 on x86.
const KernelTable* Sse4Table();

/// AVX2 four-lane backend; nullptr unless built with -mavx2 on x86.
const KernelTable* Avx2Table();

}  // namespace lps::kernels::internal
