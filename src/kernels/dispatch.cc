// One-time runtime backend dispatch.
//
// The first Active() call resolves the backend: probe what this CPU can
// run (__builtin_cpu_supports on x86), intersect with what was compiled
// in (a backend's getter returns nullptr when its ISA flags were absent
// or LPS_DISABLE_SIMD was set), honor an LPS_KERNELS environment
// override, and publish the winning table through an atomic pointer.
// Every later call is a single acquire load, so the dispatch adds nothing
// measurable to an UpdateBatch.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/kernels/backends.h"

namespace lps::kernels {

namespace {

bool CpuSupports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse4:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse4.2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

/// The backend's table when it is both compiled in and runnable here.
const KernelTable* UsableTable(Backend backend) {
  const KernelTable* table = nullptr;
  switch (backend) {
    case Backend::kScalar:
      table = internal::ScalarTable();
      break;
    case Backend::kSse4:
      table = internal::Sse4Table();
      break;
    case Backend::kAvx2:
      table = internal::Avx2Table();
      break;
  }
  return (table != nullptr && CpuSupports(backend)) ? table : nullptr;
}

const KernelTable* Widest() {
  if (const KernelTable* t = UsableTable(Backend::kAvx2)) return t;
  if (const KernelTable* t = UsableTable(Backend::kSse4)) return t;
  return internal::ScalarTable();
}

const KernelTable* ResolveFromEnvironment() {
  const char* request = std::getenv("LPS_KERNELS");
  if (request == nullptr || *request == '\0') return Widest();
  Backend wanted = Backend::kScalar;
  if (std::strcmp(request, "scalar") == 0) {
    wanted = Backend::kScalar;
  } else if (std::strcmp(request, "sse4") == 0) {
    wanted = Backend::kSse4;
  } else if (std::strcmp(request, "avx2") == 0) {
    wanted = Backend::kAvx2;
  } else {
    std::fprintf(stderr,
                 "lps kernels: unknown LPS_KERNELS=%s (want scalar|sse4|avx2);"
                 " using %s\n",
                 request, BackendName(Widest()->backend));
    return Widest();
  }
  if (const KernelTable* table = UsableTable(wanted)) return table;
  std::fprintf(stderr,
               "lps kernels: LPS_KERNELS=%s not available on this build/CPU;"
               " using %s\n",
               request, BackendName(Widest()->backend));
  return Widest();
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* DispatchOnce() {
  const KernelTable* resolved = ResolveFromEnvironment();
  const KernelTable* expected = nullptr;
  // Racing first calls may each resolve (idempotently, same answer); the
  // first store wins and everyone returns the published table.
  g_active.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse4:
      return "sse4";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  return *DispatchOnce();
}

Backend ActiveBackend() { return Active().backend; }

const char* ActiveBackendName() { return BackendName(ActiveBackend()); }

std::vector<Backend> AvailableBackends() {
  std::vector<Backend> available = {Backend::kScalar};
  if (UsableTable(Backend::kSse4) != nullptr) {
    available.push_back(Backend::kSse4);
  }
  if (UsableTable(Backend::kAvx2) != nullptr) {
    available.push_back(Backend::kAvx2);
  }
  return available;
}

bool ForceBackendForTesting(Backend backend) {
  const KernelTable* table = UsableTable(backend);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

}  // namespace lps::kernels
