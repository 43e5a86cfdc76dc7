// lps_serve — the multi-tenant sketch daemon.
//
// Owns a registry of named LinearSketches (tenant/key -> sketch) and
// speaks the length-prefixed binary protocol of src/server/protocol.h
// over TCP on 127.0.0.1: clients CREATE a sketch from a SketchSpec (the
// same construction registry the library and CLI use), INGEST update
// batches (optionally through a per-tenant ParallelPipeline), QUERY
// whole streams or trailing WINDOWs (per-tenant WindowManager), and
// SNAPSHOT/RESTORE full serialized state across daemon restarts.
//
// Usage:
//   lps_serve [--port p] [--data-dir dir] [--snapshot-interval-ms n]
//             [--idle-timeout-ms n] [--resident-checkpoints n]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed on the "listening" line, which scripts (the CI serve smoke,
// the bench client) parse. SIGTERM/SIGINT shut down cleanly: stop
// accepting, drain and join every connection, exit 0.
//
// --data-dir enables the durable checkpoint store: tenants are
// snapshotted in the background every --snapshot-interval-ms, restored
// on boot (a SIGKILL'd daemon comes back answering identically up to
// the last completed snapshot pass), and — with --idle-timeout-ms —
// evicted from RAM when idle, rehydrating lazily on next touch.
//
// Every lps_serve is also a distributed-tier AGGREGATOR (src/dist/):
// lps_worker processes ship sealed epoch deltas which fold into the
// registry with Merge, so the global prefix is served by the same
// QUERY/WINDOW/SNAPSHOT surface. With --upstream host:port the daemon
// runs as an interior COMBINER of a fan-in tree instead: child epochs
// fold locally and the combined delta ships one level up every
// --flush-interval-ms.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "src/dist/aggregator.h"
#include "src/kernels/kernels.h"
#include "src/server/server.h"
#include "tools/flag_parse.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int Usage() {
  std::fprintf(stderr,
               "usage: lps_serve [--port p] [--data-dir dir]\n"
               "                 [--snapshot-interval-ms n] "
               "[--idle-timeout-ms n]\n"
               "                 [--resident-checkpoints n]\n"
               "                 [--upstream host:port] [--node-id id]\n"
               "                 [--flush-interval-ms n]\n");
  return 2;
}

using lps::tools::kMaxDuration;
using lps::tools::ParseU64;

}  // namespace

int main(int argc, char** argv) {
  lps::server::Server::Options options;
  lps::dist::Aggregator::Options dist_options;
  bool combiner = false;
  for (int a = 1; a < argc; ++a) {
    uint64_t value = 0;
    if (std::strcmp(argv[a], "--upstream") == 0 && a + 1 < argc) {
      const std::string upstream = argv[a + 1];
      const size_t colon = upstream.rfind(':');
      if (colon == std::string::npos ||
          !ParseU64(upstream.c_str() + colon + 1, &value, 65535)) {
        return Usage();
      }
      dist_options.upstream_host = upstream.substr(0, colon);
      dist_options.upstream_port = int(value);
      combiner = true;
      ++a;
    } else if (std::strcmp(argv[a], "--node-id") == 0 && a + 1 < argc) {
      dist_options.node_id = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--flush-interval-ms") == 0 &&
               a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, kMaxDuration) || value == 0) {
        return Usage();
      }
      dist_options.flush_interval_ms = value;
      ++a;
    } else if (std::strcmp(argv[a], "--port") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, 65535)) return Usage();
      options.port = int(value);
      ++a;
    } else if (std::strcmp(argv[a], "--data-dir") == 0 && a + 1 < argc) {
      options.data_dir = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--snapshot-interval-ms") == 0 &&
               a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, kMaxDuration)) return Usage();
      options.snapshot_interval_ms = value;
      ++a;
    } else if (std::strcmp(argv[a], "--idle-timeout-ms") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, kMaxDuration)) return Usage();
      options.idle_timeout_ms = value;
      ++a;
    } else if (std::strcmp(argv[a], "--resident-checkpoints") == 0 &&
               a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value)) return Usage();
      options.resident_checkpoints = size_t(value);
      ++a;
    } else {
      return Usage();
    }
  }

  lps::server::Server server(options);
  if (!combiner) dist_options.registry = &server.registry();
  // Per-boot nonce on the combiner's upstream lane: a restarted
  // combiner must not continue the old session's sequence space.
  dist_options.upstream_session =
      uint64_t(std::chrono::system_clock::now().time_since_epoch().count()) |
      1;
  lps::dist::Aggregator aggregator(dist_options);
  server.set_extension(&aggregator);
  const lps::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "lps_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  const lps::Status dist_started = aggregator.Start();
  if (!dist_started.ok()) {
    std::fprintf(stderr, "lps_serve: %s\n", dist_started.ToString().c_str());
    server.Stop();
    return 1;
  }

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::printf("lps_serve listening on 127.0.0.1:%d\n", server.port());
  std::printf("lps_serve kernel backend: %s\n",
              lps::kernels::ActiveBackendName());
  if (combiner) {
    std::printf("lps_serve combiner %s -> %s:%d\n",
                dist_options.node_id.c_str(),
                dist_options.upstream_host.c_str(),
                dist_options.upstream_port);
  }
  if (!options.data_dir.empty()) {
    const auto& failures = server.restore_failures();
    std::printf("lps_serve data dir %s: %llu tenants restored, "
                "%llu not restored, %llu torn bytes dropped\n",
                options.data_dir.c_str(),
                static_cast<unsigned long long>(server.restored_tenants()),
                static_cast<unsigned long long>(failures.size()),
                static_cast<unsigned long long>(
                    server.store()->recovered_truncated_bytes()));
    for (const auto& failure : failures) {
      std::fprintf(stderr, "lps_serve: %s not restored: %s\n",
                   failure.store_key.c_str(),
                   failure.status.ToString().c_str());
    }
  }
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Stop();
  aggregator.Stop();
  const lps::server::DistStats dist_stats = aggregator.Stats();
  if (dist_stats.epochs_folded > 0 || combiner) {
    std::printf("lps_serve dist: %llu epochs folded, %llu updates, "
                "%llu gaps, %llu sessions\n",
                static_cast<unsigned long long>(dist_stats.epochs_folded),
                static_cast<unsigned long long>(dist_stats.updates_folded),
                static_cast<unsigned long long>(dist_stats.gaps),
                static_cast<unsigned long long>(dist_stats.sessions));
  }
  const lps::server::ServerStats stats = server.registry().Stats();
  std::printf("lps_serve shut down cleanly: %llu tenants, %llu updates, "
              "%llu ingests, %llu queries, %llu snapshots, "
              "kernel backend %s\n",
              static_cast<unsigned long long>(stats.tenants),
              static_cast<unsigned long long>(stats.updates),
              static_cast<unsigned long long>(stats.ingests),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.snapshots),
              stats.kernel_backend.c_str());
  // Per-tenant persistence accounting (the STATS opcode reports the same
  // numbers to clients); only meaningful with a data dir attached.
  for (const lps::server::TenantPersistStats& tenant : stats.per_tenant) {
    std::printf("  %s: %llu resident bytes, %llu spilled bytes%s\n",
                tenant.name.c_str(),
                static_cast<unsigned long long>(tenant.resident_bytes),
                static_cast<unsigned long long>(tenant.spilled_bytes),
                tenant.resident ? "" : " (evicted)");
  }
  return 0;
}
