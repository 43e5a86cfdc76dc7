// lps_bench_client — load generator and functional smoke for lps_serve.
//
// Speaks the production protocol through the SAME src/server/client.h
// codec the daemon's tests use (no bench-only wire path), against either
// an external daemon (--port p, the CI serve-smoke pairing) or an
// in-process Server on an ephemeral loopback port (the default — one
// command measures the full network round trip with no orchestration).
//
// Bench mode sweeps tenant counts {1, 8, 64}: per tenant one client
// thread on its own connection CREATEs a windowed cs_heavy_hitters
// stream, drives an ingest phase (batched INGEST requests) and a query
// phase (whole-stream QUERY plus trailing WINDOW requests), and reports
// requests/sec and p50/p99 request latency per phase into
// BENCH_serve.json — the artifact ci/compare_bench.py --serve gates.
//
// --smoke runs a single functional cycle instead (create, ingest,
// query, window, snapshot, restore, equivalence check, drop, stats,
// duplicate-create and unknown-key error paths, and byte-equal
// cm_heavy_hitters state for one stream sent in large and in small
// INGESTs) and exits non-zero on any deviation; the CI serve smoke drives
// it against a daemon started with --port 0 and then checks clean SIGTERM
// shutdown.
//
// --crash-prepare / --crash-verify bracket the crash-recovery smoke
// against a daemon running with --data-dir: prepare creates tenants,
// ingests deterministic streams, and writes each tenant's snapshot +
// query answer to files under --out (a directory in these modes); the
// harness then SIGKILLs and reboots the daemon, and verify re-fetches
// both from the rebooted daemon and demands they are BIT-IDENTICAL to
// the pre-crash files.
//
// --dist-verify / --dist-gap-verify pair with the distributed tier's
// multi-process smoke: after N lps_worker processes ship the planted
// stream (src/dist/planted.h) into an aggregator, dist-verify rebuilds
// the solo sketch in-process and demands the aggregator's SNAPSHOT
// state is bit-identical and its QUERY answer equal (with the planted
// heavy hitter present); dist-gap-verify polls DIST_STATS until a
// killed worker shows up as an interrupted lane, then proves the
// aggregator still serves the epochs it already folded.
//
// --replay FILE streams a trace file (text or binary, '-' = stdin) into
// the server through the pipelined INGEST_STREAM framing, with the async
// front-end (src/io/StreamFeeder) reading and decoding ahead of the
// socket — the end-to-end "disk to daemon" path. Prints the achieved
// update rate and the server's query answer for the replayed stream.
//
// Usage:
//   lps_bench_client [--port p] [--quick] [--smoke] [--out file]
//                    [--crash-prepare | --crash-verify]
//                    [--dist-verify | --dist-gap-verify]
//                    [--replay FILE]
//                    [--total n] [--tenant t] [--key k]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/query_result.h"
#include "src/api/sketch_spec.h"
#include "src/dist/planted.h"
#include "src/io/bits_io.h"
#include "src/io/byte_source.h"
#include "src/io/stream_feeder.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/stream/generators.h"
#include "src/util/random.h"

namespace {

using lps::QueryResult;
using lps::server::SketchConfig;

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t at = std::min(values.size() - 1,
                             size_t(q * double(values.size())));
  return values[at];
}

/// The workload every tenant streams: a Zipf-ish skew with one planted
/// heavy coordinate per tenant, deterministic in (tenant, position).
lps::stream::Update MakeUpdate(uint64_t tenant, uint64_t position,
                               uint64_t n) {
  // Mix the pair into a pseudo-random coordinate; every 4th update hits
  // the tenant's heavy coordinate so heavy-hitter queries have signal.
  uint64_t h = (tenant + 1) * 0x9E3779B97F4A7C15ull + position;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  const uint64_t heavy = tenant % n;
  const uint64_t index = (position % 4 == 0) ? heavy : (h % n);
  return {index, +1};
}

SketchConfig TenantConfig(uint64_t tenant, uint64_t n) {
  SketchConfig config;
  config.spec.kind = lps::SketchKind::kCsHeavyHitters;
  config.spec.n = n;
  config.spec.p = 1.0;
  config.spec.phi = 0.05;
  config.spec.seed = 1000 + tenant;
  config.window_checkpoint = 8192;
  return config;
}

struct Flags {
  int port = 0;  // 0 = run an in-process server
  bool quick = false;
  bool smoke = false;
  bool crash_prepare = false;
  bool crash_verify = false;
  bool dist_verify = false;
  bool dist_gap_verify = false;
  uint64_t total = 1 << 16;  // planted-stream length for --dist-verify
  std::string tenant = "dist";
  std::string key = "s";
  std::string out = "BENCH_serve.json";
  std::string replay;  // trace file for --replay ('-' = stdin)
};

int Fail(const char* what, const lps::Status& status) {
  std::fprintf(stderr, "lps_bench_client: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------- smoke --

int RunSmoke(const std::string& host, int port) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());

  const uint64_t n = 1 << 12;
  const SketchConfig config = TenantConfig(0, n);
  lps::Status status = client.Create("smoke", "s", config);
  if (!status.ok()) return Fail("create", status);

  // Duplicate CREATE must be an error response, not a dead connection.
  if (client.Create("smoke", "s", config).ok()) {
    std::fprintf(stderr, "lps_bench_client: duplicate create succeeded\n");
    return 1;
  }

  std::vector<lps::stream::Update> updates;
  for (uint64_t i = 0; i < 3 * config.window_checkpoint; ++i) {
    updates.push_back(MakeUpdate(0, i, n));
  }
  auto ingested = client.Ingest("smoke", "s", updates);
  if (!ingested.ok()) return Fail("ingest", ingested.status());
  if (*ingested != updates.size()) {
    std::fprintf(stderr, "lps_bench_client: ingest ack %llu != %zu\n",
                 static_cast<unsigned long long>(*ingested), updates.size());
    return 1;
  }

  auto query = client.Query("smoke", "s");
  if (!query.ok()) return Fail("query", query.status());
  const uint64_t heavy = 0 % n;
  const bool found = std::find(query->items.begin(), query->items.end(),
                               heavy) != query->items.end();
  if (query->type != QueryResult::Type::kHeavyHitters || !found) {
    std::fprintf(stderr, "lps_bench_client: heavy coordinate missing from "
                         "query answer: %s",
                 query->ToText().c_str());
    return 1;
  }

  auto window =
      client.Window("smoke", "s", config.window_checkpoint, false);
  if (!window.ok()) return Fail("window", window.status());
  if (window->length < config.window_checkpoint ||
      window->start + window->length != updates.size()) {
    std::fprintf(stderr, "lps_bench_client: window [%llu, +%llu) does not "
                         "cover the last %llu of %zu updates\n",
                 static_cast<unsigned long long>(window->start),
                 static_cast<unsigned long long>(window->length),
                 static_cast<unsigned long long>(config.window_checkpoint),
                 updates.size());
    return 1;
  }

  auto snapshot = client.Snapshot("smoke", "s");
  if (!snapshot.ok()) return Fail("snapshot", snapshot.status());
  status = client.Restore("smoke", "restored", *snapshot);
  if (!status.ok()) return Fail("restore", status);
  auto restored_query = client.Query("smoke", "restored");
  if (!restored_query.ok()) return Fail("query restored", restored_query.status());
  if (*restored_query != *query) {
    std::fprintf(stderr, "lps_bench_client: restored stream answers "
                         "differently:\n  %s  %s",
                 query->ToText().c_str(), restored_query->ToText().c_str());
    return 1;
  }

  status = client.Drop("smoke", "s");
  if (!status.ok()) return Fail("drop", status);
  if (client.Query("smoke", "s").ok()) {
    std::fprintf(stderr, "lps_bench_client: query after drop succeeded\n");
    return 1;
  }

  // cm_heavy_hitters sums each INGEST's repeated keys before hashing.
  // One Zipf(1) stream sent in 4096-update and in 7-update INGESTs must
  // leave the two tenants' states byte-equal.
  SketchConfig cm_config;
  cm_config.spec.kind = lps::SketchKind::kCmHeavyHitters;
  cm_config.spec.n = n;
  cm_config.spec.phi = 0.05;
  cm_config.spec.seed = 17;
  lps::Rng rng(18);
  std::vector<lps::stream::Update> zipf(20000);
  for (auto& u : zipf) {
    const double rank = std::exp(rng.NextDouble() * std::log(double(n)));
    u = {(uint64_t(rank) - 1) * 0x9E3779B97F4A7C15ull % n, +1};
  }
  for (const size_t batch : {size_t{4096}, size_t{7}}) {
    const std::string key = "cm" + std::to_string(batch);
    status = client.Create("smoke", key, cm_config);
    if (!status.ok()) return Fail("create cm_heavy_hitters", status);
    for (size_t done = 0; done < zipf.size(); done += batch) {
      const size_t take = std::min(batch, zipf.size() - done);
      auto acked = client.Ingest(
          "smoke", key,
          std::vector<lps::stream::Update>(zipf.begin() + done,
                                           zipf.begin() + done + take));
      if (!acked.ok()) return Fail("ingest cm_heavy_hitters", acked.status());
    }
  }
  auto large = client.Snapshot("smoke", "cm4096");
  if (!large.ok()) return Fail("snapshot cm4096", large.status());
  auto small = client.Snapshot("smoke", "cm7");
  if (!small.ok()) return Fail("snapshot cm7", small.status());
  if (large->updates_seen != zipf.size() ||
      large->updates_seen != small->updates_seen ||
      large->state_bits != small->state_bits ||
      large->state_words != small->state_words) {
    std::fprintf(stderr, "lps_bench_client: cm_heavy_hitters state differs "
                         "between 4096- and 7-update INGESTs\n");
    return 1;
  }

  auto stats = client.Stats();
  if (!stats.ok()) return Fail("stats", stats.status());
  if (stats->tenants < 1 || stats->updates < updates.size()) {
    std::fprintf(stderr, "lps_bench_client: implausible stats (tenants "
                         "%llu, updates %llu)\n",
                 static_cast<unsigned long long>(stats->tenants),
                 static_cast<unsigned long long>(stats->updates));
    return 1;
  }

  std::printf("serve smoke OK (%llu updates, window [%llu, +%llu), "
              "restored answer matches, cm_heavy_hitters state independent "
              "of INGEST size)\n",
              static_cast<unsigned long long>(stats->updates),
              static_cast<unsigned long long>(window->start),
              static_cast<unsigned long long>(window->length));
  return 0;
}

// ------------------------------------------------------- crash recovery --

constexpr int kCrashTenants = 4;
constexpr uint64_t kCrashN = 1 << 12;
constexpr uint64_t kCrashUpdates = 3 * 8192 + 1234;  // off a window boundary

/// Fetches tenant i's snapshot and whole-stream answer and serializes
/// both into one bit stream — the unit of pre/post-crash comparison.
lps::Status FetchCrashState(lps::server::Client* client, int i,
                            lps::BitWriter* writer) {
  const std::string name = "crash" + std::to_string(i);
  auto snapshot = client->Snapshot(name, "s");
  if (!snapshot.ok()) return snapshot.status();
  auto query = client->Query(name, "s");
  if (!query.ok()) return query.status();
  SerializeSnapshot(*snapshot, writer);
  lps::SerializeQueryResult(*query, writer);
  return lps::Status::OK();
}

int RunCrashPrepare(const std::string& host, int port,
                    const std::string& out_dir) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());
  for (int i = 0; i < kCrashTenants; ++i) {
    const std::string name = "crash" + std::to_string(i);
    const lps::Status created =
        client.Create(name, "s", TenantConfig(uint64_t(i), kCrashN));
    if (!created.ok()) return Fail("create", created);
    std::vector<lps::stream::Update> updates;
    updates.reserve(4096);
    for (uint64_t position = 0; position < kCrashUpdates;) {
      updates.clear();
      while (updates.size() < 4096 && position < kCrashUpdates) {
        updates.push_back(MakeUpdate(uint64_t(i), position++, kCrashN));
      }
      auto ingested = client.Ingest(name, "s", updates);
      if (!ingested.ok()) return Fail("ingest", ingested.status());
    }
  }
  for (int i = 0; i < kCrashTenants; ++i) {
    lps::BitWriter writer;
    const lps::Status fetched = FetchCrashState(&client, i, &writer);
    if (!fetched.ok()) return Fail("fetch state", fetched);
    const std::string path =
        out_dir + "/crash" + std::to_string(i) + ".bits";
    const lps::Status written = lps::WriteBitsToFile(writer, path);
    if (!written.ok()) return Fail("write state", written);
  }
  std::printf("crash prepare OK (%d tenants, %llu updates each)\n",
              kCrashTenants,
              static_cast<unsigned long long>(kCrashUpdates));
  return 0;
}

int RunCrashVerify(const std::string& host, int port,
                   const std::string& out_dir) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());
  for (int i = 0; i < kCrashTenants; ++i) {
    lps::BitWriter fresh;
    const lps::Status fetched = FetchCrashState(&client, i, &fresh);
    if (!fetched.ok()) return Fail("fetch state after reboot", fetched);
    const std::string path =
        out_dir + "/crash" + std::to_string(i) + ".bits";
    auto stored = lps::io::ReadBitsStreamed(path);
    if (!stored.ok()) return Fail("read pre-crash state", stored.status());
    bool equal = stored->bits_remaining() == fresh.bit_count();
    const std::vector<uint64_t>& words = fresh.words();
    size_t bits = fresh.bit_count();
    for (size_t w = 0; equal && bits > 0; ++w) {
      const size_t take = bits < 64 ? bits : 64;
      // The writer guarantees the last word's trailing bits are zero, so
      // a partial tail compares against the word directly.
      equal = stored.value().ReadBits(int(take)) == words[w];
      bits -= take;
    }
    if (!equal || stored->failed()) {
      std::fprintf(stderr,
                   "lps_bench_client: tenant crash%d diverged across the "
                   "reboot (pre-crash %s vs %zu live bits)\n",
                   i, path.c_str(), fresh.bit_count());
      return 1;
    }
  }
  std::printf("crash verify OK (%d tenants bit-identical across reboot)\n",
              kCrashTenants);
  return 0;
}

// ------------------------------------------------------ dist tier verify --

/// The oracle side of the multi-process smoke: every update of the
/// planted stream applied to one local sketch — what the aggregator's
/// fold must reproduce exactly.
std::unique_ptr<lps::LinearSketch> SoloPlanted(uint64_t total) {
  auto sketch = lps::MakeSketch(lps::dist::PlantedConfig().spec);
  std::vector<lps::stream::Update> updates;
  updates.reserve(4096);
  for (uint64_t position = 0; position < total;) {
    updates.clear();
    while (updates.size() < 4096 && position < total) {
      updates.push_back(
          lps::dist::PlantedUpdate(position++, lps::dist::kPlantedUniverse));
    }
    sketch->UpdateBatch(updates.data(), updates.size());
  }
  return sketch;
}

int RunDistVerify(const std::string& host, int port, uint64_t total,
                  const std::string& tenant, const std::string& key) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());

  const std::unique_ptr<lps::LinearSketch> solo = SoloPlanted(total);
  lps::BitWriter solo_state;
  solo->Serialize(&solo_state);

  auto snapshot = client.Snapshot(tenant, key);
  if (!snapshot.ok()) return Fail("snapshot", snapshot.status());
  if (snapshot->updates_seen != total) {
    std::fprintf(stderr,
                 "lps_bench_client: aggregator folded %llu updates, "
                 "expected %llu\n",
                 static_cast<unsigned long long>(snapshot->updates_seen),
                 static_cast<unsigned long long>(total));
    return 1;
  }
  const bool state_equal = snapshot->state_bits == solo_state.bit_count() &&
                           snapshot->state_words == solo_state.words();
  if (!state_equal) {
    std::fprintf(stderr,
                 "lps_bench_client: aggregator state (%zu bits) is not "
                 "bit-identical to the solo sketch (%zu bits)\n",
                 snapshot->state_bits, solo_state.bit_count());
    return 1;
  }

  auto query = client.Query(tenant, key);
  if (!query.ok()) return Fail("query", query.status());
  const QueryResult solo_answer = lps::Query(*solo);
  if (*query != solo_answer) {
    std::fprintf(stderr,
                 "lps_bench_client: aggregator answers differently from "
                 "solo:\n  %s  %s",
                 solo_answer.ToText().c_str(), query->ToText().c_str());
    return 1;
  }
  const bool heavy_found =
      std::find(query->items.begin(), query->items.end(),
                lps::dist::kPlantedHeavy) != query->items.end();
  if (!heavy_found) {
    std::fprintf(stderr,
                 "lps_bench_client: planted heavy coordinate %llu missing "
                 "from distributed answer: %s",
                 static_cast<unsigned long long>(lps::dist::kPlantedHeavy),
                 query->ToText().c_str());
    return 1;
  }
  std::printf("dist verify OK (%llu updates, %zu state bits bit-identical "
              "to solo, answers equal)\n",
              static_cast<unsigned long long>(total), snapshot->state_bits);
  return 0;
}

int RunDistGapVerify(const std::string& host, int port,
                     const std::string& tenant, const std::string& key) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());

  // The killed worker disconnects without a final marker; give the
  // aggregator a generous window to notice the closed socket.
  lps::server::DistStats stats;
  bool interrupted = false;
  for (int attempt = 0; attempt < 100 && !interrupted; ++attempt) {
    auto fetched = client.FetchDistStats();
    if (!fetched.ok()) return Fail("dist stats", fetched.status());
    stats = std::move(fetched.value());
    interrupted = stats.interrupted > 0;
    if (!interrupted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  if (!interrupted) {
    std::fprintf(stderr,
                 "lps_bench_client: no interrupted lane reported after a "
                 "worker kill (%llu epochs, %llu gaps)\n",
                 static_cast<unsigned long long>(stats.epochs_folded),
                 static_cast<unsigned long long>(stats.gaps));
    return 1;
  }

  // Degraded, not down: the epochs folded before the kill still serve.
  auto query = client.Query(tenant, key);
  if (!query.ok()) return Fail("query after worker kill", query.status());
  const bool heavy_found =
      std::find(query->items.begin(), query->items.end(),
                lps::dist::kPlantedHeavy) != query->items.end();
  if (query->type != QueryResult::Type::kHeavyHitters || !heavy_found) {
    std::fprintf(stderr,
                 "lps_bench_client: degraded aggregator lost the planted "
                 "answer: %s",
                 query->ToText().c_str());
    return 1;
  }
  std::printf("dist gap verify OK (%llu interrupted lane(s), %llu epochs "
              "still served)\n",
              static_cast<unsigned long long>(stats.interrupted),
              static_cast<unsigned long long>(stats.epochs_folded));
  return 0;
}

// ---------------------------------------------------------------- bench --

struct PhaseStats {
  double rps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

PhaseStats Summarize(const std::vector<double>& micros, double seconds) {
  PhaseStats stats;
  stats.rps = seconds > 0 ? double(micros.size()) / seconds : 0;
  stats.p50_us = Percentile(micros, 0.50);
  stats.p99_us = Percentile(micros, 0.99);
  return stats;
}

struct SweepRow {
  int tenants = 0;
  PhaseStats ingest;
  PhaseStats query;
  double updates_per_sec = 0;
  /// Aggregate worker-side send throughput: the sum over client threads
  /// of each thread's own updates / its own ingest-phase wall time. The
  /// per-thread clock excludes the other phases' tail, so this is the
  /// rate the senders actually sustained — the number comparable with
  /// the distributed tier's per-worker ingest rates.
  double send_updates_per_sec = 0;
};

/// One tenant's full load: CREATE, `requests` INGEST batches, then
/// `queries` QUERY + one WINDOW. Latencies append under `mutex`;
/// `send_rate_sum` accumulates this thread's own ingest-phase rate.
void TenantLoad(const std::string& host, int port, uint64_t tenant,
                uint64_t n, size_t requests, size_t batch, size_t queries,
                std::mutex* mutex, std::vector<double>* ingest_us,
                std::vector<double>* query_us, double* send_rate_sum,
                bool* failed) {
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) {
    std::lock_guard<std::mutex> lock(*mutex);
    *failed = true;
    return;
  }
  lps::server::Client client = std::move(connected.value());
  const std::string name = "t" + std::to_string(tenant);
  if (!client.Create(name, "s", TenantConfig(tenant, n)).ok()) {
    std::lock_guard<std::mutex> lock(*mutex);
    *failed = true;
    return;
  }
  std::vector<double> my_ingest, my_query;
  std::vector<lps::stream::Update> updates(batch);
  uint64_t position = 0;
  const auto ingest_phase_start = Clock::now();
  for (size_t r = 0; r < requests; ++r) {
    for (size_t i = 0; i < batch; ++i) {
      updates[i] = MakeUpdate(tenant, position++, n);
    }
    const auto start = Clock::now();
    const bool ok = client.Ingest(name, "s", updates).ok();
    my_ingest.push_back(MicrosSince(start));
    if (!ok) {
      std::lock_guard<std::mutex> lock(*mutex);
      *failed = true;
      return;
    }
  }
  const double ingest_phase_seconds =
      std::chrono::duration<double>(Clock::now() - ingest_phase_start)
          .count();
  const double my_send_rate =
      ingest_phase_seconds > 0
          ? double(requests * batch) / ingest_phase_seconds
          : 0;
  for (size_t q = 0; q < queries; ++q) {
    const auto start = Clock::now();
    // Every 4th query materializes a trailing window instead — both
    // paths stay exercised under concurrency.
    const bool ok =
        (q % 4 == 3)
            ? client.Window(name, "s", 8192, false).ok()
            : client.Query(name, "s").ok();
    my_query.push_back(MicrosSince(start));
    if (!ok) {
      std::lock_guard<std::mutex> lock(*mutex);
      *failed = true;
      return;
    }
  }
  std::lock_guard<std::mutex> lock(*mutex);
  ingest_us->insert(ingest_us->end(), my_ingest.begin(), my_ingest.end());
  query_us->insert(query_us->end(), my_query.begin(), my_query.end());
  *send_rate_sum += my_send_rate;
}

/// Single-tenant framing comparison: the same updates once as per-batch
/// INGEST round trips and once as a pipelined INGEST_STREAM run closed
/// by one INGEST_SYNC — the satellite measurement behind the streamed
/// opcode. Returns false on any failure.
bool RunFramingCompare(const std::string& host, int port, bool quick,
                       double* rpc_ups, double* stream_ups) {
  const uint64_t n = 1 << 14;
  const size_t requests = quick ? 64 : 512;
  const size_t batch = quick ? 256 : 1024;
  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return false;
  lps::server::Client client = std::move(connected.value());

  std::vector<lps::stream::Update> updates(batch);
  const auto run = [&](const std::string& key, bool streamed,
                       double* out) -> bool {
    if (!client.Create("framing", key, TenantConfig(77, n)).ok()) {
      return false;
    }
    uint64_t position = 0;
    const auto start = Clock::now();
    for (size_t r = 0; r < requests; ++r) {
      for (size_t i = 0; i < batch; ++i) {
        updates[i] = MakeUpdate(77, position++, n);
      }
      if (streamed) {
        if (!client.StreamIngest("framing", key, updates).ok()) return false;
      } else {
        if (!client.Ingest("framing", key, updates).ok()) return false;
      }
    }
    if (streamed) {
      auto ack = client.StreamSync();
      if (!ack.ok() || ack->count != uint64_t(requests * batch)) return false;
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    *out = seconds > 0 ? double(requests * batch) / seconds : 0;
    return true;
  };
  if (!run("rpc", false, rpc_ups)) return false;
  if (!run("stream", true, stream_ups)) return false;
  // Both framings must land the same stream: equal answers or the
  // comparison is meaningless.
  auto rpc_query = client.Query("framing", "rpc");
  auto stream_query = client.Query("framing", "stream");
  if (!rpc_query.ok() || !stream_query.ok() || *rpc_query != *stream_query) {
    return false;
  }
  return true;
}

// --------------------------------------------------------------- replay --

/// Streams a trace file into the server over the pipelined INGEST_STREAM
/// framing. The async front-end reads and decodes ahead of the socket,
/// so the wire send overlaps disk I/O — this is the end-to-end
/// file-to-daemon path the src/io/ subsystem exists for.
int RunReplay(const std::string& host, int port, const std::string& path,
              const std::string& tenant, const std::string& key) {
  auto source = lps::io::MakeFileSource(path);
  if (!source.ok()) return Fail("open trace", source.status());
  lps::io::StreamFeeder feeder(std::move(source.value()));
  auto header_n = feeder.ReadHeader();
  if (!header_n.ok()) return Fail("trace header", header_n.status());
  const uint64_t n = header_n.value();

  auto connected = lps::server::Client::Connect(host, port);
  if (!connected.ok()) return Fail("connect", connected.status());
  lps::server::Client client = std::move(connected.value());
  const lps::Status created = client.Create(tenant, key, TenantConfig(0, n));
  if (!created.ok()) return Fail("create", created);

  // Ship each decoded batch without waiting for an ack; one INGEST_SYNC
  // at the end settles the whole stream.
  lps::Status send_status;
  std::vector<lps::stream::Update> batch;
  auto stats =
      feeder.Feed([&](const lps::stream::Update* updates, size_t count) {
        if (!send_status.ok()) return;
        batch.assign(updates, updates + count);
        send_status = client.StreamIngest(tenant, key, batch);
      });
  if (!stats.ok()) return Fail("replay", stats.status());
  if (!send_status.ok()) return Fail("stream ingest", send_status);
  auto ack = client.StreamSync();
  if (!ack.ok()) return Fail("stream sync", ack.status());
  if (ack->count != stats->updates) {
    std::fprintf(stderr, "lps_bench_client: server acked %llu of %llu\n",
                 static_cast<unsigned long long>(ack->count),
                 static_cast<unsigned long long>(stats->updates));
    return 1;
  }
  if (stats->malformed > 0) {
    std::fprintf(stderr, "lps_bench_client: skipped %llu malformed records\n",
                 static_cast<unsigned long long>(stats->malformed));
  }

  auto query = client.Query(tenant, key);
  if (!query.ok()) return Fail("query", query.status());
  const double seconds = stats->wall_seconds;
  std::printf("replayed %llu updates (%.1f MB) in %.3f s: %.2f Mupd/s, "
              "read-wait %.1f%%\n",
              static_cast<unsigned long long>(stats->updates),
              double(stats->bytes) / 1e6, seconds,
              seconds > 0 ? double(stats->updates) / seconds / 1e6 : 0.0,
              seconds > 0 ? 100.0 * stats->read_wait_seconds / seconds : 0.0);
  std::printf("query: %zu heavy hitters\n", query->items.size());
  return 0;
}

int RunBench(const std::string& host, int port, bool quick,
             const std::string& out_path) {
  const uint64_t n = 1 << 14;
  const size_t requests = quick ? 16 : 128;
  const size_t batch = quick ? 512 : 2048;
  const size_t queries = quick ? 8 : 32;
  const std::vector<int> tenant_counts = {1, 8, 64};

  std::vector<SweepRow> rows;
  for (int tenants : tenant_counts) {
    std::mutex mutex;
    std::vector<double> ingest_us, query_us;
    double send_rate_sum = 0;
    bool failed = false;
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(size_t(tenants));
    for (int t = 0; t < tenants; ++t) {
      threads.emplace_back([&, t] {
        TenantLoad(host, port, uint64_t(t) + uint64_t(tenants) * 1000, n,
                   requests, batch, queries, &mutex, &ingest_us, &query_us,
                   &send_rate_sum, &failed);
      });
    }
    for (auto& thread : threads) thread.join();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (failed) {
      std::fprintf(stderr, "lps_bench_client: tenant load failed at %d "
                           "tenants\n",
                   tenants);
      return 1;
    }
    SweepRow row;
    row.tenants = tenants;
    // Phases overlap across tenants, so each phase's rps uses the whole
    // wall time — a conservative (under-)estimate that is still
    // comparable run to run.
    row.ingest = Summarize(ingest_us, seconds);
    row.query = Summarize(query_us, seconds);
    row.updates_per_sec =
        double(size_t(tenants) * requests * batch) / seconds;
    row.send_updates_per_sec = send_rate_sum;
    rows.push_back(row);
    std::printf("tenants %2d: ingest %8.0f req/s (p50 %7.1f us, p99 %8.1f "
                "us), query %7.0f req/s (p50 %7.1f us, p99 %8.1f us), "
                "%.2f Mupd/s, send %.2f Mupd/s\n",
                tenants, row.ingest.rps, row.ingest.p50_us,
                row.ingest.p99_us, row.query.rps, row.query.p50_us,
                row.query.p99_us, row.updates_per_sec / 1e6,
                row.send_updates_per_sec / 1e6);
  }

  double rpc_ups = 0, stream_ups = 0;
  if (!RunFramingCompare(host, port, quick, &rpc_ups, &stream_ups)) {
    std::fprintf(stderr, "lps_bench_client: framing comparison failed\n");
    return 1;
  }
  std::printf("framing: RPC %.2f Mupd/s, INGEST_STREAM %.2f Mupd/s "
              "(%.2fx)\n",
              rpc_ups / 1e6, stream_ups / 1e6,
              rpc_ups > 0 ? stream_ups / rpc_ups : 0);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "lps_bench_client: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serve\",\n  \"quick\": %s,\n"
               "  \"hardware_threads\": %u,\n  \"serve_scaling\": [\n",
               quick ? "true" : "false",
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(out,
                 "    {\"tenants\": %d, \"ingest_rps\": %.0f, "
                 "\"ingest_p50_us\": %.1f, \"ingest_p99_us\": %.1f, "
                 "\"query_rps\": %.0f, \"query_p50_us\": %.1f, "
                 "\"query_p99_us\": %.1f, \"updates_per_sec\": %.0f, "
                 "\"send_updates_per_sec\": %.0f}%s\n",
                 row.tenants, row.ingest.rps, row.ingest.p50_us,
                 row.ingest.p99_us, row.query.rps, row.query.p50_us,
                 row.query.p99_us, row.updates_per_sec,
                 row.send_updates_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"stream_framing\": {\"rpc_updates_per_sec\": %.0f, "
               "\"stream_updates_per_sec\": %.0f, \"speedup\": %.3f}\n}\n",
               rpc_ups, stream_ups, rpc_ups > 0 ? stream_ups / rpc_ups : 0);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.quick = lps::bench::Quick(argc, argv);
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--port") == 0 && a + 1 < argc) {
      flags.port = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[a], "--crash-prepare") == 0) {
      flags.crash_prepare = true;
    } else if (std::strcmp(argv[a], "--crash-verify") == 0) {
      flags.crash_verify = true;
    } else if (std::strcmp(argv[a], "--dist-verify") == 0) {
      flags.dist_verify = true;
    } else if (std::strcmp(argv[a], "--dist-gap-verify") == 0) {
      flags.dist_gap_verify = true;
    } else if (std::strcmp(argv[a], "--total") == 0 && a + 1 < argc) {
      flags.total = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(argv[a], "--tenant") == 0 && a + 1 < argc) {
      flags.tenant = argv[++a];
    } else if (std::strcmp(argv[a], "--key") == 0 && a + 1 < argc) {
      flags.key = argv[++a];
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      flags.out = argv[++a];
    } else if (std::strcmp(argv[a], "--replay") == 0 && a + 1 < argc) {
      flags.replay = argv[++a];
    } else if (std::strcmp(argv[a], "--quick") == 0) {
      // handled by bench::Quick
    } else {
      std::fprintf(stderr,
                   "usage: lps_bench_client [--port p] [--quick] [--smoke] "
                   "[--out file] [--crash-prepare | --crash-verify] "
                   "[--dist-verify | --dist-gap-verify] [--replay FILE] "
                   "[--total n] [--tenant t] [--key k]\n");
      return 2;
    }
  }
  if ((flags.dist_verify || flags.dist_gap_verify) && flags.port == 0) {
    // The dist modes check an external aggregator that workers shipped
    // into; an in-process empty server has nothing to verify.
    std::fprintf(stderr, "lps_bench_client: dist modes need --port\n");
    return 2;
  }
  if (flags.crash_prepare || flags.crash_verify) {
    // The crash modes only make sense against an external daemon that
    // the harness can SIGKILL; --out names the state DIRECTORY here.
    if (flags.port == 0 || flags.out == "BENCH_serve.json") {
      std::fprintf(stderr,
                   "lps_bench_client: crash modes need --port and --out "
                   "(a state directory)\n");
      return 2;
    }
  }

  // No --port: serve ourselves on an ephemeral loopback port, so the
  // bench still measures the real socket round trip.
  std::unique_ptr<lps::server::Server> in_process;
  int port = flags.port;
  if (port == 0) {
    lps::server::Server::Options options;
    options.port = 0;
    in_process = std::make_unique<lps::server::Server>(options);
    const lps::Status started = in_process->Start();
    if (!started.ok()) return Fail("in-process server", started);
    port = in_process->port();
    std::printf("in-process lps_serve on 127.0.0.1:%d\n", port);
  }

  int exit_code = 0;
  if (flags.dist_verify) {
    exit_code =
        RunDistVerify("127.0.0.1", port, flags.total, flags.tenant, flags.key);
  } else if (flags.dist_gap_verify) {
    exit_code = RunDistGapVerify("127.0.0.1", port, flags.tenant, flags.key);
  } else if (flags.crash_prepare) {
    exit_code = RunCrashPrepare("127.0.0.1", port, flags.out);
  } else if (flags.crash_verify) {
    exit_code = RunCrashVerify("127.0.0.1", port, flags.out);
  } else if (!flags.replay.empty()) {
    exit_code =
        RunReplay("127.0.0.1", port, flags.replay, flags.tenant, flags.key);
  } else if (flags.smoke) {
    exit_code = RunSmoke("127.0.0.1", port);
  } else {
    exit_code = RunBench("127.0.0.1", port, flags.quick, flags.out);
  }
  if (in_process != nullptr) in_process->Stop();
  return exit_code;
}
