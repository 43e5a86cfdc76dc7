// lps_worker — one ingest worker of the distributed aggregation tier.
//
// Generates its strided slice of the deterministic planted stream
// (src/dist/planted.h), drives it through a local ingestion topology
// (optionally a ParallelPipeline), and ships sealed epoch deltas to an
// aggregator (lps_serve) over TCP. W workers launched with
// --stride W --offset 0..W-1 and the same --total together ingest
// exactly the solo stream, so the aggregator's answers are
// byte-comparable with a single-process ingest of --total updates —
// the CI multi-process smoke and bench_distributed are built on this.
//
// Usage:
//   lps_worker --port p [--host h] [--tenant t] [--key k]
//              [--total n] [--offset i] [--stride w]
//              [--epoch-interval n] [--shards s] [--threads t]
//              [--worker-id id] [--session n] [--batch n]
//              [--throttle-us n] [--from FILE]
//
// --throttle-us sleeps between batches — the CI kill smoke uses it to
// catch a worker mid-stream deterministically. --session defaults to a
// per-boot nonce; pass it explicitly to model a worker RESTART
// continuing (new session, same worker id).
//
// --from FILE replaces the planted stream: the worker ingests a trace
// file (text or binary, '-' = stdin) through the async front-end
// (src/io/StreamFeeder) — reads prefetch and decode overlap the
// pipeline + epoch shipping, and the stream is never materialized. The
// universe size comes from the trace header; --total/--offset/--stride
// are rejected alongside it (slicing a file replay is the shell's job:
// feed each worker its own file).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/dist/planted.h"
#include "src/dist/worker.h"
#include "src/io/byte_source.h"
#include "src/io/stream_feeder.h"
#include "tools/flag_parse.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lps_worker --port p [--host h] [--tenant t] [--key k]\n"
               "                  [--total n] [--offset i] [--stride w]\n"
               "                  [--epoch-interval n] [--shards s] "
               "[--threads t]\n"
               "                  [--worker-id id] [--session n] [--batch n]\n"
               "                  [--throttle-us n] [--from FILE]\n");
  return 2;
}

using lps::tools::kMaxDuration;
using lps::tools::ParseU64;

}  // namespace

int main(int argc, char** argv) {
  lps::dist::Worker::Options options;
  options.tenant = "dist";
  options.key = "s";
  options.config = lps::dist::PlantedConfig();
  options.worker_id = "w0";
  options.session = 0;
  uint64_t total = 1 << 16;
  uint64_t offset = 0;
  uint64_t stride = 1;
  uint64_t batch = 512;
  uint64_t throttle_us = 0;
  bool have_port = false;
  bool have_slice_flag = false;  // --total/--offset/--stride given
  std::string from;
  for (int a = 1; a < argc; ++a) {
    uint64_t value = 0;
    if (std::strcmp(argv[a], "--port") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, 65535)) return Usage();
      options.uplink.port = int(value);
      have_port = true;
      ++a;
    } else if (std::strcmp(argv[a], "--host") == 0 && a + 1 < argc) {
      options.uplink.host = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--tenant") == 0 && a + 1 < argc) {
      options.tenant = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--key") == 0 && a + 1 < argc) {
      options.key = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--total") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &total)) return Usage();
      have_slice_flag = true;
      ++a;
    } else if (std::strcmp(argv[a], "--offset") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &offset)) return Usage();
      have_slice_flag = true;
      ++a;
    } else if (std::strcmp(argv[a], "--stride") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &stride) || stride == 0) return Usage();
      have_slice_flag = true;
      ++a;
    } else if (std::strcmp(argv[a], "--from") == 0 && a + 1 < argc) {
      from = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--epoch-interval") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &options.epoch_interval)) return Usage();
      ++a;
    } else if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, 1024)) return Usage();
      options.config.shards = int32_t(value);
      ++a;
    } else if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &value, 1024)) return Usage();
      options.config.threads = int32_t(value);
      ++a;
    } else if (std::strcmp(argv[a], "--worker-id") == 0 && a + 1 < argc) {
      options.worker_id = argv[a + 1];
      ++a;
    } else if (std::strcmp(argv[a], "--session") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &options.session)) return Usage();
      ++a;
    } else if (std::strcmp(argv[a], "--batch") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &batch) || batch == 0) return Usage();
      ++a;
    } else if (std::strcmp(argv[a], "--throttle-us") == 0 && a + 1 < argc) {
      if (!ParseU64(argv[a + 1], &throttle_us, kMaxDuration)) return Usage();
      ++a;
    } else {
      return Usage();
    }
  }
  if (!have_port) return Usage();
  if (!from.empty() && have_slice_flag) {
    std::fprintf(stderr,
                 "lps_worker: --from replaces the planted stream; "
                 "--total/--offset/--stride do not apply to a file replay\n");
    return 2;
  }
  // File replay: prime the feeder first — the trace header's universe
  // size replaces the planted one in the worker's sketch config.
  std::unique_ptr<lps::io::StreamFeeder> feeder;
  if (!from.empty()) {
    auto source = lps::io::MakeFileSource(from);
    if (!source.ok()) {
      std::fprintf(stderr, "lps_worker: cannot open %s: %s\n", from.c_str(),
                   source.status().ToString().c_str());
      return 1;
    }
    feeder =
        std::make_unique<lps::io::StreamFeeder>(std::move(source.value()));
    auto header_n = feeder->ReadHeader();
    if (!header_n.ok()) {
      std::fprintf(stderr, "lps_worker: bad trace in %s: %s\n", from.c_str(),
                   header_n.status().ToString().c_str());
      return 1;
    }
    options.config.spec.n = header_n.value();
  }
  if (options.session == 0) {
    // Per-boot nonce: restarts must look like new sessions upstream.
    options.session =
        uint64_t(std::chrono::system_clock::now().time_since_epoch().count()) ^
        (uint64_t(::getpid()) << 32);
  }

  auto built = lps::dist::Worker::Create(std::move(options));
  if (!built.ok()) {
    std::fprintf(stderr, "lps_worker: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  lps::dist::Worker& worker = *built.value();

  if (feeder != nullptr) {
    // Async replay: decoded batches flow straight into Push (which seals
    // and ships epochs at its interval); the prefetcher and decoder run
    // ahead on their own threads. A Push failure (dead aggregator past
    // the retry budget) poisons the rest of the feed.
    lps::Status push_status;
    auto stats = feeder->Feed([&](const lps::stream::Update* u, size_t c) {
      if (!push_status.ok()) return;
      push_status = worker.Push(u, c);
      if (throttle_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
    });
    if (!stats.ok()) {
      std::fprintf(stderr, "lps_worker: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (!push_status.ok()) {
      std::fprintf(stderr, "lps_worker: %s\n", push_status.ToString().c_str());
      return 1;
    }
    if (stats.value().malformed > 0) {
      std::fprintf(stderr, "lps_worker: skipped %llu malformed records\n",
                   static_cast<unsigned long long>(stats.value().malformed));
    }
    const lps::Status finished = worker.Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "lps_worker: %s\n", finished.ToString().c_str());
      return 1;
    }
    std::printf("lps_worker done: %llu updates in %llu epochs\n",
                static_cast<unsigned long long>(worker.updates_pushed()),
                static_cast<unsigned long long>(worker.epochs_shipped()));
    return 0;
  }

  const uint64_t n = lps::dist::kPlantedUniverse;
  std::vector<lps::stream::Update> updates;
  updates.reserve(size_t(batch));
  for (uint64_t position = offset; position < total; position += stride) {
    updates.push_back(lps::dist::PlantedUpdate(position, n));
    if (updates.size() == batch) {
      const lps::Status pushed = worker.Push(updates);
      if (!pushed.ok()) {
        std::fprintf(stderr, "lps_worker: %s\n", pushed.ToString().c_str());
        return 1;
      }
      updates.clear();
      if (throttle_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
    }
  }
  if (!updates.empty()) {
    const lps::Status pushed = worker.Push(updates);
    if (!pushed.ok()) {
      std::fprintf(stderr, "lps_worker: %s\n", pushed.ToString().c_str());
      return 1;
    }
  }
  const lps::Status finished = worker.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "lps_worker: %s\n", finished.ToString().c_str());
    return 1;
  }
  std::printf("lps_worker done: %llu updates in %llu epochs\n",
              static_cast<unsigned long long>(worker.updates_pushed()),
              static_cast<unsigned long long>(worker.epochs_shipped()));
  return 0;
}
