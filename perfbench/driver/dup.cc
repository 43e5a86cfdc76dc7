// dup_replay: the paper's duplicate finder as a batch job through the
// public API — StreamFeeder over the letter trace -> PipelineSink ->
// ParallelPipeline (2 shards, 1 worker thread) over duplicate_finder
// replicas, one answer at the end.
#include <algorithm>
#include <thread>

#include "perfbench/driver/driver.h"
#include "src/kernels/kernels.h"

namespace perfbench {
namespace {

using lps::QueryResult;

constexpr int kQueryRepeats = 60;  // answer-latency samples per job

lps::SketchSpec FinderSpec(const DupWorkload& w, uint64_t n) {
  lps::SketchSpec spec;
  spec.kind = lps::SketchKind::kDuplicateFinder;
  spec.n = n;
  spec.delta = w.delta;
  spec.seed = w.sketch_seed;
  return spec;
}

std::unique_ptr<lps::io::StreamFeeder> OpenTrace(const std::string& path,
                                                 uint64_t* n) {
  auto source = lps::io::MakeFileSource(path);
  if (!source.ok()) return nullptr;
  auto feeder =
      std::make_unique<lps::io::StreamFeeder>(std::move(source.value()));
  auto header = feeder->ReadHeader();
  if (!header.ok()) return nullptr;
  *n = header.value();
  return feeder;
}

/// 0 verified duplicate, 1 designed FAIL, 2 wrong answer.
int Judge(const QueryResult& r, const std::vector<uint32_t>& counts) {
  if (r.type == QueryResult::Type::kFailed) return 1;
  return r.type == QueryResult::Type::kDuplicate && r.index < counts.size() &&
                 counts[r.index] >= 2
             ? 0
             : 2;
}

std::vector<uint32_t> LetterCounts(const DupWorkload& w, uint64_t seed) {
  std::vector<uint32_t> counts(w.n, 0);
  for (uint64_t letter : DupLetters(w, seed)) ++counts[letter];
  return counts;
}

/// The sharded job's set-up: everything between opening the trace and the
/// first Feed.
struct ShardedJob {
  std::unique_ptr<lps::io::StreamFeeder> feeder;
  std::vector<std::unique_ptr<lps::LinearSketch>> replicas;
  std::unique_ptr<lps::stream::ParallelPipeline> pipeline;
  std::unique_ptr<lps::io::PipelineSink> sink;

  bool Open(const DupWorkload& w, const std::string& path, SpanLog* spans) {
    uint64_t n = 0;
    feeder = OpenTrace(path, &n);
    if (feeder == nullptr) return false;
    std::vector<lps::LinearSketch*> raw;
    for (int s = 0; s < w.shards; ++s) {
      const double t0 = Now();
      replicas.push_back(lps::MakeSketch(FinderSpec(w, n)));
      if (spans != nullptr) {
        spans->Add("duplicates.init", "dup", t0, Now(), 0, uint64_t(s));
      }
      raw.push_back(replicas.back().get());
    }
    lps::stream::ParallelPipeline::Options options;
    options.shards = w.shards;
    options.threads = w.threads;
    pipeline = std::make_unique<lps::stream::ParallelPipeline>(options);
    pipeline->Add("dup", raw);
    sink = std::make_unique<lps::io::PipelineSink>(pipeline.get(), nullptr, 0);
    return true;
  }
};

}  // namespace

int CmdDupGen(const Args& args) {
  const DupWorkload w = MakeDupWorkload(args.seed);
  lps::stream::UpdateStream updates;
  for (uint64_t letter : DupLetters(w, args.seed)) updates.push_back({letter, 1});
  std::string bytes;
  lps::io::WriteBinaryTrace(&bytes, w.n, updates);
  std::FILE* f = std::fopen(args.trace.c_str(), "wb");
  if (f == nullptr) return 1;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok ? 0 : 1;
}

int CmdDup(const Args& args) {
  const DupWorkload w = MakeDupWorkload(args.seed);
  const std::vector<uint32_t> counts = LetterCounts(w, args.seed);
  double job_seconds = 0;
  for (int job = 0; job < 2 || job_seconds < args.seconds; ++job) {
    const double t0 = Now();
    ShardedJob j;
    if (!j.Open(w, args.trace, nullptr)) {
      std::fprintf(stderr, "perfbench_driver: cannot open %s\n",
                   args.trace.c_str());
      return 1;
    }
    const double setup = Now() - t0;
    std::vector<double> sink_ms;
    Handshake("start job");
    const double t1 = Now();
    auto stats = j.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
      const double s0 = Now();
      (*j.sink)(u, c);
      sink_ms.push_back((Now() - s0) * 1e3);
    });
    j.sink->Finish();
    const double feed = Now() - t1;
    Handshake("end job");
    job_seconds += setup + feed;
    // The answer, then more answer-latency samples: Query caches its
    // recovery snapshot until the next ingest, so each repeat first
    // invalidates it with an untimed +1/-1 pair that leaves x unchanged.
    std::vector<double> query_ms;
    double q0 = Now();
    const QueryResult answer = lps::Query(*j.replicas[0]);
    query_ms.push_back((Now() - q0) * 1e3);
    const lps::stream::Update touch[2] = {{0, 1}, {0, -1}};
    for (int r = 1; r < kQueryRepeats; ++r) {
      j.replicas[0]->UpdateBatch(touch, 2);
      q0 = Now();
      lps::Query(*j.replicas[0]);
      query_ms.push_back((Now() - q0) * 1e3);
    }
    const uint64_t letters = stats.ok() ? stats.value().updates : 0;
    std::printf("{\"setup_s\": %.6f, \"feed_s\": %.6f, \"letters\": %llu, "
                "\"malformed\": %llu, \"verdict\": %d, \"answer\": %llu, ",
                setup, feed, (unsigned long long)letters,
                (unsigned long long)(stats.ok() ? stats.value().malformed : 1),
                stats.ok() && letters == w.letters ? Judge(answer, counts) : 2,
                (unsigned long long)answer.index);
    PrintList("sink_ms", sink_ms);
    std::printf(", ");
    PrintList("query_ms", query_ms);
    std::printf("}\n");
  }
  Handshake("done");
  std::printf("{\"io_backend\": \"%s\", \"kernel_backend\": \"%s\", "
              "\"hardware_threads\": %u}\n",
              lps::io::IoBackendName(), lps::kernels::ActiveBackendName(),
              std::thread::hardware_concurrency());
  return 0;
}

int CmdDupReplay(const Args& args) {
  const DupWorkload w = MakeDupWorkload(args.seed);
  const std::vector<uint32_t> counts = LetterCounts(w, args.seed);
  SpanLog spans;

  // io: decode the whole trace from memory (the UpdateDecoder alone).
  std::string bytes;
  {
    std::FILE* f = std::fopen(args.trace.c_str(), "rb");
    if (f == nullptr) return 1;
    char buf[1 << 16];
    for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
      bytes.append(buf, got);
    }
    std::fclose(f);
  }
  for (int pass = 0; pass < 5; ++pass) {
    lps::io::UpdateDecoder decoder;
    lps::stream::UpdateStream out;
    out.reserve(w.letters);
    const double t0 = Now();
    for (size_t off = 0; off < bytes.size(); off += 1 << 20) {
      decoder.Consume(bytes.data() + off,
                      std::min<size_t>(1 << 20, bytes.size() - off), &out);
    }
    if (!decoder.Finish(&out).ok() || out.size() != w.letters) return 1;
    spans.Add("io.decode", "dup", t0, Now(), 0, uint64_t(pass));
  }

  // The single-threaded baseline: the same job inline with one replica.
  {
    const double t0 = Now();
    uint64_t n = 0;
    auto feeder = OpenTrace(args.trace, &n);
    if (feeder == nullptr) return 1;
    const double i0 = Now();
    auto finder = lps::MakeSketch(FinderSpec(w, n));
    spans.Add("duplicates.init", "solo", i0, Now(), 0, 0);
    uint64_t call = 0;
    auto stats = feeder->Feed([&](const lps::stream::Update* u, size_t c) {
      const double s0 = Now();
      finder->UpdateBatch(u, c);
      spans.Add("duplicates.update", "solo", s0, Now(), 0, call++);
    });
    if (!stats.ok()) return 1;
    const double q0 = Now();
    const QueryResult answer = lps::Query(*finder);
    spans.Add("duplicates.query", "solo", q0, Now(), 0, 0);
    spans.Add("job.solo", "solo", t0, Now(), 0, 0);
    if (Judge(answer, counts) == 2) return 1;
  }

  // The measured path, one span per call into each layer.
  const double t0 = Now();
  ShardedJob j;
  if (!j.Open(w, args.trace, &spans)) return 1;
  uint64_t call = 0;
  auto stats = j.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
    const double s0 = Now();
    (*j.sink)(u, c);
    spans.Add("pipeline.push", "dup", s0, Now(), 0, call++);
  });
  if (!stats.ok()) return 1;
  const double m0 = Now();
  j.sink->Finish();
  spans.Add("pipeline.merge", "dup", m0, Now(), 0, 0);
  const double q0 = Now();
  const QueryResult answer = lps::Query(*j.replicas[0]);
  spans.Add("duplicates.query", "dup", q0, Now(), 0, 0);
  spans.Add("job.sharded", "dup", t0, Now(), 0, 0);
  // Merging the reset replica back leaves the answer's state unchanged
  // and costs what MergeShards' Merge costs.
  const double g0 = Now();
  j.replicas[0]->Merge(*j.replicas[1]);
  spans.Add("duplicates.merge", "dup", g0, Now(), 0, 0);

  std::printf("{\"letters\": %llu, \"bytes\": %zu, \"verdict\": %d, "
              "\"read_wait_s\": %.6f, \"ingest_wait_s\": %.6f, "
              "\"sink_s\": %.6f, \"io_backend\": \"%s\", "
              "\"kernel_backend\": \"%s\"}\n",
              (unsigned long long)stats.value().updates, bytes.size(),
              Judge(answer, counts), stats.value().read_wait_seconds,
              stats.value().ingest_wait_seconds, stats.value().sink_seconds,
              j.feeder->source().backend(), lps::kernels::ActiveBackendName());
  return spans.Write(args.spans) ? 0 : 1;
}

}  // namespace perfbench
