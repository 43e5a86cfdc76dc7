#include "perfbench/driver/workload.h"

#include <algorithm>
#include <iostream>

#include "src/util/random.h"

namespace perfbench {
namespace {

constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr uint64_t kCheckpoint = 8192;
constexpr uint64_t kMaxCheckpoints = 8;
constexpr size_t kPoolBatches = 16;

lps::server::SketchConfig WindowedConfig(const lps::SketchSpec& spec) {
  lps::server::SketchConfig config;
  config.spec = spec;
  config.window_checkpoint = kCheckpoint;
  config.max_checkpoints = kMaxCheckpoints;
  return config;
}

std::string Numbered(const char* prefix, size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02zu", prefix, i);
  return buf;
}

// Insert-only Zipf(1) keys with one planted coordinate taking ~10% of the
// tenant's updates. A per-tenant odd multiplier permutes ranks over the
// universe so tenants do not share their heavy keys.
void FirehosePool(uint64_t seed, ServedWorkload* w) {
  std::vector<double> cdf(kUniverse);
  double sum = 0;
  for (uint64_t r = 0; r < kUniverse; ++r) {
    sum += 1.0 / double(r + 1);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  for (size_t t = 0; t < w->T(); ++t) {
    uint64_t state = lps::Mix64(seed * 0x9E37ULL + t + 1);
    const uint64_t mult = lps::SplitMix64(state) | 1;
    const uint64_t add = lps::SplitMix64(state);
    w->tenants[t].planted = lps::SplitMix64(state) % kUniverse;
    w->pool[t].assign(kPoolBatches, {});
    for (auto& batch : w->pool[t]) {
      batch.resize(w->batch);
      for (auto& u : batch) {
        const uint64_t bits = lps::SplitMix64(state);
        if (bits % 10 == 0) {
          u = {w->tenants[t].planted, 1};
          continue;
        }
        const double unit = double(bits >> 11) * 0x1.0p-53;
        const uint64_t rank = uint64_t(
            std::upper_bound(cdf.begin(), cdf.end(), unit) - cdf.begin());
        u = {(std::min(rank, kUniverse - 1) * mult + add) % kUniverse, 1};
      }
    }
  }
}

// General-turnstile signed updates: three quarters of each batch insert
// (i, v), v in +-[1, 8]; the last quarter cancels the first quarter of the
// previous pool batch's inserts, so those coordinates return to zero.
void SamplerPool(uint64_t seed, ServedWorkload* w) {
  const size_t inserts = w->batch * 3 / 4;
  const size_t cancels = w->batch - inserts;
  for (size_t t = 0; t < w->T(); ++t) {
    uint64_t state = lps::Mix64(seed * 0x5851ULL + t + 101);
    auto& pool = w->pool[t];
    pool.assign(kPoolBatches, {});
    for (auto& batch : pool) {
      batch.resize(w->batch);
      for (size_t j = 0; j < inserts; ++j) {
        const uint64_t bits = lps::SplitMix64(state);
        const int64_t magnitude = int64_t(bits >> 60) % 8 + 1;
        batch[j] = {bits % kUniverse, (bits >> 59) & 1 ? magnitude : -magnitude};
      }
    }
    for (size_t b = 0; b < pool.size(); ++b) {
      const auto& prev = pool[(b + pool.size() - 1) % pool.size()];
      for (size_t j = 0; j < cancels; ++j) {
        pool[b][inserts + j] = {prev[j].index, -prev[j].delta};
      }
    }
  }
}

}  // namespace

lps::stream::UpdateStream ServedWorkload::History(size_t t,
                                                  uint64_t count) const {
  lps::stream::UpdateStream out;
  out.reserve(count * batch);
  for (uint64_t c = 0; c < count; ++c) {
    const auto& b = Batch(t, c);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

std::vector<uint64_t> ServedWorkload::SentBefore(uint64_t g) const {
  std::vector<uint64_t> sent(T(), 0);
  const uint64_t rounds = g / schedule.size();
  for (size_t i = 0; i < schedule.size(); ++i) {
    sent[schedule[i]] += rounds + (i < g % schedule.size() ? 1 : 0);
  }
  return sent;
}

size_t ServedWorkload::QueryTenant(uint64_t k) const {
  return lps::Mix64(query_seed + k) % T();
}

bool MakeServedWorkload(const std::string& name, uint64_t seed,
                        ServedWorkload* out) {
  ServedWorkload w;
  w.window = kCheckpoint;
  w.query_seed = lps::Mix64(seed ^ 0x51E5ULL);
  if (name == "firehose_hh") {
    w.batch = 1024;
    w.query_rate = 50;
    w.prep_rounds = 16;
    w.warm_rounds = kCheckpoint / w.batch;
    for (size_t t = 0; t < 64; ++t) {
      w.schedule.push_back(t);
      lps::SketchSpec spec;
      spec.kind = lps::SketchKind::kCmHeavyHitters;
      spec.n = kUniverse;
      spec.phi = 0.05;
      spec.seed = lps::Mix64(seed ^ (t + 1));
      w.tenants.push_back({Numbered("fh", t), "hh", "hh", WindowedConfig(spec)});
    }
    w.pool.resize(w.T());
    FirehosePool(seed, &w);
  } else if (name == "paper_samplers") {
    w.batch = 512;
    w.query_rate = 40;
    w.prep_rounds = 16;
    w.warm_rounds = kCheckpoint / w.batch;
    // One round sends every tenant a batch and the lp10 tenants a second
    // one: with four equal families the ingest-latency quartile
    // boundaries (and so p50) would sit exactly between two families'
    // latency modes, where the percentile jumps between them run to run.
    // Here p50 falls inside the lp10 mode and p99 inside the slowest one.
    for (size_t t = 0; t < 16; ++t) {
      w.schedule.push_back(t);
      if (t / 4 == 1) w.schedule.push_back(t);
    }
    const char* labels[] = {"lp05", "lp10", "lp15", "l0"};
    const double ps[] = {0.5, 1.0, 1.5, 0.0};
    for (size_t t = 0; t < 16; ++t) {
      const size_t family = t / 4;
      lps::SketchSpec spec;  // eps = 0.5, delta = 0.25: the spec defaults
      spec.kind = family == 3 ? lps::SketchKind::kL0Sampler
                              : lps::SketchKind::kLpSampler;
      spec.n = kUniverse;
      if (family < 3) spec.p = ps[family];
      spec.seed = lps::Mix64(seed ^ (t + 1));
      w.tenants.push_back(
          {Numbered("ps", t), "s", labels[family], WindowedConfig(spec)});
    }
    w.pool.resize(w.T());
    SamplerPool(seed, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

DupWorkload MakeDupWorkload(uint64_t seed) {
  DupWorkload w;
  w.sketch_seed = lps::Mix64(seed ^ 0xD0D0ULL);
  return w;
}

lps::stream::LetterStream DupLetters(const DupWorkload& w, uint64_t seed) {
  return lps::stream::DuplicateStream(w.n, w.letters - w.n, seed);
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,label,start_us,end_us,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%s,%.3f,%.3f,%llu,%llu\n", s.name, s.label,
                 s.start * 1e6,
                 s.end * 1e6, static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void Handshake(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::string reply;
  if (!std::getline(std::cin, reply) || reply != "go") {
    std::fprintf(stderr, "perfbench_driver: lost the run.py handshake\n");
    std::exit(3);
  }
}

void PrintList(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf(i ? ",%.7g" : "%.7g", values[i]);
  }
  std::printf("]");
}

std::vector<uint64_t> StateWords(const lps::LinearSketch& sketch,
                                 size_t* bits) {
  lps::BitWriter writer;
  sketch.Serialize(&writer);
  *bits = writer.bit_count();
  return writer.words();
}

}  // namespace perfbench
