// Load generator and answer checks for the served workloads (firehose_hh,
// paper_samplers) against a running lps_serve.
//
// `prep` creates the tenants and ingests the prep stretch of the request
// sequence into a daemon whose store becomes the workload's boot image.
// `load` drives a daemon restored from a copy of that store: an untimed
// warm-up, then one or more measured phases with exactly one closed-loop
// ingest connection and one open-loop query connection, then the untimed
// answer checks. It talks to run.py over stdin/stdout: before and after
// each phase it prints a line and blocks until run.py, having sampled
// /proc for the daemon, answers "go".
#include <algorithm>
#include <thread>

#include "perfbench/driver/driver.h"
#include "src/server/client.h"

namespace perfbench {
namespace {

using lps::QueryResult;
using lps::server::Client;

Client ConnectOrDie(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "perfbench_driver: connect: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(client.value());
}

bool Contains(const std::vector<uint64_t>& items, uint64_t x) {
  return std::find(items.begin(), items.end(), x) != items.end();
}

/// Outcome of one answer: 0 correct, 1 designed sampler FAIL, 2 wrong.
int Judge(const Tenant& tenant, const QueryResult& r) {
  if (tenant.label == "hh") {
    return r.type == QueryResult::Type::kHeavyHitters &&
                   Contains(r.items, tenant.planted)
               ? 0
               : 2;
  }
  if (r.type == QueryResult::Type::kSample) return 0;
  return r.type == QueryResult::Type::kFailed ? 1 : 2;
}

/// One measured phase. Query times are seconds since the phase start;
/// run.py derives latency from the due time and the generator's lateness
/// from the send time. The ingest thread writes the ingest fields and the
/// query thread the query fields, so the two never share a counter.
struct Phase {
  double start = 0;
  double ingest_end = 0;
  std::vector<double> ingest_ms;
  std::vector<double> ingest_done;
  uint64_t updates = 0;
  uint64_t ingests = 0;
  uint64_t ingest_errors = 0;  // transport errors and refused requests
  uint64_t ingest_wrong = 0;
  std::vector<double> query_due;
  std::vector<double> query_sent;
  std::vector<double> query_done;
  std::vector<double> query_window;  // 1 for WINDOW, 0 for QUERY
  uint64_t queries = 0;
  uint64_t query_errors = 0;
  uint64_t query_wrong = 0;
  uint64_t sampler_fails = 0;
  uint64_t sampler_answers = 0;
};

class LoadGen {
 public:
  LoadGen(const ServedWorkload& w, int port, SpanLog* spans)
      : w_(w),
        ingest_(ConnectOrDie(port)),
        query_(ConnectOrDie(port)),
        next_(w.PrepEnd()),
        batches_(w.SentBefore(next_)),
        spans_(spans) {}

  /// One checkpoint interval past the restore on every tenant, then one
  /// QUERY and WINDOW each so lazy construction is paid before timing.
  bool WarmUp() {
    while (next_ < w_.WarmEnd()) {
      if (!IngestNext(nullptr)) return false;
    }
    for (const Tenant& t : w_.tenants) {
      if (!query_.Query(t.name, t.key).ok()) return false;
      if (!query_.Window(t.name, t.key, w_.window, false).ok()) return false;
    }
    return true;
  }

  Phase Run(double seconds, bool traced) {
    Phase phase;
    traced_ = traced;
    phase.start = Now();
    const double deadline = phase.start + seconds;
    std::thread queries([&] { QueryLoop(phase.start, deadline, &phase); });
    while (Now() < deadline) {
      const double t0 = Now();
      if (!IngestNext(&phase)) ++phase.ingest_errors;
      const double t1 = Now();
      phase.ingest_ms.push_back((t1 - t0) * 1e3);
      phase.ingest_done.push_back(t1 - phase.start);
      if (traced_) {
        const size_t t = w_.schedule[(next_ - 1) % w_.schedule.size()];
        spans_->Add("loadgen.ingest", w_.tenants[t].label.c_str(), t0, t1, 0,
                    next_ - 1);
      }
    }
    phase.ingest_end = Now();
    queries.join();
    return phase;
  }

  const std::vector<uint64_t>& batches() const { return batches_; }
  uint64_t sent() const { return sent_; }
  Client& query_client() { return query_; }

 private:
  /// Sends the next request of the ingest sequence. Returns false on a
  /// transport error or refused request; a wrong ack (INGEST acks the
  /// count it accepted) fails the warm-up and counts as a wrong answer in
  /// a measured phase.
  bool IngestNext(Phase* phase) {
    const size_t t = w_.schedule[next_ % w_.schedule.size()];
    ++next_;
    const Tenant& tenant = w_.tenants[t];
    auto ack = ingest_.Ingest(tenant.name, tenant.key,
                              w_.Batch(t, batches_[t]));
    if (!ack.ok()) return false;
    ++batches_[t];
    sent_ += w_.batch;
    const bool acked_right = ack.value() == w_.batch;
    if (phase == nullptr) return acked_right;
    phase->updates += w_.batch;
    ++phase->ingests;
    if (!acked_right) ++phase->ingest_wrong;
    return true;
  }

  void QueryLoop(double start, double deadline, Phase* phase) {
    for (uint64_t k = 0;; ++k) {
      const double due = start + double(k) / w_.query_rate;
      if (due >= deadline) break;
      double now = Now();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        now = Now();
      }
      const uint64_t q = query_seq_++;
      const Tenant& tenant = w_.tenants[w_.QueryTenant(q)];
      const bool window = ServedWorkload::QueryIsWindow(q);
      int verdict = -1;  // transport error or refused request
      if (window) {
        auto r = query_.Window(tenant.name, tenant.key, w_.window, false);
        if (r.ok()) verdict = Judge(tenant, r.value().result);
      } else {
        auto r = query_.Query(tenant.name, tenant.key);
        if (r.ok()) verdict = Judge(tenant, r.value());
      }
      const double done = Now();
      phase->query_due.push_back(due - start);
      phase->query_sent.push_back(now - start);
      phase->query_done.push_back(done - start);
      phase->query_window.push_back(window ? 1 : 0);
      if (traced_) {
        spans_->Add(window ? "loadgen.window" : "loadgen.query",
                    tenant.label.c_str(), now, done, 0, q);
      }
      ++phase->queries;
      if (tenant.label != "hh") {
        ++phase->sampler_answers;
        if (verdict == 1) ++phase->sampler_fails;
      }
      if (verdict < 0) ++phase->query_errors;
      if (verdict == 2) ++phase->query_wrong;
    }
  }

  const ServedWorkload& w_;
  Client ingest_;
  Client query_;
  uint64_t next_;                  // next request of the ingest sequence
  std::vector<uint64_t> batches_;  // batches acked per tenant, prep included
  uint64_t sent_ = 0;              // updates acked since the daemon booted
  uint64_t query_seq_ = 0;
  bool traced_ = false;
  SpanLog* spans_;
};

void PrintPhase(const std::string& name, const Phase& p) {
  std::printf("{\"phase\": \"%s\", ", name.c_str());
  PrintList("ingest_ms", p.ingest_ms);
  std::printf(", ");
  PrintList("ingest_done", p.ingest_done);
  std::printf(", ");
  PrintList("query_due", p.query_due);
  std::printf(", ");
  PrintList("query_sent", p.query_sent);
  std::printf(", ");
  PrintList("query_done", p.query_done);
  std::printf(", ");
  PrintList("query_window", p.query_window);
  std::printf(
      ", \"updates\": %llu, \"ingests\": %llu, \"queries\": %llu, "
      "\"errors\": %llu, \"wrong\": %llu, \"sampler_fails\": %llu, "
      "\"sampler_answers\": %llu, \"ingest_seconds\": %.6f, "
      "\"start_clock\": %.6f}\n",
      (unsigned long long)p.updates, (unsigned long long)p.ingests,
      (unsigned long long)p.queries,
      (unsigned long long)(p.ingest_errors + p.query_errors),
      (unsigned long long)(p.ingest_wrong + p.query_wrong),
      (unsigned long long)p.sampler_fails,
      (unsigned long long)p.sampler_answers, p.ingest_end - p.start, p.start);
}

struct Verdicts {
  uint64_t checks = 0;
  uint64_t wrong = 0;
  uint64_t sampler_fails = 0;
  uint64_t sampler_answers = 0;
  void Expect(bool ok) {
    ++checks;
    if (!ok) ++wrong;
  }
};

/// SNAPSHOT of tenant t must equal a solo in-process replay of every
/// batch the tenant was acked, bit for bit.
void CheckSnapshot(Client& client, const ServedWorkload& w, size_t t,
                   uint64_t batches, Verdicts* v) {
  const Tenant& tenant = w.tenants[t];
  auto blob = client.Snapshot(tenant.name, tenant.key);
  if (!blob.ok()) return v->Expect(false);
  auto solo = lps::MakeSketch(tenant.config.spec);
  const auto history = w.History(t, batches);
  solo->UpdateBatch(history.data(), history.size());
  size_t bits = 0;
  const auto words = StateWords(*solo, &bits);
  v->Expect(blob.value().updates_seen == history.size() &&
            blob.value().state_bits == bits &&
            blob.value().state_words == words);
}

/// The untimed end-of-run answer checks of the issue: bit-identical
/// snapshots (firehose: four tenants; samplers: every l0 tenant), planted
/// heavy coordinates in every firehose QUERY, and for every lp tenant a
/// final sample naming a nonzero coordinate of the exact vector.
Verdicts Verify(Client& client, const ServedWorkload& w,
                const std::vector<uint64_t>& batches) {
  Verdicts v;
  for (size_t t = 0; t < w.T(); ++t) {
    const Tenant& tenant = w.tenants[t];
    if (tenant.label == "hh") {
      if (t % 21 == 0) CheckSnapshot(client, w, t, batches[t], &v);
      auto r = client.Query(tenant.name, tenant.key);
      v.Expect(r.ok() && Judge(tenant, r.value()) == 0);
    } else if (tenant.label == "l0") {
      CheckSnapshot(client, w, t, batches[t], &v);
    } else {
      auto r = client.Query(tenant.name, tenant.key);
      if (!r.ok()) {
        v.Expect(false);
        continue;
      }
      ++v.sampler_answers;
      if (r.value().type == QueryResult::Type::kFailed) {
        ++v.sampler_fails;
        continue;
      }
      lps::stream::ExactVector oracle(tenant.config.spec.n);
      oracle.Apply(w.History(t, batches[t]));
      v.Expect(r.value().type == QueryResult::Type::kSample &&
               r.value().index < oracle.n() && oracle[r.value().index] != 0);
    }
  }
  return v;
}

}  // namespace

int CmdPrep(const Args& args) {
  ServedWorkload w;
  if (!MakeServedWorkload(args.workload, args.seed, &w)) return 2;
  Client client = ConnectOrDie(args.port);
  for (const Tenant& t : w.tenants) {
    const lps::Status s = client.Create(t.name, t.key, t.config);
    if (!s.ok()) {
      std::fprintf(stderr, "create %s: %s\n", t.name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  bool ok = true;
  w.ForRequests(0, w.PrepEnd(), [&](uint64_t, size_t t, uint64_t c) {
    const Tenant& tenant = w.tenants[t];
    auto ack = client.Ingest(tenant.name, tenant.key, w.Batch(t, c));
    if (ok && (!ack.ok() || ack.value() != w.batch)) {
      std::fprintf(stderr, "prep ingest %s failed: %s\n", tenant.name.c_str(),
                   ack.ok() ? "wrong ack" : ack.status().ToString().c_str());
      ok = false;
    }
  });
  return ok ? 0 : 1;
}

int CmdLoad(const Args& args) {
  ServedWorkload w;
  if (!MakeServedWorkload(args.workload, args.seed, &w)) return 2;
  SpanLog spans;
  LoadGen gen(w, args.port, &spans);
  if (!gen.WarmUp()) {
    std::fprintf(stderr, "perfbench_driver: warm-up failed\n");
    return 1;
  }
  for (const std::string& name : args.phases) {
    Handshake("start " + name);
    const Phase phase = gen.Run(args.seconds, name == "traced");
    Handshake("end " + name);
    PrintPhase(name, phase);
  }
  Verdicts v = Verify(gen.query_client(), w, gen.batches());
  // Every update acked since boot reached the registry exactly once.
  auto stats = gen.query_client().Stats();
  v.Expect(stats.ok() && stats.value().updates == gen.sent());
  std::printf(
      "{\"verify_checks\": %llu, \"verify_wrong\": %llu, "
      "\"verify_sampler_fails\": %llu, \"verify_sampler_answers\": %llu, "
      "\"kernel_backend\": \"%s\", \"io_backend\": \"%s\", "
      "\"hardware_threads\": %u}\n",
      (unsigned long long)v.checks, (unsigned long long)v.wrong,
      (unsigned long long)v.sampler_fails,
      (unsigned long long)v.sampler_answers,
      stats.ok() ? stats.value().kernel_backend.c_str() : "unknown",
      lps::io::IoBackendName(), std::thread::hardware_concurrency());
  if (!args.spans.empty() && !spans.Write(args.spans)) return 1;
  return 0;
}

}  // namespace perfbench
