// Workload definitions and seeded input generation shared by every
// perfbench_driver subcommand. The daemon under test never sees the seed:
// it only receives the batches generated here.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/lps.h"
#include "src/server/protocol.h"

namespace perfbench {

/// Monotonic seconds since an arbitrary origin (steady_clock).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One served tenant: wire names, the CREATE config, and a short label
/// naming its sketch family in per-layer metrics (hh, lp05, lp10, lp15,
/// l0).
struct Tenant {
  std::string name;
  std::string key;
  std::string label;
  lps::server::SketchConfig config;
  uint64_t planted = 0;  // firehose_hh: the planted heavy coordinate
};

/// A served workload: tenants, the seeded batch pool each tenant cycles
/// through, and the traffic shape. The ingest sequence repeats one round
/// of `schedule` (tenant indices in send order); each tenant walks its own
/// pool, so request g carries pool[t][c % pool] where c counts the
/// batches t received before g. Prep, warm-up and the measured phase are
/// consecutive stretches of this one sequence, so any tenant's full update
/// history follows from how many batches it was acked.
struct ServedWorkload {
  std::vector<Tenant> tenants;
  std::vector<size_t> schedule;
  size_t batch = 0;
  double query_rate = 0;        // open-loop QUERY+WINDOW per second
  uint64_t window = 0;          // WINDOW length
  uint64_t prep_rounds = 0;     // schedule rounds before the store is cut
  uint64_t warm_rounds = 0;     // schedule rounds past the restore
  uint64_t query_seed = 0;
  std::vector<std::vector<std::vector<lps::stream::Update>>> pool;

  size_t T() const { return tenants.size(); }
  const std::vector<lps::stream::Update>& Batch(size_t t,
                                                uint64_t count) const {
    return pool[t][count % pool[t].size()];
  }
  /// Every update tenant t received in its first `count` batches.
  lps::stream::UpdateStream History(size_t t, uint64_t count) const;
  /// First request index after prep, and after prep plus warm-up.
  uint64_t PrepEnd() const { return prep_rounds * schedule.size(); }
  uint64_t WarmEnd() const {
    return (prep_rounds + warm_rounds) * schedule.size();
  }
  /// Batches each tenant received in requests [0, g).
  std::vector<uint64_t> SentBefore(uint64_t g) const;
  /// Calls f(g, t, c) for requests g in [from, to): tenant t receives its
  /// c-th batch (0-based).
  template <typename F>
  void ForRequests(uint64_t from, uint64_t to, F&& f) const {
    std::vector<uint64_t> sent = SentBefore(from);
    for (uint64_t g = from; g < to; ++g) {
      const size_t t = schedule[g % schedule.size()];
      f(g, t, sent[t]++);
    }
  }
  /// Query k of the open-loop schedule: a seeded uniform tenant, and
  /// whether it is a WINDOW (3 QUERY : 1 WINDOW). Random tenants keep the
  /// query stream from locking into phase with the ingest round.
  size_t QueryTenant(uint64_t k) const;
  static bool QueryIsWindow(uint64_t k) { return k % 4 == 3; }
};

/// firehose_hh or paper_samplers; returns false for any other name.
bool MakeServedWorkload(const std::string& name, uint64_t seed,
                        ServedWorkload* out);

/// dup_replay's input: a letter stream over [0, n) of length 1.5 n.
struct DupWorkload {
  uint64_t n = uint64_t{1} << 17;
  uint64_t letters = (uint64_t{3} << 17) / 2;
  uint64_t sketch_seed = 0;
  double delta = 0.25;
  int shards = 2;
  int threads = 1;
};
DupWorkload MakeDupWorkload(uint64_t seed);
lps::stream::LetterStream DupLetters(const DupWorkload& w, uint64_t seed);

/// One timed call into a layer: spans are kept in memory and written as
/// CSV when the run ends (name,label,start_us,end_us,parent,request).
/// `label` names the tenant's sketch family where the layer has one.
struct Span {
  const char* name;
  const char* label;
  double start;
  double end;
  uint64_t parent;
  uint64_t request;
};

class SpanLog {
 public:
  /// Records [start, end) under `name`; returns the span's id (1-based).
  /// Both strings must outlive the log. Thread-safe.
  uint64_t Add(const char* name, const char* label, double start, double end,
               uint64_t parent, uint64_t request) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, label, start, end, parent, request});
    return spans_.size();
  }
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Prints `line` and blocks until run.py, having sampled /proc, answers
/// "go" on stdin; exits the process if the conversation breaks.
void Handshake(const std::string& line);

/// Prints "key": [v, ...] (no newline) as part of a JSON object.
void PrintList(const char* key, const std::vector<double>& values);

/// Serialized state words of a sketch (what SNAPSHOT ships).
std::vector<uint64_t> StateWords(const lps::LinearSketch& sketch,
                                 size_t* bits);

}  // namespace perfbench
