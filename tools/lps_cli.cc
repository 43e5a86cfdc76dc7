// lps_cli — command-line driver for the library: generate workload traces,
// replay them through any sampler or sketch, persist and merge sketch
// state, and print results. The tool a downstream user reaches for before
// writing code.
//
// Usage:
//   lps_cli gen <kind> <n> <arg> <seed> [--binary]   write a trace to stdout
//       kinds: turnstile <#updates> | sparse <#nonzero> |
//              zipf <scale> | duplicates <extras>
//   lps_cli sample <p|L0> <eps> <delta> <seed>
//           [--shards k] [--threads t] [--window w [--checkpoint c]]
//           [--from FILE]
//   lps_cli duplicates <delta> <seed> [--from FILE]  < trace  find a duplicate
//   lps_cli heavy <p> <phi> <seed> [--shards k] [--threads t]
//           [--window w [--checkpoint c]] [--from FILE]        < trace
//   lps_cli norm <p> <seed> [--shards k] [--threads t]
//           [--window w [--checkpoint c]] [--from FILE]        < trace
//   lps_cli stats [--from FILE]                < trace    exact summary
//   lps_cli save sample <p|L0> <eps> <delta> <seed> <file>  < trace
//   lps_cli save heavy <p> <phi> <seed> <file>              < trace
//   lps_cli save norm <p> <seed> <file>                     < trace
//   lps_cli save duplicates <delta> <seed> <file>           < trace
//           (save takes [--from FILE] as well)
//   lps_cli load <file>                        restore state and query it
//   lps_cli merge <out> <in1> <in2> [in...]    add saved states (linearity)
//   lps_cli version                            dispatched kernel + io backend
//
// save writes the full LinearSketch state (versioned header, params,
// seeds, counters); load reconstructs without any out-of-band information
// (DeserializeAnySketch dispatches on the kind tag, so any sketch kind
// loads); merge requires all inputs to come from identically-parameterized
// structures (shard replicas) and writes their coordinate-wise sum; an
// input of another kind, parameters or seeds exits 2 with a message.
// --shards k ingests through the k-shard parallel runtime and merges the
// replicas before querying — same answers as single-stream ingestion, by
// linearity. --threads t (t in [1, k]; omit the flag for inline
// single-threaded ingestion) runs t worker threads; the final state is
// bit-identical for every thread count, so the flag is purely a
// throughput knob.
// --window w answers the query over (at least) the LAST w updates of the
// trace instead of the whole stream: ingestion flows through a
// WindowManager that checkpoints a serialized prefix every --checkpoint c
// updates (default 4096), and the windowed sketch is materialized by
// subtraction (prefix_now - prefix_expired, O(sketch size)). The window
// start rounds down to a checkpoint boundary; the chosen range is
// printed. Windows, --shards and --from compose: ingestion runs through
// stream::StreamState, which seals checkpoints at the positions solo
// ingestion would.
// Every command that reads a trace reads --from FILE, or stdin when the
// flag is absent ('-' names stdin too), through the async front-end
// (src/io/): a prefetch thread reads while the decoder and the pipeline
// run, and the update stream is never held in memory whole — the path
// for replays larger than RAM. Text and binary traces are auto-detected.
// Malformed records are skipped and counted ("note: skipped N malformed
// records" on stderr); a trace whose "n <size>" header never arrives is
// "bad trace", exit 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "src/kernels/kernels.h"
#include "src/lps.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  lps_cli gen {turnstile|sparse|zipf|duplicates} <n> <arg> <seed>"
      " [--binary]\n"
      "  lps_cli sample {<p>|L0} <eps> <delta> <seed>"
      " [--shards k] [--threads t] [--window w [--checkpoint c]]"
      " [--from FILE]\n"
      "  lps_cli duplicates <delta> <seed> [--from FILE]           < trace\n"
      "  lps_cli heavy <p> <phi> <seed> [--shards k] [--threads t]"
      " [--window w [--checkpoint c]] [--from FILE]                < trace\n"
      "  lps_cli norm <p> <seed> [--shards k] [--threads t]"
      " [--window w [--checkpoint c]] [--from FILE]                < trace\n"
      "  lps_cli stats [--from FILE]                               < trace\n"
      "  lps_cli save sample {<p>|L0} <eps> <delta> <seed> <file>  < trace\n"
      "  lps_cli save heavy <p> <phi> <seed> <file>                < trace\n"
      "  lps_cli save norm <p> <seed> <file>                       < trace\n"
      "  lps_cli save duplicates <delta> <seed> <file>             < trace\n"
      "  lps_cli load <file>\n"
      "  lps_cli merge <out> <in1> <in2> [in...]\n"
      "  lps_cli version\n"
      "commands that read a trace read --from FILE (save too), or stdin"
      " without it\n");
  return 2;
}

/// Runtime info line: which SIMD kernel backend this process dispatched
/// (and the full set the binary + host could run) plus the file-read
/// backend --from uses — the quick way to see what LPS_KERNELS resolved
/// to.
int CmdVersion() {
  std::printf("lps_cli — Lp sampler library (JST11)\n");
  std::printf("kernel backend: %s (available:",
              lps::kernels::ActiveBackendName());
  for (const auto backend : lps::kernels::AvailableBackends()) {
    std::printf(" %s", lps::kernels::BackendName(backend));
  }
  std::printf(")\n");
  std::printf("io backend: %s\n", lps::io::IoBackendName());
  return 0;
}

/// Strips an embedded "<flag> v" from argv, returning the parsed count.
/// Returns `fallback` when the flag is absent, and -1 (after an error
/// message) when the value is missing, non-numeric, trailing-garbage,
/// < 1, or > max — silently clamping a typo like "--shards x4" or
/// "--threads 0" would ingest with a topology the user did not ask for.
/// argc is updated in place; *found (optional) reports whether the flag
/// was present at all.
int TakeCountFlag(int* argc, char** argv, const char* flag, int fallback,
                  long max = 1 << 20, bool* found = nullptr) {
  if (found != nullptr) *found = false;
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], flag) != 0) continue;
    if (found != nullptr) *found = true;
    if (a + 1 >= *argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      return -1;
    }
    char* end = nullptr;
    const long value = std::strtol(argv[a + 1], &end, 10);
    if (end == argv[a + 1] || *end != '\0' || value < 1 || value > max) {
      std::fprintf(stderr, "%s wants a positive integer in [1, %ld], got "
                   "'%s'\n", flag, max, argv[a + 1]);
      return -1;
    }
    for (int b = a + 2; b < *argc; ++b) argv[b - 2] = argv[b];
    *argc -= 2;
    return static_cast<int>(value);
  }
  return fallback;
}

/// Strips "--from PATH" from argv. Returns false (after an error message)
/// when the flag is present without a value; *path is "-" (stdin) when
/// the flag is absent.
bool TakeFromFlag(int* argc, char** argv, std::string* path) {
  *path = "-";
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], "--from") != 0) continue;
    if (a + 1 >= *argc) {
      std::fprintf(stderr, "--from needs a path ('-' = stdin)\n");
      return false;
    }
    *path = argv[a + 1];
    for (int b = a + 2; b < *argc; ++b) argv[b - 2] = argv[b];
    *argc -= 2;
    return true;
  }
  return true;
}

/// Strips a bare boolean flag from argv; returns whether it was present.
bool TakeBoolFlag(int* argc, char** argv, const char* flag) {
  for (int a = 2; a < *argc; ++a) {
    if (std::strcmp(argv[a], flag) != 0) continue;
    for (int b = a + 1; b < *argc; ++b) argv[b - 1] = argv[b];
    *argc -= 1;
    return true;
  }
  return false;
}

/// Parses both ingestion-topology flags. Returns false (usage error) if
/// either is malformed, or if threads exceeds shards — the runtime runs
/// at most one worker per shard, and silently running fewer workers than
/// asked would misrepresent the topology. shards defaults to 1, threads
/// to 0 (inline ingestion on the caller thread).
bool TakeTopologyFlags(int* argc, char** argv, int* shards, int* threads) {
  *shards = TakeCountFlag(argc, argv, "--shards", 1);
  if (*shards < 0) return false;
  *threads = TakeCountFlag(argc, argv, "--threads", 0);
  if (*threads < 0) return false;
  if (*threads > *shards) {
    std::fprintf(stderr,
                 "--threads %d exceeds --shards %d: the runtime runs one "
                 "worker per shard\n",
                 *threads, *shards);
    return false;
  }
  return true;
}

/// Sliding-window request: window == 0 means "whole stream" (no window
/// machinery at all).
struct WindowSpec {
  uint64_t window = 0;
  uint64_t checkpoint = 4096;
};

/// Parses --window w and --checkpoint c. Returns false (usage error) on a
/// malformed value or a --checkpoint without --window (the flag would
/// silently do nothing).
bool TakeWindowFlags(int* argc, char** argv, WindowSpec* spec) {
  // Windows and checkpoint intervals are update counts, not topology
  // sizes — allow up to 2^30 (counts stay in int range for TakeCountFlag).
  constexpr long kMaxUpdates = 1L << 30;
  const int window =
      TakeCountFlag(argc, argv, "--window", 0, kMaxUpdates);
  if (window < 0) return false;
  bool checkpoint_given = false;
  const int checkpoint = TakeCountFlag(argc, argv, "--checkpoint", 4096,
                                       kMaxUpdates, &checkpoint_given);
  if (checkpoint < 0) return false;
  if (window == 0 && checkpoint_given) {
    std::fprintf(stderr, "--checkpoint only makes sense with --window\n");
    return false;
  }
  spec->window = static_cast<uint64_t>(window);
  spec->checkpoint = static_cast<uint64_t>(checkpoint);
  return true;
}

/// The trace behind a command: an async StreamFeeder over --from FILE
/// ("-" = stdin) whose header is already read, so n can size the sketch
/// before the updates stream.
struct StreamInput {
  uint64_t n = 0;
  std::unique_ptr<lps::io::StreamFeeder> feeder;
};

std::unique_ptr<StreamInput> OpenInput(const std::string& from) {
  auto input = std::make_unique<StreamInput>();
  auto source = lps::io::MakeFileSource(from);
  if (!source.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", from.c_str(),
                 source.status().ToString().c_str());
    return nullptr;
  }
  input->feeder =
      std::make_unique<lps::io::StreamFeeder>(std::move(source.value()));
  auto n = input->feeder->ReadHeader();
  if (!n.ok()) {
    std::fprintf(stderr, "bad trace in %s: %s\n", from.c_str(),
                 n.status().ToString().c_str());
    return nullptr;
  }
  input->n = n.value();
  return input;
}

/// Reports a feeder run: an I/O error is fatal, skipped malformed records
/// are noted — a replay keeps going when one producer wrote one bad line,
/// but not silently.
bool ReportFeed(const lps::Result<lps::io::FeedStats>& stats) {
  if (!stats.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 stats.status().ToString().c_str());
    return false;
  }
  if (stats->malformed > 0) {
    std::fprintf(stderr, "note: skipped %llu malformed records\n",
                 static_cast<unsigned long long>(stats->malformed));
  }
  return true;
}

int CmdGen(int argc, char** argv) {
  const bool binary = TakeBoolFlag(&argc, argv, "--binary");
  if (argc != 6) return Usage();
  const std::string kind = argv[2];
  const uint64_t n = std::strtoull(argv[3], nullptr, 10);
  const uint64_t arg = std::strtoull(argv[4], nullptr, 10);
  const uint64_t seed = std::strtoull(argv[5], nullptr, 10);
  if (n == 0) return Usage();
  lps::stream::UpdateStream updates;
  if (kind == "turnstile") {
    updates = lps::stream::UniformTurnstile(n, arg, 100, seed);
  } else if (kind == "sparse") {
    updates = lps::stream::SparseVector(n, arg, 1000, seed);
  } else if (kind == "zipf") {
    updates = lps::stream::ZipfianVector(n, 1.0, static_cast<int64_t>(arg),
                                         true, seed);
  } else if (kind == "duplicates") {
    if (!binary) {
      lps::io::WriteLetterTrace(
          std::cout, n, lps::stream::DuplicateStream(n, arg, seed));
      return 0;
    }
    // Binary traces carry letters as the equivalent (letter, +1) updates
    // the decoder would produce for "l <letter>" lines.
    for (const uint64_t letter : lps::stream::DuplicateStream(n, arg, seed)) {
      updates.push_back({letter, 1});
    }
  } else {
    return Usage();
  }
  if (binary) {
    std::string out;
    lps::io::WriteBinaryTrace(&out, n, updates);
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else {
    lps::io::WriteTrace(std::cout, n, updates);
  }
  return 0;
}

// ------------------------------------------------------------ structures --
// Builders shared by the direct commands and `save`: construct the
// structure for a command spec, ingest (optionally sharded), and hand the
// merged structure to the caller.

/// Ingests the input into a stream::StreamState of `spec` — sharded when
/// shards > 1, threaded when threads > 0, windowed when window.window > 0
/// (checkpoints every window.checkpoint updates) — and returns the
/// whole-stream sketch, or the trailing window after printing its range
/// (the start rounds down to a checkpoint boundary). Returns nullptr on a
/// bad spec, an out-of-universe index, or a feed error.
std::unique_ptr<lps::LinearSketch> Ingest(StreamInput& in, int shards,
                                          int threads,
                                          const WindowSpec& window,
                                          const lps::SketchSpec& spec) {
  lps::stream::StreamState::Options options;
  options.shards = shards;
  options.threads = threads;
  if (window.window > 0) options.window_checkpoint = window.checkpoint;
  auto built = lps::stream::StreamState::Create(spec, options);
  if (!built.ok()) {
    std::fprintf(stderr, "bad sketch: %s\n",
                 built.status().ToString().c_str());
    return nullptr;
  }
  lps::stream::StreamState& state = *built.value();
  lps::Status pushed;
  const auto fed =
      in.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
        if (pushed.ok()) pushed = state.Push(u, c);
      });
  if (!ReportFeed(fed)) return nullptr;
  if (!pushed.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", pushed.ToString().c_str());
    return nullptr;
  }
  if (window.window == 0) return state.ReleaseSketch();
  state.Quiesce();
  auto tail = state.window()->WindowSketch(window.window);
  std::printf("window [%llu, %llu) of %llu updates (asked %llu, checkpoint "
              "every %llu)\n",
              static_cast<unsigned long long>(tail.start),
              static_cast<unsigned long long>(tail.start + tail.length),
              static_cast<unsigned long long>(state.updates_seen()),
              static_cast<unsigned long long>(window.window),
              static_cast<unsigned long long>(window.checkpoint));
  return std::move(tail.sketch);
}

std::unique_ptr<lps::LinearSketch> BuildSampler(StreamInput& in,
                                                const char* p_arg, double eps,
                                                double delta, uint64_t seed,
                                                int shards, int threads,
                                                const WindowSpec& window) {
  lps::SketchSpec spec;
  spec.n = in.n;
  spec.delta = delta;
  spec.seed = seed;
  if (std::strcmp(p_arg, "L0") == 0) {
    spec.kind = lps::SketchKind::kL0Sampler;
  } else {
    spec.kind = lps::SketchKind::kLpSampler;
    spec.p = std::strtod(p_arg, nullptr);
    spec.eps = eps;
  }
  return Ingest(in, shards, threads, window, spec);
}

std::unique_ptr<lps::LinearSketch> BuildHeavy(StreamInput& in, double p,
                                              double phi, uint64_t seed,
                                              int shards, int threads,
                                              const WindowSpec& window) {
  lps::SketchSpec spec;
  spec.kind = lps::SketchKind::kCsHeavyHitters;
  spec.n = in.n;
  spec.p = p;
  spec.phi = phi;
  spec.seed = seed;
  return Ingest(in, shards, threads, window, spec);
}

std::unique_ptr<lps::LinearSketch> BuildNorm(StreamInput& in, double p,
                                             uint64_t seed, int shards,
                                             int threads,
                                             const WindowSpec& window) {
  lps::SketchSpec spec;
  spec.kind = lps::SketchKind::kLpNormEstimator;
  spec.n = in.n;
  spec.p = p;
  spec.seed = seed;  // rows == 0 resolves to DefaultRows(n) in MakeSketch
  return Ingest(in, shards, threads, window, spec);
}

std::unique_ptr<lps::LinearSketch> BuildDuplicates(StreamInput& in,
                                                   double delta,
                                                   uint64_t seed) {
  lps::SketchSpec spec;
  spec.kind = lps::SketchKind::kDuplicateFinder;
  spec.n = in.n;
  spec.delta = delta;
  spec.seed = seed;
  auto finder = lps::MakeSketch(spec);
  bool letters_only = true;
  const auto fed =
      in.feeder->Feed([&](const lps::stream::Update* u, size_t c) {
        // A letter is a (letter, +1) update on top of the finder's
        // built-in initialization — ProcessItem and the LinearSketch entry
        // point are the same operation. A batch's leading run of letters
        // goes in as one batch; the first other update stops the feed.
        if (!letters_only) return;
        size_t letters = 0;
        while (letters < c && u[letters].delta == 1) ++letters;
        finder->UpdateBatch(u, letters);
        letters_only = letters == c;
      });
  if (!ReportFeed(fed)) return nullptr;
  if (!letters_only) {
    std::fprintf(stderr, "duplicates mode expects a letter trace\n");
    return nullptr;
  }
  return finder;
}

/// Queries through the unified dispatch and prints the result — the text
/// is byte-identical to the historical per-kind printf chain (the CI
/// smoke diffs it). Unsupported kinds diagnose on stderr. Returns the
/// process exit code.
int ReportQuery(const lps::LinearSketch& sketch) {
  const lps::QueryResult result = lps::Query(sketch);
  const std::string text = result.ToText();
  if (result.type == lps::QueryResult::Type::kUnsupported) {
    std::fputs(text.c_str(), stderr);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return result.ExitCode();
}

int SaveSketch(const lps::LinearSketch& sketch, const char* path) {
  lps::BitWriter writer;
  sketch.Serialize(&writer);
  auto status = lps::WriteBitsToFile(writer, path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %s state to %s (%zu bits)\n",
              lps::SketchKindName(sketch.kind()), path, writer.bit_count());
  return 0;
}

std::unique_ptr<lps::LinearSketch> LoadSketch(const char* path) {
  // Streamed container read (src/io/bits_io.h): the reader validates the
  // header as it goes and never sizes an allocation from the file's
  // claimed length — a corrupt or hostile file fails cleanly instead of
  // slurping first and asking questions later.
  auto reader = lps::io::ReadBitsStreamed(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reader.status().ToString().c_str());
    return nullptr;
  }
  // Library-side dispatch on the kind tag: every SketchKind loads.
  auto sketch = lps::DeserializeAnySketch(&reader.value());
  if (sketch == nullptr) {
    std::fprintf(stderr, "%s holds an unknown sketch kind\n", path);
  }
  return sketch;
}

// ------------------------------------------------------------- commands --

int CmdSample(int argc, char** argv) {
  int shards = 0, threads = 0;
  WindowSpec spec;
  std::string from;
  if (!TakeTopologyFlags(&argc, argv, &shards, &threads)) return Usage();
  if (!TakeWindowFlags(&argc, argv, &spec)) return Usage();
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 6) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  const double eps = std::strtod(argv[3], nullptr);
  const double delta = std::strtod(argv[4], nullptr);
  const uint64_t seed = std::strtoull(argv[5], nullptr, 10);
  auto sampler =
      BuildSampler(*in, argv[2], eps, delta, seed, shards, threads, spec);
  if (sampler == nullptr) return 1;
  return ReportQuery(*sampler);
}

int CmdDuplicates(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 4) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  const double delta = std::strtod(argv[2], nullptr);
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  auto finder = BuildDuplicates(*in, delta, seed);
  if (finder == nullptr) return 2;
  return ReportQuery(*finder);
}

int CmdHeavy(int argc, char** argv) {
  int shards = 0, threads = 0;
  WindowSpec spec;
  std::string from;
  if (!TakeTopologyFlags(&argc, argv, &shards, &threads)) return Usage();
  if (!TakeWindowFlags(&argc, argv, &spec)) return Usage();
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 5) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  auto hh = BuildHeavy(*in, std::strtod(argv[2], nullptr),
                       std::strtod(argv[3], nullptr),
                       std::strtoull(argv[4], nullptr, 10), shards, threads,
                       spec);
  if (hh == nullptr) return 1;
  return ReportQuery(*hh);
}

int CmdNorm(int argc, char** argv) {
  int shards = 0, threads = 0;
  WindowSpec spec;
  std::string from;
  if (!TakeTopologyFlags(&argc, argv, &shards, &threads)) return Usage();
  if (!TakeWindowFlags(&argc, argv, &spec)) return Usage();
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 4) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  auto est = BuildNorm(*in, std::strtod(argv[2], nullptr),
                       std::strtoull(argv[3], nullptr, 10), shards, threads,
                       spec);
  if (est == nullptr) return 1;
  return ReportQuery(*est);
}

int CmdStats(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc != 2) return Usage();
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  lps::stream::ExactVector x(in->n);
  const auto fed =
      in->feeder->Feed([&](const lps::stream::Update* u, size_t c) {
        for (size_t t = 0; t < c; ++t) x.Apply(u[t]);
      });
  if (!ReportFeed(fed)) return 1;
  std::printf("n %llu  updates %llu  L0 %llu  ||x||_1 %.6g  ||x||_2 %.6g  "
              "total %lld\n",
              static_cast<unsigned long long>(in->n),
              static_cast<unsigned long long>(fed->updates),
              static_cast<unsigned long long>(x.L0()), x.NormP(1.0),
              x.NormP(2.0), static_cast<long long>(x.Total()));
  return 0;
}

int CmdSave(int argc, char** argv) {
  std::string from;
  if (!TakeFromFlag(&argc, argv, &from)) return Usage();
  if (argc < 4) return Usage();
  const std::string what = argv[2];
  const char* path = argv[argc - 1];
  auto in = OpenInput(from);
  if (in == nullptr) return 1;
  std::unique_ptr<lps::LinearSketch> sketch;
  const WindowSpec whole;  // save persists the whole-stream sketch
  if (what == "sample" && argc == 8) {
    sketch = BuildSampler(*in, argv[3], std::strtod(argv[4], nullptr),
                          std::strtod(argv[5], nullptr),
                          std::strtoull(argv[6], nullptr, 10), 1, 0, whole);
  } else if (what == "heavy" && argc == 7) {
    sketch = BuildHeavy(*in, std::strtod(argv[3], nullptr),
                        std::strtod(argv[4], nullptr),
                        std::strtoull(argv[5], nullptr, 10), 1, 0, whole);
  } else if (what == "norm" && argc == 6) {
    sketch = BuildNorm(*in, std::strtod(argv[3], nullptr),
                       std::strtoull(argv[4], nullptr, 10), 1, 0, whole);
  } else if (what == "duplicates" && argc == 6) {
    sketch = BuildDuplicates(*in, std::strtod(argv[3], nullptr),
                             std::strtoull(argv[4], nullptr, 10));
  } else {
    return Usage();
  }
  if (sketch == nullptr) return 2;
  return SaveSketch(*sketch, path);
}

int CmdLoad(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto sketch = LoadSketch(argv[2]);
  if (sketch == nullptr) return 1;
  std::printf("loaded %s state from %s\n", lps::SketchKindName(sketch->kind()),
              argv[2]);
  return ReportQuery(*sketch);
}

int CmdMerge(int argc, char** argv) {
  if (argc < 5) return Usage();
  const char* out = argv[2];
  auto merged = LoadSketch(argv[3]);
  if (merged == nullptr) return 1;
  for (int a = 4; a < argc; ++a) {
    auto next = LoadSketch(argv[a]);
    if (next == nullptr) return 1;
    if (next->kind() != merged->kind()) {
      std::fprintf(stderr, "cannot merge %s into %s\n",
                   lps::SketchKindName(next->kind()),
                   lps::SketchKindName(merged->kind()));
      return 2;
    }
    // Merge would CHECK-abort on a parameter or seed mismatch.
    if (!lps::Mergeable(*merged, *next)) {
      std::fprintf(stderr, "cannot merge %s: parameters or seeds differ\n",
                   argv[a]);
      return 2;
    }
    merged->Merge(*next);
  }
  std::printf("merged %d shards\n", argc - 3);
  return SaveSketch(*merged, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "gen") return CmdGen(argc, argv);
  if (command == "sample") return CmdSample(argc, argv);
  if (command == "duplicates") return CmdDuplicates(argc, argv);
  if (command == "heavy") return CmdHeavy(argc, argv);
  if (command == "norm") return CmdNorm(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "save") return CmdSave(argc, argv);
  if (command == "load") return CmdLoad(argc, argv);
  if (command == "merge") return CmdMerge(argc, argv);
  if (command == "version") return CmdVersion();
  return Usage();
}
