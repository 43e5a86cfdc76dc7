// The async ingest front-end (src/io/): the trace writers round-tripping
// through the decoder, decoder exactness across torn chunk boundaries,
// the malformed-record counting policy, byte-source behavior on files /
// pipes / empty streams, the streamed bit-container reader, and the
// tentpole guarantee — async file-fed ingestion through the
// StreamFeeder/PipelineSink path lands sketch state BIT-IDENTICAL to
// in-memory ingest across shards x threads (for every kind against the
// same topology, and against solo ingest for the integer-counter kinds),
// including the windowed epoch-sealing composition.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/lps.h"

namespace lps {
namespace {

using io::MemorySource;
using io::PipelineSink;
using io::StreamFeeder;
using io::UpdateDecoder;
using stream::ParallelPipeline;
using stream::Update;
using stream::UpdateStream;
using stream::WindowManager;

// ---------------------------------------------------------------- helpers --

std::string MakeTempFile(const std::string& contents) {
  char path[] = "/tmp/lps_io_XXXXXX";
  const int fd = ::mkstemp(path);
  EXPECT_GE(fd, 0);
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t wrote =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (wrote <= 0) break;
    done += static_cast<size_t>(wrote);
  }
  EXPECT_EQ(done, contents.size());
  ::close(fd);
  return path;
}

std::string TextTrace(uint64_t n, const UpdateStream& updates) {
  std::ostringstream out;
  io::WriteTrace(out, n, updates);
  return out.str();
}

std::string BinaryTrace(uint64_t n, const UpdateStream& updates) {
  std::string out;
  io::WriteBinaryTrace(&out, n, updates);
  return out;
}

/// Runs the decoder over `bytes` cut into `chunk`-sized pieces.
struct Decoded {
  UpdateStream updates;
  uint64_t n = 0;
  uint64_t malformed = 0;
  Status status;
  UpdateDecoder::Format format = UpdateDecoder::Format::kUnknown;
};

Decoded DecodeChunked(const std::string& bytes, size_t chunk) {
  UpdateDecoder decoder;
  Decoded result;
  for (size_t at = 0; at < bytes.size(); at += chunk) {
    decoder.Consume(bytes.data() + at, std::min(chunk, bytes.size() - at),
                    &result.updates);
  }
  result.status = decoder.Finish(&result.updates);
  result.n = decoder.n();
  result.malformed = decoder.malformed();
  result.format = decoder.format();
  return result;
}

bool SameUpdates(const UpdateStream& a, const UpdateStream& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].index != b[t].index || a[t].delta != b[t].delta) return false;
  }
  return true;
}

struct State {
  std::vector<uint64_t> words;
  size_t bits = 0;
  bool operator==(const State& other) const {
    return bits == other.bits && words == other.words;
  }
};

State Serialized(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

// ---------------------------------------------------------------- decoder --

TEST(UpdateDecoder, TextRoundTripsAtEveryChunking) {
  const auto updates = stream::UniformTurnstile(1 << 10, 500, 20, 7);
  const std::string bytes = TextTrace(1 << 10, updates);
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
                       size_t{4096}, bytes.size()}) {
    const Decoded got = DecodeChunked(bytes, chunk);
    EXPECT_TRUE(got.status.ok()) << "chunk " << chunk;
    EXPECT_EQ(got.format, UpdateDecoder::Format::kText);
    EXPECT_EQ(got.n, uint64_t{1} << 10);
    EXPECT_EQ(got.malformed, 0u) << "chunk " << chunk;
    EXPECT_TRUE(SameUpdates(got.updates, updates)) << "chunk " << chunk;
  }
}

TEST(UpdateDecoder, BinaryRoundTripsAtEveryChunking) {
  const auto updates = stream::UniformTurnstile(1 << 9, 300, 20, 11);
  const std::string bytes = BinaryTrace(1 << 9, updates);
  for (size_t chunk :
       {size_t{1}, size_t{5}, size_t{16}, size_t{1000}, bytes.size()}) {
    const Decoded got = DecodeChunked(bytes, chunk);
    EXPECT_TRUE(got.status.ok()) << "chunk " << chunk;
    EXPECT_EQ(got.format, UpdateDecoder::Format::kBinary);
    EXPECT_EQ(got.n, uint64_t{1} << 9);
    EXPECT_EQ(got.malformed, 0u);
    EXPECT_TRUE(SameUpdates(got.updates, updates)) << "chunk " << chunk;
  }
}

TEST(UpdateDecoder, CrlfAndCommentsAndFinalLineWithoutNewline) {
  const std::string bytes =
      "# header comment\r\nn 100\r\nu 3 5\r\n\r\n# mid\nl 7\nu 9 -2";
  for (size_t chunk : {size_t{1}, size_t{4}, bytes.size()}) {
    const Decoded got = DecodeChunked(bytes, chunk);
    EXPECT_TRUE(got.status.ok());
    EXPECT_EQ(got.malformed, 0u);
    const UpdateStream want = {{3, 5}, {7, 1}, {9, -2}};
    EXPECT_TRUE(SameUpdates(got.updates, want)) << "chunk " << chunk;
  }
}

TEST(UpdateDecoder, TraceShorterThanTheBinaryMagicDecodes) {
  // 7 bytes: shorter than the 8-byte format-detection prefix, so the
  // whole stream is still buffered when Finish runs — it must go
  // through the line splitter, not be parsed as one record.
  const std::string bytes = "n 2\nl 0";
  const Decoded got = DecodeChunked(bytes, 1);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.n, 2u);
  EXPECT_EQ(got.malformed, 0u);
  const UpdateStream want = {{0, 1}};
  EXPECT_TRUE(SameUpdates(got.updates, want));
}

TEST(UpdateDecoder, MalformedRecordsAreCountedAndSkippedNeverFatal) {
  const std::string bytes =
      "x before header\n"  // unknown tag, pre-header
      "n 100\n"
      "u 3 5\n"
      "q 1 2\n"      // unknown tag
      "u zebra 1\n"  // unparsable index
      "u 4\n"        // missing delta
      "u 100 1\n"    // index out of range
      "l 100\n"      // letter out of range
      "n 50\n"       // duplicate header (first one wins)
      "u 5 -1\n";
  for (size_t chunk : {size_t{1}, size_t{8}, bytes.size()}) {
    const Decoded got = DecodeChunked(bytes, chunk);
    EXPECT_TRUE(got.status.ok()) << "malformed lines must not be fatal";
    EXPECT_EQ(got.n, 100u) << "first header wins";
    EXPECT_EQ(got.malformed, 7u) << "chunk " << chunk;
    const UpdateStream want = {{3, 5}, {5, -1}};
    EXPECT_TRUE(SameUpdates(got.updates, want)) << "chunk " << chunk;
  }
}

TEST(UpdateDecoder, TornTrailingBinaryRecordCountsAsMalformed) {
  const auto updates = stream::UniformTurnstile(256, 10, 5, 3);
  std::string bytes = BinaryTrace(256, updates);
  bytes.resize(bytes.size() - 7);  // tear the last record mid-field
  const Decoded got = DecodeChunked(bytes, 13);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.malformed, 1u);
  EXPECT_EQ(got.updates.size(), updates.size() - 1);
}

TEST(UpdateDecoder, MissingHeaderIsTheOnlyStructuralError) {
  for (const std::string& bytes :
       {std::string(" "), std::string("u 1 2\n"), std::string("# only\n")}) {
    const Decoded got = DecodeChunked(bytes, 1);
    EXPECT_FALSE(got.status.ok()) << "'" << bytes << "'";
  }
  // Truly empty input: Finish alone must also report the missing header.
  UpdateDecoder decoder;
  UpdateStream out;
  EXPECT_FALSE(decoder.Finish(&out).ok());
}

TEST(UpdateDecoder, OverlongLineIsOneMalformedRecord) {
  std::string bytes = "n 100\n";
  bytes += "u 1 ";
  bytes.append(10000, '1');  // one absurd record, longer than any valid one
  bytes += "\nu 2 3\n";
  for (size_t chunk : {size_t{3}, size_t{4096}, bytes.size()}) {
    const Decoded got = DecodeChunked(bytes, chunk);
    EXPECT_TRUE(got.status.ok());
    EXPECT_EQ(got.malformed, 1u) << "chunk " << chunk;
    const UpdateStream want = {{2, 3}};
    EXPECT_TRUE(SameUpdates(got.updates, want)) << "chunk " << chunk;
  }
}

// ------------------------------------------------------------ byte sources --

TEST(ByteSource, FileRoundTripsExactBytes) {
  std::string payload;
  for (int t = 0; t < 100000; ++t) {
    payload += static_cast<char>(t * 31 + 7);
  }
  const std::string path = MakeTempFile(payload);
  io::FileSourceOptions options;
  options.buffer_bytes = 4096;  // force many refills
  auto source = io::MakeFileSource(path, options);
  ASSERT_TRUE(source.ok());
  std::string got;
  for (;;) {
    auto chunk = (*source)->Next();
    ASSERT_TRUE(chunk.ok());
    if (chunk->size == 0) break;
    got.append(chunk->data, chunk->size);
  }
  EXPECT_EQ(got, payload);
  EXPECT_EQ((*source)->bytes_read(), payload.size());
  std::remove(path.c_str());
}

TEST(ByteSource, EmptyFileIsImmediateEof) {
  const std::string path = MakeTempFile("");
  auto source = io::MakeFileSource(path);
  ASSERT_TRUE(source.ok());
  auto chunk = (*source)->Next();
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->size, 0u);
  // EOF is sticky.
  chunk = (*source)->Next();
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->size, 0u);
  std::remove(path.c_str());
}

TEST(ByteSource, MissingFileIsStatusNotAbort) {
  auto source = io::MakeFileSource("/nonexistent/lps_io_test_path");
  EXPECT_FALSE(source.ok());
}

TEST(ByteSource, PipeStreamsThroughSocketSource) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = TextTrace(64, {{1, 2}, {3, 4}});
  std::thread writer([&] {
    size_t done = 0;
    while (done < payload.size()) {
      const ssize_t wrote =
          ::write(fds[1], payload.data() + done,
                  std::min<size_t>(17, payload.size() - done));
      if (wrote <= 0) break;
      done += static_cast<size_t>(wrote);
    }
    ::close(fds[1]);
  });
  auto source = io::MakeSocketSource(fds[0], /*owns_fd=*/true);
  std::string got;
  for (;;) {
    auto chunk = source->Next();
    ASSERT_TRUE(chunk.ok());
    if (chunk->size == 0) break;
    got.append(chunk->data, chunk->size);
  }
  writer.join();
  EXPECT_EQ(got, payload);
}

// -------------------------------------------------------- streamed bits io --

TEST(BitsIo, StreamedReadReturnsWrittenValues) {
  BitWriter writer;
  for (uint64_t t = 0; t < 5000; ++t) {
    writer.WriteBits(t * 0x9E3779B9ULL, 61);
  }
  const std::string path = "/tmp/lps_io_bits_test.lps";
  ASSERT_TRUE(WriteBitsToFile(writer, path).ok());
  io::FileSourceOptions options;
  options.buffer_bytes = 512;  // many chunks, torn words
  auto streamed = io::ReadBitsStreamed(path, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  BitReader& reader = streamed.value();
  EXPECT_EQ(reader.bits_remaining(), writer.bit_count());
  for (uint64_t t = 0; t < 5000; ++t) {
    ASSERT_EQ(reader.ReadBits(61), t * 0x9E3779B9ULL) << t;
  }
  EXPECT_EQ(reader.bits_remaining(), 0u);
  std::remove(path.c_str());
}

TEST(BitsIo, CorruptContainersAreCleanErrors) {
  // Wrong magic.
  std::string path = MakeTempFile(std::string(64, 'x'));
  EXPECT_FALSE(io::ReadBitsStreamed(path).ok());
  std::remove(path.c_str());
  // Header claims more than the file holds.
  BitWriter writer;
  writer.WriteU64(123);
  const std::string container = "/tmp/lps_io_bits_trunc.lps";
  ASSERT_TRUE(WriteBitsToFile(writer, container).ok());
  std::ifstream in(container, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  path = MakeTempFile(bytes.substr(0, bytes.size() - 4));
  EXPECT_FALSE(io::ReadBitsStreamed(path).ok());
  std::remove(path.c_str());
  // Header claims one whole word more than the file holds.
  path = MakeTempFile(bytes.substr(0, bytes.size() - 8));
  EXPECT_FALSE(io::ReadBitsStreamed(path).ok());
  std::remove(path.c_str());
  // A trailing byte after a whole image.
  path = MakeTempFile(bytes + '\0');
  EXPECT_FALSE(io::ReadBitsStreamed(path).ok());
  std::remove(path.c_str());
  std::remove(container.c_str());
  // Header-only containers whose bit count rounds up past 2^64 words:
  // the word count must not wrap to zero and slip past every check.
  for (const uint64_t bits : {~uint64_t{0}, ~uint64_t{0} - 62}) {
    std::string header = bytes.substr(0, 8);  // the container magic
    for (int i = 0; i < 8; ++i) header.push_back(char(bits >> (8 * i)));
    path = MakeTempFile(header);
    EXPECT_FALSE(io::ReadBitsStreamed(path).ok()) << bits;
    std::remove(path.c_str());
  }
}

// ----------------------------------------------------------- stream feeder --

TEST(StreamFeeder, HeaderThenFeedDeliversEveryUpdateInOrder) {
  const auto updates = stream::UniformTurnstile(1 << 10, 2000, 30, 5);
  for (const bool binary : {false, true}) {
    const std::string bytes =
        binary ? BinaryTrace(1 << 10, updates) : TextTrace(1 << 10, updates);
    for (const bool async_decode : {false, true}) {
      StreamFeeder::Options options;
      options.async_decode = async_decode;
      options.batch_size = 97;  // odd size: partial tails exercised
      StreamFeeder feeder(
          std::make_unique<MemorySource>(bytes.data(), bytes.size(), 333),
          options);
      auto n = feeder.ReadHeader();
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(*n, uint64_t{1} << 10);
      UpdateStream got;
      auto stats = feeder.Feed([&](const Update* batch, size_t count) {
        got.insert(got.end(), batch, batch + count);
      });
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->updates, updates.size());
      EXPECT_EQ(stats->malformed, 0u);
      EXPECT_EQ(stats->bytes, bytes.size());
      EXPECT_TRUE(SameUpdates(got, updates))
          << "binary=" << binary << " async=" << async_decode;
    }
  }
}

TEST(StreamFeeder, HeaderlessStreamFailsInReadHeader) {
  const std::string bytes = "u 1 2\nu 3 4\n";
  StreamFeeder feeder(
      std::make_unique<MemorySource>(bytes.data(), bytes.size(), 4));
  EXPECT_FALSE(feeder.ReadHeader().ok());
}

// --------------------------------------------- async-vs-memory bit-identity --

/// Feeds `bytes` through the async path into a fresh pipeline topology
/// and returns replica 0's serialized state.
State AsyncIngestState(const std::string& bytes, const SketchSpec& spec,
                       int shards, int threads) {
  StreamFeeder feeder(
      std::make_unique<MemorySource>(bytes.data(), bytes.size(), 1013));
  auto n = feeder.ReadHeader();
  EXPECT_TRUE(n.ok());
  std::vector<std::unique_ptr<LinearSketch>> replicas;
  std::vector<LinearSketch*> raw;
  for (int s = 0; s < shards; ++s) {
    replicas.push_back(MakeSketch(spec));
    raw.push_back(replicas.back().get());
  }
  ParallelPipeline::Options options;
  options.shards = shards;
  options.threads = threads;
  ParallelPipeline pipeline(options);
  pipeline.Add("sink", raw);
  PipelineSink sink(&pipeline, nullptr, 0);
  auto stats = feeder.Feed(std::ref(sink));
  EXPECT_TRUE(stats.ok());
  sink.Finish();
  return Serialized(*replicas[0]);
}

/// In-memory ingest through the same pipeline topology (the pre-io
/// baseline: materialize the whole stream, then Drive).
State MemoryIngestState(const UpdateStream& updates, const SketchSpec& spec,
                        int shards, int threads) {
  std::vector<std::unique_ptr<LinearSketch>> replicas;
  std::vector<LinearSketch*> raw;
  for (int s = 0; s < shards; ++s) {
    replicas.push_back(MakeSketch(spec));
    raw.push_back(replicas.back().get());
  }
  ParallelPipeline::Options options;
  options.shards = shards;
  options.threads = threads;
  ParallelPipeline pipeline(options);
  pipeline.Add("sink", raw);
  pipeline.Drive(updates);
  pipeline.MergeShards();
  return Serialized(*replicas[0]);
}

SketchSpec SweepSpec(SketchKind kind) {
  SketchSpec spec;
  spec.kind = kind;
  spec.n = 1 << 10;
  spec.rows = 5;
  spec.buckets = 32;
  spec.s = 8;
  spec.repetitions = 3;
  spec.seed = 77;
  return spec;
}

/// The 9 kinds whose counters are genuinely floating point (see
/// tests/dist_test.cc): sharded Merge reassociates their sums relative
/// to solo ingest. Against the same topology they are still
/// bit-identical — the async path changes nothing about partitioning.
bool FloatingPointMerge(SketchKind kind) {
  switch (kind) {
    case SketchKind::kStableSketch:
    case SketchKind::kLpNormEstimator:
    case SketchKind::kLpSampler:
    case SketchKind::kAkoSampler:
    case SketchKind::kCsHeavyHitters:
    case SketchKind::kDuplicateFinder:
    case SketchKind::kSparseDuplicateFinder:
    case SketchKind::kPositiveFinder:
    case SketchKind::kMomentEstimator:
      return true;
    default:
      return false;
  }
}

TEST(AsyncIngest, BitIdenticalToInMemoryAcrossShardsThreadsAndKinds) {
  const auto updates = stream::UniformTurnstile(1 << 10, 4000, 40, 9);
  const std::string text = TextTrace(1 << 10, updates);
  const std::string binary = BinaryTrace(1 << 10, updates);
  constexpr uint32_t kLastKind =
      static_cast<uint32_t>(SketchKind::kMomentEstimator);
  for (uint32_t k = 1; k <= kLastKind; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    const SketchSpec spec = SweepSpec(kind);
    // Solo reference: one replica, inline, in memory.
    const State solo = MemoryIngestState(updates, spec, 1, 0);
    for (const int shards : {1, 2, 4}) {
      for (const int threads : {0, 2}) {
        if (threads > shards) continue;
        const State memory = MemoryIngestState(updates, spec, shards, threads);
        const State async_text = AsyncIngestState(text, spec, shards, threads);
        // Same topology: async arrival chunking must never show.
        EXPECT_TRUE(async_text == memory)
            << SketchKindName(kind) << " async!=memory at shards=" << shards
            << " threads=" << threads;
        // Integer-counter kinds: also bit-identical to SOLO ingest.
        if (!FloatingPointMerge(kind)) {
          EXPECT_TRUE(async_text == solo)
              << SketchKindName(kind) << " async!=solo at shards=" << shards
              << " threads=" << threads;
        }
      }
    }
    // Binary encoding feeds the same updates: same state as text.
    EXPECT_TRUE(AsyncIngestState(binary, spec, 4, 2) ==
                AsyncIngestState(text, spec, 4, 2))
        << SketchKindName(kind) << " binary!=text";
  }
}

TEST(AsyncIngest, WindowedEpochsMatchSoloWindowManager) {
  const auto updates = stream::UniformTurnstile(1 << 9, 3000, 30, 21);
  const std::string text = TextTrace(1 << 9, updates);
  const SketchSpec spec = SweepSpec(SketchKind::kCountSketch);
  constexpr uint64_t kInterval = 256;
  constexpr uint64_t kWindow = 700;
  // Solo reference: WindowManager owns ingestion, seals automatically.
  auto solo_sketch = MakeSketch(spec);
  WindowManager::Options wm_options;
  wm_options.checkpoint_interval = kInterval;
  WindowManager solo_wm(solo_sketch.get(), wm_options);
  solo_wm.PushBatch(updates.data(), updates.size());
  const auto solo_window = solo_wm.WindowSketch(kWindow);
  // Async sharded+threaded: epochs sealed through PipelineSink.
  StreamFeeder feeder(
      std::make_unique<MemorySource>(text.data(), text.size(), 777));
  ASSERT_TRUE(feeder.ReadHeader().ok());
  std::vector<std::unique_ptr<LinearSketch>> replicas;
  std::vector<LinearSketch*> raw;
  for (int s = 0; s < 4; ++s) {
    replicas.push_back(MakeSketch(spec));
    raw.push_back(replicas.back().get());
  }
  ParallelPipeline::Options options;
  options.shards = 4;
  options.threads = 2;
  ParallelPipeline pipeline(options);
  pipeline.Add("sink", raw);
  WindowManager wm(replicas[0].get(), wm_options);
  PipelineSink sink(&pipeline, &wm, kInterval);
  ASSERT_TRUE(feeder.Feed(std::ref(sink)).ok());
  sink.Finish();
  EXPECT_EQ(wm.updates_seen(), updates.size());
  const auto async_window = wm.WindowSketch(kWindow);
  EXPECT_EQ(async_window.start, solo_window.start);
  EXPECT_EQ(async_window.length, solo_window.length);
  EXPECT_TRUE(Serialized(*async_window.sketch) ==
              Serialized(*solo_window.sketch))
      << "windowed async ingest not bit-identical to solo WindowManager";
}

TEST(AsyncIngest, FileFedPipelineMatchesMemory) {
  const auto updates = stream::UniformTurnstile(1 << 9, 2000, 25, 31);
  const std::string bytes = BinaryTrace(1 << 9, updates);
  const std::string path = MakeTempFile(bytes);
  const SketchSpec spec = SweepSpec(SketchKind::kCountMin);
  io::FileSourceOptions file_options;
  file_options.buffer_bytes = 4096;
  auto source = io::MakeFileSource(path, file_options);
  ASSERT_TRUE(source.ok());
  StreamFeeder feeder(std::move(source.value()));
  ASSERT_TRUE(feeder.ReadHeader().ok());
  std::vector<std::unique_ptr<LinearSketch>> replicas;
  std::vector<LinearSketch*> raw;
  for (int s = 0; s < 2; ++s) {
    replicas.push_back(MakeSketch(spec));
    raw.push_back(replicas.back().get());
  }
  ParallelPipeline::Options options;
  options.shards = 2;
  options.threads = 2;
  ParallelPipeline pipeline(options);
  pipeline.Add("sink", raw);
  PipelineSink sink(&pipeline, nullptr, 0);
  ASSERT_TRUE(feeder.Feed(std::ref(sink)).ok());
  sink.Finish();
  EXPECT_TRUE(Serialized(*replicas[0]) ==
              MemoryIngestState(updates, spec, 2, 2));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lps
