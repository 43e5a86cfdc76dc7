// The multi-tenant sketch server, over real loopback sockets.
//
// Every test starts a Server on an ephemeral 127.0.0.1 port and talks
// to it through the production Client — the same codec lps_serve and
// lps_bench_client use, so the protocol is tested end to end:
//
//   * request/response cycle and per-tenant isolation (64 tenants
//     ingesting and querying concurrently, each answer reflecting only
//     its own stream);
//   * windowed queries bit-identical to a single-process WindowManager
//     for exact-arithmetic kinds, including through a sharded
//     per-tenant pipeline (epoch-aligned checkpoints);
//   * snapshot -> daemon restart -> restore equivalence, byte-for-byte
//     on the re-snapshotted state;
//   * malformed-frame containment: oversized length prefix, truncated
//     payload, unknown opcode, a body image whose bit count wraps, falls
//     a word short or runs a byte long — each answered or dropped without
//     taking the daemon down for anyone else — and a stalled length
//     prefix that commits no frame-sized buffer;
//   * malformed-BODY containment: well-formed frames whose bodies lie
//     (string lengths, update counts, state bit counts, a bit count
//     that wraps the word-count arithmetic) or carry hostile VALUES
//     (out-of-range spec parameters, out-of-universe indices, NUL-
//     aliased tenant names) — every one an error response, never an
//     abort;
//   * a client that stops reading its replies costs the daemon one
//     reply, and when it then dies it must not wedge its connection's
//     thread or the accept loop; each connection is one thread.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kernels/kernels.h"
#include "src/lps.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace lps::server {
namespace {

constexpr uint64_t kN = 1024;

Client MustConnect(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client.value());
}

std::unique_ptr<Server> MustStart() {
  Server::Options options;
  options.port = 0;
  auto server = std::make_unique<Server>(options);
  const Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

/// A deterministic per-tenant stream with a planted heavy coordinate
/// (the tenant id), so each tenant's correct answer identifies it.
std::vector<stream::Update> TenantStream(uint64_t tenant, size_t count) {
  std::vector<stream::Update> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = (tenant + 1) * 0x9E3779B97F4A7C15ull + i;
    h ^= h >> 31;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    updates.push_back(
        {i % 3 == 0 ? tenant % kN : h % kN, int64_t(1 + i % 2)});
  }
  return updates;
}

SketchConfig HeavyConfig(uint64_t seed) {
  SketchConfig config;
  config.spec.kind = SketchKind::kCsHeavyHitters;
  config.spec.n = kN;
  config.spec.p = 1.0;
  config.spec.phi = 0.05;
  config.spec.seed = seed;
  return config;
}

TEST(ServerTest, CreateIngestQueryCycle) {
  auto server = MustStart();
  Client client = MustConnect(*server);

  const SketchConfig config = HeavyConfig(17);
  ASSERT_TRUE(client.Create("acme", "clicks", config).ok());

  const auto updates = TenantStream(5, 3000);
  auto ingested = client.Ingest("acme", "clicks", updates);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(*ingested, updates.size());

  auto result = client.Query("acme", "clicks");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->type, QueryResult::Type::kHeavyHitters);
  EXPECT_NE(std::find(result->items.begin(), result->items.end(), 5ull),
            result->items.end())
      << result->ToText();

  // The server's answer equals a local sketch fed the same stream —
  // same spec, same updates, same unified QueryResult.
  auto local = MakeSketch(config.spec);
  local->UpdateBatch(updates.data(), updates.size());
  EXPECT_EQ(*result, lps::Query(*local));

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tenants, 1u);
  EXPECT_EQ(stats->updates, updates.size());
  // The STATS opcode reports which SIMD kernel backend the server
  // dispatched (appended wire field — round-trips through the frame).
  EXPECT_EQ(stats->kernel_backend, lps::kernels::ActiveBackendName());
  server->Stop();
}

TEST(ServerTest, RegistryErrorsAreResponsesNotDisconnects) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Create("a", "k", HeavyConfig(1)).ok());
  EXPECT_FALSE(client.Create("a", "k", HeavyConfig(1)).ok());  // duplicate
  EXPECT_FALSE(client.Query("a", "missing").ok());
  EXPECT_FALSE(client.Drop("ghost", "k").ok());
  EXPECT_FALSE(client.Window("a", "k", 10, false).ok());  // no windowing
  // The connection survived all four errors.
  EXPECT_TRUE(client.Query("a", "k").ok());
  server->Stop();
}

TEST(ServerTest, SixtyFourTenantsStayIsolatedUnderConcurrency) {
  auto server = MustStart();
  constexpr int kTenants = 64;
  std::vector<std::string> failures(kTenants);
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      auto connected = Client::Connect("127.0.0.1", server->port());
      if (!connected.ok()) {
        failures[t] = connected.status().ToString();
        return;
      }
      Client client = std::move(connected.value());
      const std::string tenant = "tenant" + std::to_string(t);
      if (!client.Create(tenant, "s", HeavyConfig(100 + uint64_t(t))).ok()) {
        failures[t] = "create failed";
        return;
      }
      const auto updates = TenantStream(uint64_t(t), 1200);
      // Interleave ingest and query so queries run against tenants
      // mid-stream elsewhere on the server.
      for (int round = 0; round < 3; ++round) {
        const size_t third = updates.size() / 3;
        std::vector<stream::Update> slice(
            updates.begin() + round * third,
            updates.begin() + (round + 1) * third);
        if (!client.Ingest(tenant, "s", slice).ok()) {
          failures[t] = "ingest failed";
          return;
        }
        auto result = client.Query(tenant, "s");
        if (!result.ok()) {
          failures[t] = "query failed";
          return;
        }
      }
      auto result = client.Query(tenant, "s");
      if (!result.ok() ||
          result->type != QueryResult::Type::kHeavyHitters) {
        failures[t] = "final query failed";
        return;
      }
      // The tenant's own planted heavy coordinate — and nobody else's
      // stream bleeding in.
      auto local = MakeSketch(HeavyConfig(100 + uint64_t(t)).spec);
      local->UpdateBatch(updates.data(), updates.size());
      if (*result != lps::Query(*local)) {
        failures[t] = "answer differs from isolated local sketch: " +
                      result->ToText();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(failures[t], "") << "tenant " << t;
  }
  auto client = MustConnect(*server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tenants, uint64_t(kTenants));
  EXPECT_EQ(stats->updates, uint64_t(kTenants) * 1200);
  server->Stop();
}

// The server-side windowed query must be bit-identical to a solo
// WindowManager over the same stream, for an exact-arithmetic kind —
// both inline and through a sharded per-tenant pipeline (checkpoints
// sealed at epoch boundaries). CmHeavyHitters is all-integer arithmetic
// (count-min + dyadic tree), so shard merges reassociate nothing —
// unlike default CsHeavyHitters, whose embedded FP norm estimator is
// only merge-exact in strict-turnstile mode.
class WindowBitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowBitIdentityTest, MatchesSoloWindowManager) {
  const int shards = GetParam();
  auto server = MustStart();
  Client client = MustConnect(*server);

  SketchConfig config;
  config.spec.kind = SketchKind::kCmHeavyHitters;
  config.spec.n = kN;
  config.spec.phi = 0.05;
  config.spec.seed = 23;
  config.window_checkpoint = 256;
  config.shards = shards;
  config.threads = shards > 1 ? 2 : 0;
  ASSERT_TRUE(client.Create("w", "s", config).ok());

  const auto updates = TenantStream(9, 3000);
  // Odd-sized ingest batches: checkpoint positions must not depend on
  // request framing.
  size_t sent = 0;
  const size_t kBatches[] = {700, 123, 989, 1111, 77};
  for (size_t batch : kBatches) {
    std::vector<stream::Update> slice(updates.begin() + sent,
                                      updates.begin() + sent + batch);
    ASSERT_TRUE(client.Ingest("w", "s", slice).ok());
    sent += batch;
  }
  ASSERT_EQ(sent, updates.size());

  // Solo reference: same spec, same stream, same checkpoint interval.
  auto solo = MakeSketch(config.spec);
  stream::WindowManager::Options wm_options;
  wm_options.checkpoint_interval = config.window_checkpoint;
  stream::WindowManager solo_wm(solo.get(), wm_options);
  solo_wm.PushBatch(updates.data(), updates.size());

  for (uint64_t w : {uint64_t(256), uint64_t(512), uint64_t(2048)}) {
    auto served = client.Window("w", "s", w, /*want_state=*/true);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto local = solo_wm.WindowSketch(w);
    EXPECT_EQ(served->start, local.start) << "w=" << w;
    EXPECT_EQ(served->length, local.length) << "w=" << w;
    BitWriter local_state;
    local.sketch->Serialize(&local_state);
    ASSERT_TRUE(served->has_state);
    EXPECT_EQ(served->state_bits, local_state.bit_count()) << "w=" << w;
    EXPECT_EQ(served->state_words, local_state.words()) << "w=" << w;
    EXPECT_EQ(served->result, lps::Query(*local.sketch)) << "w=" << w;
  }
  server->Stop();
}

INSTANTIATE_TEST_SUITE_P(InlineAndSharded, WindowBitIdentityTest,
                         ::testing::Values(1, 4));

TEST(ServerTest, SnapshotRestartRestoreRoundTrips) {
  SnapshotBlob blob;
  QueryResult before;
  {
    auto server = MustStart();
    Client client = MustConnect(*server);
    SketchConfig config = HeavyConfig(31);
    config.window_checkpoint = 512;
    ASSERT_TRUE(client.Create("t", "s", config).ok());
    const auto updates = TenantStream(3, 2048);
    ASSERT_TRUE(client.Ingest("t", "s", updates).ok());
    auto result = client.Query("t", "s");
    ASSERT_TRUE(result.ok());
    before = *result;
    auto snapshot = client.Snapshot("t", "s");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    blob = *snapshot;
    server->Stop();  // daemon generation 1 gone
  }

  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Restore("t", "s", blob).ok());

  // Same answer across the restart...
  auto after = client.Query("t", "s");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, before);

  // ...byte-identical re-snapshotted state...
  auto again = client.Snapshot("t", "s");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->state_bits, blob.state_bits);
  EXPECT_EQ(again->state_words, blob.state_words);
  EXPECT_EQ(again->updates_seen, blob.updates_seen);

  // ...and the restored stream keeps ingesting and windowing (the
  // restore point is the new window origin).
  const auto more = TenantStream(4, 1024);
  ASSERT_TRUE(client.Ingest("t", "s", more).ok());
  auto window = client.Window("t", "s", 512, false);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->start + window->length, more.size());

  // A corrupt blob is rejected without killing the daemon.
  SnapshotBlob corrupt = blob;
  corrupt.state_words[0] ^= 0xFFFF;  // break the magic
  EXPECT_FALSE(client.Restore("t", "other", corrupt).ok());
  // So is a sharded config carrying state serialized under another seed:
  // same size and leading word as the config's, so only the Reset proof
  // catches it. Accepted, it would be replica 0 and the next epoch merge
  // would abort the daemon.
  SnapshotBlob foreign = blob;
  foreign.config.shards = 2;
  SketchSpec lying = foreign.config.spec;
  lying.seed = 999;
  BitWriter lying_state;
  MakeSketch(lying)->Serialize(&lying_state);
  foreign.state_words = lying_state.words();
  foreign.state_bits = lying_state.bit_count();
  EXPECT_FALSE(client.Restore("t", "foreign", foreign).ok());
  EXPECT_FALSE(client.Ingest("t", "foreign", more).ok());
  EXPECT_FALSE(client.Query("t", "foreign").ok());
  EXPECT_TRUE(client.Query("t", "s").ok());
  server->Stop();
}

TEST(ServerTest, MalformedFramesDoNotKillTheDaemon) {
  auto server = MustStart();
  Client healthy = MustConnect(*server);
  ASSERT_TRUE(healthy.Create("a", "k", HeavyConfig(1)).ok());

  {
    // Oversized length prefix: error frame, then the connection closes.
    Client attacker = MustConnect(*server);
    const std::vector<uint8_t> oversized = {0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_TRUE(attacker.SendRaw(oversized).ok());
    auto reply = attacker.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->first, kStatusError);
    EXPECT_FALSE(attacker.ReadReply().ok());  // closed after answering
  }
  {
    // Truncated payload: declared 64 bytes, delivered 3, then EOF.
    Client attacker = MustConnect(*server);
    const std::vector<uint8_t> truncated = {64, 0, 0, 0, 1, 2, 3};
    ASSERT_TRUE(attacker.SendRaw(truncated).ok());
    ::shutdown(attacker.fd(), SHUT_WR);
    auto reply = attacker.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->first, kStatusError);
  }
  {
    // Unknown opcode in a well-formed frame: error response, and the
    // SAME connection keeps working.
    Client attacker = MustConnect(*server);
    BitWriter empty;
    ASSERT_TRUE(attacker.SendRaw(EncodeFrame(0x7E, empty)).ok());
    auto reply = attacker.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->first, kStatusError);
    EXPECT_TRUE(attacker.Stats().ok());
  }

  // The daemon served everyone else throughout.
  EXPECT_TRUE(healthy.Query("a", "k").ok());
  Client fresh = MustConnect(*server);
  EXPECT_TRUE(fresh.Stats().ok());
  server->Stop();
}

// A well-formed frame whose BODY lies about its interior lengths gets a
// "malformed request body" error on a connection that keeps serving —
// the frame boundary was sound, so the stream is still synchronized.
TEST(ServerTest, MalformedBodiesAreErrorsNotAborts) {
  auto server = MustStart();
  Client healthy = MustConnect(*server);
  ASSERT_TRUE(healthy.Create("a", "k", HeavyConfig(1)).ok());

  Client attacker = MustConnect(*server);
  const auto expect_error_then_alive = [&](const BitWriter& body,
                                           Opcode opcode, const char* what) {
    ASSERT_TRUE(attacker.SendRaw(EncodeFrame(uint8_t(opcode), body)).ok())
        << what;
    auto reply = attacker.ReadReply();
    ASSERT_TRUE(reply.ok()) << what;
    EXPECT_EQ(reply->first, kStatusError) << what;
    EXPECT_TRUE(attacker.Stats().ok()) << what;  // SAME connection serves on
  };

  {
    // CREATE whose tenant string claims 4096 bytes the body never ships.
    BitWriter body;
    body.WriteBits(4096, 32);
    expect_error_then_alive(body, Opcode::kCreate, "lying string length");
  }
  {
    // INGEST claiming ~2^60 updates with an empty tail.
    BitWriter body;
    WriteString(&body, "a");
    WriteString(&body, "k");
    body.WriteU64(1ull << 60);
    expect_error_then_alive(body, Opcode::kIngest, "lying update count");
  }
  {
    // WINDOW missing its w / want_state tail.
    BitWriter body;
    WriteString(&body, "a");
    WriteString(&body, "k");
    expect_error_then_alive(body, Opcode::kWindow, "truncated body");
  }
  // RESTORE whose snapshot state claims bits it does not carry: 2^40,
  // counts that round past 2^64, and one word more than it ships.
  const std::pair<uint64_t, int> lying_states[] = {
      {1ull << 40, 0}, {~0ull, 0}, {~0ull - 62, 0}, {130, 2}};
  for (const auto& [claimed, shipped] : lying_states) {
    BitWriter body;
    WriteString(&body, "a");
    WriteString(&body, "other");
    SerializeConfig(HeavyConfig(1), &body);
    body.WriteU64(0);        // updates_seen
    body.WriteU64(claimed);  // state bit count
    for (int i = 0; i < shipped; ++i) body.WriteU64(0);
    expect_error_then_alive(body, Opcode::kRestore, "lying state size");
  }

  // The daemon served everyone else throughout.
  EXPECT_TRUE(healthy.Query("a", "k").ok());
  server->Stop();
}

// A frame body is an image spanning exactly the payload. A declared bit
// count near 2^64 must not wrap the ceil-to-words arithmetic into a
// "valid" tiny frame (that abort lived in DecodeFramePayload), and a body
// one word short or one byte long must not pass either: each is a
// framing violation, answered once before the connection closes.
TEST(ServerTest, HostileBitCountDoesNotKillTheDaemon) {
  auto server = MustStart();
  const auto frame_of = [](uint64_t bits, size_t words, size_t extra) {
    const uint32_t payload = uint32_t(1 + 8 + 8 * words + extra);
    std::vector<uint8_t> frame(4 + payload, 0);
    for (int i = 0; i < 4; ++i) frame[i] = uint8_t(payload >> (8 * i));
    frame[4] = uint8_t(Opcode::kStats);
    for (int i = 0; i < 8; ++i) frame[5 + i] = uint8_t(bits >> (8 * i));
    return frame;
  };
  const std::vector<std::vector<uint8_t>> hostile = {
      frame_of(~0ull, 0, 0),       // bit count 2^64 - 1
      frame_of(~0ull - 62, 0, 0),  // bit count 2^64 - 63
      frame_of(130, 2, 0),         // one word past the delivered bytes
      frame_of(130, 3, 1),         // a trailing byte
  };
  for (const std::vector<uint8_t>& frame : hostile) {
    EXPECT_FALSE(DecodeFramePayload(frame.data() + 4, frame.size() - 4).ok());
    Client attacker = MustConnect(*server);
    ASSERT_TRUE(attacker.SendRaw(frame).ok());
    auto reply = attacker.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->first, kStatusError);
    EXPECT_FALSE(attacker.ReadReply().ok());  // closed after answering
  }

  Client fresh = MustConnect(*server);
  EXPECT_TRUE(fresh.Stats().ok());
  server->Stop();
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define LPS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define LPS_UNDER_SANITIZER 1
#endif
#endif

/// This process's resident set, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int read = std::fscanf(statm, "%llu %llu", &pages, &resident);
  std::fclose(statm);
  return read == 2 ? resident * uint64_t(::sysconf(_SC_PAGESIZE)) : 0;
}

// A length prefix is a claim, not an allocation. Two peers that each
// announce a kMaxFrameBytes frame and stall once made the daemon zero
// 256 MiB apiece while it waited; now the buffer grows with the bytes
// that arrive. Closing such a connection ends the frame early: a
// truncation error, then the close.
TEST(ServerTest, StalledLengthPrefixCommitsNoFrameBuffer) {
  auto server = MustStart();
  // A round trip each first, so the connections' threads are running
  // before the baseline is taken.
  std::vector<Client> stalled;
  for (int i = 0; i < 2; ++i) {
    stalled.push_back(MustConnect(*server));
    ASSERT_TRUE(stalled.back().Stats().ok());
  }
  const uint64_t before = ResidentBytes();
  std::vector<uint8_t> prefix(4);
  for (int b = 0; b < 4; ++b) prefix[b] = uint8_t(kMaxFrameBytes >> (8 * b));
  for (Client& client : stalled) ASSERT_TRUE(client.SendRaw(prefix).ok());
  // Let each reader take its prefix and block on the payload.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t after = ResidentBytes();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after, before + (16u << 20))
      << "resident set grew by " << (after - before) << " bytes";

  for (Client& client : stalled) {
    ::shutdown(client.fd(), SHUT_WR);
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->first, kStatusError);
    EXPECT_EQ(ReadString(&reply.value().body), "frame payload truncated");
    EXPECT_FALSE(client.ReadReply().ok());  // closed after answering
  }

  // A frame past the allowance still arrives whole (1.6 MB of updates).
  Client healthy = MustConnect(*server);
  ASSERT_TRUE(healthy.Create("big", "k", HeavyConfig(3)).ok());
  const auto updates = TenantStream(3, 100000);
  auto accepted = healthy.Ingest("big", "k", updates);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(*accepted, updates.size());
  server->Stop();
}

// Wire strings are length-prefixed and may contain NUL, so the registry
// key must be unambiguous: ("a\0b", "c") and ("a", "b\0c") are two
// different streams, not aliases of each other.
TEST(ServerTest, NulBytesInNamesDoNotAliasTenants) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  const std::string tenant_one("a\0b", 3);
  const std::string key_one("c");
  const std::string tenant_two("a");
  const std::string key_two("b\0c", 3);

  ASSERT_TRUE(client.Create(tenant_one, key_one, HeavyConfig(1)).ok());
  // Not a duplicate: a different (tenant, key) pair entirely.
  ASSERT_TRUE(client.Create(tenant_two, key_two, HeavyConfig(2)).ok());

  const auto updates = TenantStream(7, 512);
  ASSERT_TRUE(client.Ingest(tenant_one, key_one, updates).ok());
  // Dropping one must not reach through the alias into the other.
  ASSERT_TRUE(client.Drop(tenant_two, key_two).ok());
  auto result = client.Query(tenant_one, key_one);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto local = MakeSketch(HeavyConfig(1).spec);
  local->UpdateBatch(updates.data(), updates.size());
  EXPECT_EQ(*result, lps::Query(*local));
  server->Stop();
}

// Request VALUES that would trip a constructor or update precondition
// (LPS_CHECK aborts in-process) must come back as error responses.
TEST(ServerTest, OutOfRangeValuesAreErrorsNotAborts) {
  auto server = MustStart();
  Client client = MustConnect(*server);

  SketchConfig bad = HeavyConfig(1);
  bad.spec.kind = SketchKind::kLpSampler;
  bad.spec.p = 5.0;  // Lp sampler requires p in (0, 2)
  EXPECT_FALSE(client.Create("v", "p", bad).ok());

  bad = HeavyConfig(1);
  bad.spec.phi = 0.0;  // heavy hitters require phi in (0, 1)
  EXPECT_FALSE(client.Create("v", "phi", bad).ok());

  bad = HeavyConfig(1);
  bad.spec.delta = std::numeric_limits<double>::quiet_NaN();
  bad.spec.kind = SketchKind::kL0Sampler;
  EXPECT_FALSE(client.Create("v", "nan", bad).ok());

  bad = HeavyConfig(1);
  bad.spec.rows = 1u << 30;  // allocation bomb
  bad.spec.buckets = 1u << 30;
  EXPECT_FALSE(client.Create("v", "huge", bad).ok());

  // An out-of-universe index into a sampler kind: the sketch would
  // CHECK index < n, so the registry rejects the batch up front.
  SketchConfig sampler = HeavyConfig(3);
  sampler.spec.kind = SketchKind::kLpSampler;
  sampler.spec.p = 1.0;
  ASSERT_TRUE(client.Create("v", "s", sampler).ok());
  EXPECT_FALSE(client.Ingest("v", "s", {{1ull << 40, 1}}).ok());
  EXPECT_TRUE(client.Ingest("v", "s", {{kN - 1, 1}}).ok());  // in range

  EXPECT_TRUE(client.Stats().ok());  // daemon alive through all of it
  server->Stop();
}

// A client that pipelines requests and never reads a reply costs the
// daemon one reply: the connection's thread sends each reply itself and
// blocks in send() once the socket buffers are full, instead of
// building more ~2 MiB SNAPSHOT replies for a queue. When the client
// then dies with a RST, the failed send ends the connection and the
// accept loop keeps serving.
TEST(ServerTest, DeadSlowClientDoesNotWedgeTheServer) {
  auto server = MustStart();
  {
    Client setup = MustConnect(*server);
    // A deliberately wide CountSketch so each SNAPSHOT reply is ~2 MiB
    // and a few pipelined replies overrun any default socket buffer.
    SketchConfig big;
    big.spec.kind = SketchKind::kCountSketch;
    big.spec.rows = 8;
    big.spec.buckets = 1 << 15;
    ASSERT_TRUE(setup.Create("t", "big", big).ok());
  }
  {
    Client slow = MustConnect(*server);
    // One round trip first, so the connection's thread runs and has
    // built one reply before the baseline is taken.
    ASSERT_TRUE(slow.Snapshot("t", "big").ok());
    const uint64_t before = ResidentBytes();
    BitWriter body;
    WriteString(&body, "t");
    WriteString(&body, "big");
    const std::vector<uint8_t> request =
        EncodeFrame(uint8_t(Opcode::kSnapshot), body);
    // Pipeline far more replies than the socket buffers hold, never
    // reading any of them...
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(slow.SendRaw(request).ok());
    uint64_t peak = before;
    for (int i = 0; i < 10; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      peak = std::max(peak, ResidentBytes());
    }
    // The reader stops at the reply it cannot send, so most requests are
    // never read; a reply queue would have built one for each.
    EXPECT_LT(server->registry().Stats().snapshots, 32u);
#ifndef LPS_UNDER_SANITIZER
    // Sanitizers shadow every byte and ASan quarantines freed buffers, so
    // only a plain build's resident set measures what the server holds.
    // The reply in flight holds its ~2 MiB frame alone: the snapshot blob
    // and the reply body are freed before the send (while the body is
    // being framed the two coexist, ~4 MiB). A server that holds all
    // three until the send returns grows by ~8 MiB.
    ASSERT_GT(before, 0u);
    EXPECT_LT(peak, before + (6u << 20))
        << "resident set grew by " << (peak - before) << " bytes";
#endif
    // ...then die abruptly: linger(0) turns close() into a RST, which
    // is what makes the server's in-flight send() fail.
    const linger abort_on_close{1, 0};
    ::setsockopt(slow.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
  }

  // The accept loop (which also reaps finished connections) must still
  // serve newcomers, and Stop() must join everything without hanging.
  Client fresh = MustConnect(*server);
  EXPECT_TRUE(fresh.Stats().ok());
  server->Stop();
}

/// This process's threads, from /proc/self/task (0 without procfs).
size_t ThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// Each connection is served by exactly one thread, which reads its
// requests and sends its own replies.
TEST(ServerTest, OneThreadPerConnection) {
  auto server = MustStart();
  const size_t before = ThreadCount();
  if (before == 0) GTEST_SKIP() << "/proc/self/task unavailable";
  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(MustConnect(*server));
    ASSERT_TRUE(clients.back().Stats().ok());
  }
  EXPECT_EQ(ThreadCount(), before + 8);
  server->Stop();
}

TEST(ServerTest, StreamedIngestMatchesRpcIngestBitForBit) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Create("rpc", "s", HeavyConfig(7)).ok());
  ASSERT_TRUE(client.Create("stream", "s", HeavyConfig(7)).ok());

  const std::vector<stream::Update> updates = TenantStream(3, 4096);
  constexpr size_t kBatch = 257;  // odd size: exercise the partial tail
  uint64_t total = 0;
  for (size_t at = 0; at < updates.size(); at += kBatch) {
    const size_t take = std::min(kBatch, updates.size() - at);
    const std::vector<stream::Update> batch(updates.begin() + at,
                                            updates.begin() + at + take);
    const auto seen = client.Ingest("rpc", "s", batch);
    ASSERT_TRUE(seen.ok()) << seen.status().ToString();
    // The whole run goes on the wire before the single sync below reads
    // anything back — that pipelining is the point of the opcode.
    ASSERT_TRUE(client.StreamIngest("stream", "s", batch).ok());
    total += take;
  }
  const auto ack = client.StreamSync();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->count, total);
  EXPECT_EQ(ack->updates_seen, total);

  const auto rpc_snap = client.Snapshot("rpc", "s");
  const auto stream_snap = client.Snapshot("stream", "s");
  ASSERT_TRUE(rpc_snap.ok() && stream_snap.ok());
  EXPECT_EQ(stream_snap->updates_seen, rpc_snap->updates_seen);
  EXPECT_EQ(stream_snap->state_bits, rpc_snap->state_bits);
  EXPECT_EQ(stream_snap->state_words, rpc_snap->state_words);
  server->Stop();
}

TEST(ServerTest, StreamErrorsDeferToTheSyncAndResetTheRun) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Create("a", "s", HeavyConfig(1)).ok());

  // An entire run against a stream that doesn't exist: every frame is
  // swallowed silently, the one sync carries the first error.
  ASSERT_TRUE(client.StreamIngest("nobody", "s", TenantStream(0, 32)).ok());
  ASSERT_TRUE(client.StreamIngest("nobody", "s", TenantStream(0, 32)).ok());
  const auto missing = client.StreamSync();
  EXPECT_FALSE(missing.ok());

  // The first failure poisons the run: the valid prefix is applied, the
  // poisoning batch and everything after it are decoded but dropped.
  const std::vector<stream::Update> good = TenantStream(0, 64);
  const std::vector<stream::Update> hostile = {{kN + 5, 1}};
  ASSERT_TRUE(client.StreamIngest("a", "s", good).ok());
  ASSERT_TRUE(client.StreamIngest("a", "s", hostile).ok());
  ASSERT_TRUE(client.StreamIngest("a", "s", good).ok());
  const auto poisoned = client.StreamSync();
  EXPECT_FALSE(poisoned.ok());
  const auto snap = client.Snapshot("a", "s");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->updates_seen, good.size());

  // The sync reset the run state, so the connection starts clean.
  ASSERT_TRUE(client.StreamIngest("a", "s", good).ok());
  const auto clean = client.StreamSync();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->count, good.size());
  EXPECT_EQ(clean->updates_seen, 2 * good.size());
  server->Stop();
}

TEST(ServerTest, MalformedStreamBodyIsDeferredNotFatal) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Create("a", "s", HeavyConfig(1)).ok());

  // A well-framed INGEST_STREAM whose 64-bit body is garbage: like any
  // stream frame it gets NO reply — the decode failure is deferred to
  // the sync and the frame boundary stays sound.
  std::vector<uint8_t> frame = {17, 0, 0, 0,
                                uint8_t(Opcode::kIngestStream),
                                64, 0,  0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 8; ++i) frame.push_back(0xFF);
  ASSERT_TRUE(client.SendRaw(frame).ok());
  const auto sync = client.StreamSync();
  EXPECT_FALSE(sync.ok());
  EXPECT_NE(sync.status().ToString().find("malformed"), std::string::npos)
      << sync.status().ToString();

  // Same connection, next run: clean.
  const std::vector<stream::Update> good = TenantStream(0, 48);
  ASSERT_TRUE(client.StreamIngest("a", "s", good).ok());
  const auto ack = client.StreamSync();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->count, good.size());
  server->Stop();
}

TEST(ServerTest, DropForgetsOnlyTheNamedStream) {
  auto server = MustStart();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Create("a", "one", HeavyConfig(1)).ok());
  ASSERT_TRUE(client.Create("a", "two", HeavyConfig(2)).ok());
  ASSERT_TRUE(client.Create("b", "one", HeavyConfig(3)).ok());
  ASSERT_TRUE(client.Drop("a", "one").ok());
  EXPECT_FALSE(client.Query("a", "one").ok());
  EXPECT_TRUE(client.Query("a", "two").ok());
  EXPECT_TRUE(client.Query("b", "one").ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tenants, 2u);
  server->Stop();
}

}  // namespace
}  // namespace lps::server
