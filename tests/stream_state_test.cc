// The seal rule of stream::StreamState (src/stream/stream_state.h),
// pinned in one place: one stream pushed through every combination of
// push chunking, ingestion topology and windowing must land on the same
// sketch state and the same window checkpoints as a solo WindowManager,
// with pipeline epochs (and the epoch hook) closing at exactly the
// multiples of the interval. count_min and cm_heavy_hitters (which sums
// each batch's repeated keys before hashing) are all-integer arithmetic,
// so "the same" means bit-identical serialized state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/lps.h"

namespace lps {
namespace {

using stream::StreamState;
using stream::Update;
using stream::UpdateStream;
using stream::WindowManager;

constexpr uint64_t kN = 1 << 12;
constexpr uint64_t kInterval = 256;
// 19 full epochs plus a 136-update tail; longer than the 4096 chunking.
constexpr size_t kUpdates = 5000;

struct Topology {
  const char* name;
  int shards;
  int threads;
};
constexpr Topology kTopologies[] = {{"inline", 1, 0},
                                    {"4 shards, 0 threads", 4, 0},
                                    {"4 shards, 2 threads", 4, 2}};

SketchSpec CountMinSpec() {
  SketchSpec spec;
  spec.kind = SketchKind::kCountMin;
  spec.n = kN;
  spec.rows = 4;
  spec.buckets = 64;
  spec.seed = 31;
  return spec;
}

SketchSpec CmHeavyHittersSpec() {
  SketchSpec spec;
  spec.kind = SketchKind::kCmHeavyHitters;
  spec.n = kN;
  spec.phi = 0.05;
  spec.seed = 37;
  return spec;
}

struct State {
  std::vector<uint64_t> words;
  size_t bits = 0;
  bool operator==(const State& other) const {
    return bits == other.bits && words == other.words;
  }
};

State StateOf(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return {writer.words(), writer.bit_count()};
}

/// Every checkpoint position of `wm`, ascending. The start of the window
/// reaching back to just before checkpoint p is the newest checkpoint
/// below p, so one materialization per checkpoint walks them all.
std::vector<uint64_t> CheckpointPositions(const WindowManager& wm) {
  std::vector<uint64_t> positions;
  uint64_t w = 0;
  for (;;) {
    const uint64_t start = wm.WindowSketch(w).start;
    positions.push_back(start);
    if (start == wm.oldest_start()) break;
    w = wm.updates_seen() - start + 1;
  }
  std::reverse(positions.begin(), positions.end());
  return positions;
}

StreamState::Options OptionsFor(const Topology& topology, bool windowed) {
  StreamState::Options options;
  options.shards = topology.shards;
  options.threads = topology.threads;
  if (windowed) {
    options.window_checkpoint = kInterval;
  } else {
    options.epoch_interval = kInterval;
  }
  return options;
}

std::unique_ptr<StreamState> MustCreate(
    const StreamState::Options& options,
    const SketchSpec& spec = CountMinSpec()) {
  auto built = StreamState::Create(spec, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built.value()) : nullptr;
}

Status PushChunked(StreamState* state, const UpdateStream& updates,
                   size_t chunk) {
  for (size_t done = 0; done < updates.size(); done += chunk) {
    const size_t take = std::min(chunk, updates.size() - done);
    const Status pushed = state->Push(updates.data() + done, take);
    if (!pushed.ok()) return pushed;
  }
  return Status::OK();
}

TEST(StreamState, EveryChunkingAndTopologyMatchesSolo) {
  const UpdateStream updates =
      stream::UniformTurnstile(kN, kUpdates, /*max_abs_delta=*/50, 32);
  for (const SketchSpec& spec : {CountMinSpec(), CmHeavyHittersSpec()}) {
    SCOPED_TRACE(SketchKindName(spec.kind));
    // Solo reference: one sketch, one WindowManager, and the prefix state
    // at every epoch boundary.
    auto solo = MakeSketch(spec);
    WindowManager solo_wm(solo.get(), {kInterval, 0});
    std::vector<State> solo_prefix;
    for (size_t done = 0; done < updates.size(); done += kInterval) {
      const size_t take = std::min<size_t>(kInterval, updates.size() - done);
      solo_wm.PushBatch(updates.data() + done, take);
      if (take == kInterval) solo_prefix.push_back(StateOf(*solo));
    }
    const State solo_state = StateOf(*solo);
    const std::vector<uint64_t> solo_positions = CheckpointPositions(solo_wm);
    ASSERT_EQ(solo_positions.size(), kUpdates / kInterval + 1);

    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}, kUpdates}) {
      for (const Topology& topology : kTopologies) {
        for (const bool windowed : {false, true}) {
          for (const bool hooked : {false, true}) {
            SCOPED_TRACE(std::string(topology.name) + " chunk " +
                         std::to_string(chunk) +
                         (windowed ? " windowed" : " whole-stream") +
                         (hooked ? " hooked" : ""));
            auto state = MustCreate(OptionsFor(topology, windowed), spec);
            ASSERT_NE(state, nullptr);
            std::vector<uint64_t> fired_at;
            if (hooked) {
              // At each boundary replica 0 must already hold the prefix.
              state->set_epoch_hook([&](uint64_t count) {
                EXPECT_EQ(count, kInterval);
                const uint64_t at = state->updates_seen();
                fired_at.push_back(at);
                const size_t epoch = size_t(at / kInterval) - 1;
                EXPECT_TRUE(epoch < solo_prefix.size() &&
                            StateOf(state->sketch()) == solo_prefix[epoch])
                    << "at " << at;
                return Status::OK();
              });
            }
            ASSERT_TRUE(PushChunked(state.get(), updates, chunk).ok());
            EXPECT_EQ(state->updates_seen(), kUpdates);
            state->Quiesce();
            EXPECT_TRUE(StateOf(state->sketch()) == solo_state);
            if (hooked) {
              EXPECT_EQ(state->epoch_fill(), kUpdates % kInterval);
              std::vector<uint64_t> want;
              for (uint64_t at = kInterval; at <= kUpdates; at += kInterval) {
                want.push_back(at);
              }
              EXPECT_EQ(fired_at, want);
            }
            if (!windowed) {
              EXPECT_EQ(state->window(), nullptr);
              continue;
            }
            // A sharded stream closes its partial tail on Quiesce, adding
            // one unaligned checkpoint at the end; inline adds none.
            std::vector<uint64_t> want = solo_positions;
            if (topology.shards > 1) want.push_back(kUpdates);
            EXPECT_EQ(CheckpointPositions(*state->window()), want);
            for (const uint64_t w :
                 {uint64_t{1}, uint64_t{136}, uint64_t{137}, uint64_t{1000},
                  uint64_t{4096}, uint64_t{kUpdates}}) {
              const auto got = state->window()->WindowSketch(w);
              const auto local = solo_wm.WindowSketch(w);
              EXPECT_EQ(got.start, local.start) << "w=" << w;
              EXPECT_EQ(got.length, local.length) << "w=" << w;
              EXPECT_TRUE(StateOf(*got.sketch) == StateOf(*local.sketch))
                  << "w=" << w;
            }
          }
        }
      }
    }
  }
}

// Resident set size of this process in KiB, or -1 without procfs.
long ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(StreamState, LargeBatchRetainsBoundedScratch) {
  // A stream without a window or pipeline hands its sketch the whole
  // pushed batch. Each kind walks it in stream::kBatchChunk chunks through
  // per-thread scratch, so one 2^22-update batch leaves well under 2 MiB
  // behind; scratch sized to the batch kept 64-128 MiB.
  const UpdateStream batch =
      stream::UniformTurnstile(kN, uint64_t{1} << 22, 50, 38);
  SketchSpec count_sketch = CountMinSpec();
  count_sketch.kind = SketchKind::kCountSketch;
  SketchSpec ams;
  ams.kind = SketchKind::kAmsF2;
  ams.rows = 3;
  ams.buckets = 4;
  SketchSpec l0_estimator;
  l0_estimator.kind = SketchKind::kL0Estimator;
  l0_estimator.n = kN;
  l0_estimator.repetitions = 3;
  SketchSpec l0_sampler;
  l0_sampler.kind = SketchKind::kL0Sampler;
  l0_sampler.n = kN;
  for (const SketchSpec& spec :
       {CmHeavyHittersSpec(), CountMinSpec(), count_sketch, ams, l0_estimator,
        l0_sampler}) {
    SCOPED_TRACE(SketchKindName(spec.kind));
    auto state = MustCreate(StreamState::Options{}, spec);
    ASSERT_NE(state, nullptr);
    const long before = ResidentKiB();
    if (before < 0) GTEST_SKIP() << "VmRSS unavailable without procfs";
    ASSERT_TRUE(state->Push(batch.data(), batch.size()).ok());
    const long growth_mib = (ResidentKiB() - before) / 1024;
    EXPECT_LT(growth_mib, 2) << "retained batch scratch, MiB";
  }
}

TEST(StreamState, HookErrorStopsPushAndIsReturned) {
  const UpdateStream updates = stream::UniformTurnstile(kN, 1000, 50, 33);
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    auto state = MustCreate(OptionsFor(topology, /*windowed=*/false));
    ASSERT_NE(state, nullptr);
    int fired = 0;
    state->set_epoch_hook([&](uint64_t) {
      return ++fired == 2 ? Status::Failed("uplink down") : Status::OK();
    });
    const Status pushed = state->Push(updates.data(), updates.size());
    EXPECT_TRUE(pushed.IsFailed());
    EXPECT_EQ(pushed.message(), "uplink down");
    EXPECT_EQ(fired, 2);
    // Nothing past the failing boundary was applied.
    EXPECT_EQ(state->updates_seen(), 2 * kInterval);
  }
}

TEST(StreamState, MidEpochQuiesceAddsCheckpointOnlyWhenSharded) {
  const UpdateStream updates = stream::UniformTurnstile(kN, 600, 50, 34);
  auto solo = MakeSketch(CountMinSpec());
  WindowManager solo_wm(solo.get(), {kInterval, 0});
  solo_wm.PushBatch(updates.data(), updates.size());
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    auto state = MustCreate(OptionsFor(topology, /*windowed=*/true));
    ASSERT_NE(state, nullptr);
    ASSERT_TRUE(state->Push(updates.data(), 300).ok());
    state->Quiesce();
    ASSERT_TRUE(state->Push(updates.data() + 300, 300).ok());
    state->Quiesce();
    // The quiesce at 300 does not move the epoch schedule: 512 is still
    // a checkpoint, exactly where solo ingestion seals it.
    const bool sharded = topology.shards > 1;
    const std::vector<uint64_t> want =
        sharded ? std::vector<uint64_t>{0, 256, 300, 512, 600}
                : std::vector<uint64_t>{0, 256, 512};
    EXPECT_EQ(CheckpointPositions(*state->window()), want);
    EXPECT_TRUE(StateOf(state->sketch()) == StateOf(*solo));
    const auto got = state->window()->WindowSketch(88);
    const auto local = solo_wm.WindowSketch(88);
    EXPECT_EQ(got.start, 512u);
    EXPECT_TRUE(StateOf(*got.sketch) == StateOf(*local.sketch));
  }
}

TEST(StreamState, HostileValuesAreInvalidArgumentNotAborts) {
  StreamState::Options options;
  options.shards = 1025;
  auto built = StreamState::Create(CountMinSpec(), options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), Code::kInvalidArgument);
  options.shards = 1;
  options.threads = -1;
  built = StreamState::Create(CountMinSpec(), options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), Code::kInvalidArgument);

  // State serialized under another seed passes every header and size
  // check; restored anyway, replica 0 would not merge with its peers.
  SketchSpec foreign = CountMinSpec();
  foreign.seed = 32;
  const State lying = StateOf(*MakeSketch(foreign));
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    built = StreamState::Restore(CountMinSpec(), OptionsFor(topology, false),
                                 lying.words, lying.bits, 0);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), Code::kInvalidArgument);
  }

  // States with the spec's header, size and leading word but a later
  // parameter out of range, which a sketch constructor would CHECK-abort
  // on: count_min with buckets (the low 32 bits of word 1) = 0, and an
  // lp_sampler with p (bits 96..159) = 5.0.
  State no_buckets = StateOf(*MakeSketch(CountMinSpec()));
  no_buckets.words[1] &= ~0xffffffffull;
  SketchSpec lp;
  lp.kind = SketchKind::kLpSampler;
  lp.n = kN;
  lp.eps = 0.25;
  lp.delta = 0.2;
  lp.seed = 36;
  State big_p = StateOf(*MakeSketch(lp));
  const double five = 5.0;
  uint64_t p_bits;
  std::memcpy(&p_bits, &five, sizeof(p_bits));
  big_p.words[1] = (big_p.words[1] & 0xffffffffull) | (p_bits << 32);
  big_p.words[2] = (big_p.words[2] & ~0xffffffffull) | (p_bits >> 32);
  const std::pair<SketchSpec, State> out_of_range[] = {
      {CountMinSpec(), no_buckets}, {lp, big_p}};
  for (const auto& [spec, state] : out_of_range) {
    for (const Topology& topology : kTopologies) {
      SCOPED_TRACE(std::string(SketchKindName(spec.kind)) + ", " +
                   topology.name);
      built = StreamState::Restore(spec, OptionsFor(topology, false),
                                   state.words, state.bits, 0);
      ASSERT_FALSE(built.ok());
      EXPECT_EQ(built.status().code(), Code::kInvalidArgument);
    }
  }

  // The L0 sampler CHECKs index < n on every update.
  SketchSpec l0;
  l0.kind = SketchKind::kL0Sampler;
  l0.n = kN;
  l0.seed = 35;
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    auto state = StreamState::Create(l0, OptionsFor(topology, true));
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    const Update batch[] = {{5, 1}, {kN, 1}};
    const Status pushed = state.value()->Push(batch, 2);
    EXPECT_EQ(pushed.code(), Code::kInvalidArgument);
    EXPECT_EQ(state.value()->updates_seen(), 0u);
  }
}

}  // namespace
}  // namespace lps
