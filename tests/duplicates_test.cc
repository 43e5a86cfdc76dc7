#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/duplicates/positive_finder.h"
#include "src/stream/generators.h"
#include "src/util/serialize.h"

namespace lps::duplicates {
namespace {

bool IsDuplicate(const stream::LetterStream& letters, uint64_t letter) {
  int count = 0;
  for (uint64_t l : letters) count += (l == letter);
  return count >= 2;
}

TEST(DuplicateFinder, FindsPlantedDuplicate) {
  const uint64_t n = 256;
  int found = 0, wrong = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const auto letters =
        stream::DuplicateStream(n, 1, static_cast<uint64_t>(trial));
    DuplicateFinder finder({n, 0.2, 0, 1000 + static_cast<uint64_t>(trial)});
    for (uint64_t l : letters) finder.ProcessItem(l);
    auto res = finder.Find();
    if (res.ok()) {
      ++found;
      if (!IsDuplicate(letters, res.value())) ++wrong;
    }
  }
  EXPECT_GE(found, trials * 3 / 4);
  EXPECT_EQ(wrong, 0);  // wrong answers are low-probability events
}

TEST(DuplicateFinder, ManyDuplicatesEasier) {
  const uint64_t n = 256;
  int found = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const auto letters =
        stream::DuplicateStream(n, 64, static_cast<uint64_t>(trial));
    DuplicateFinder finder({n, 0.2, 0, 2000 + static_cast<uint64_t>(trial)});
    for (uint64_t l : letters) finder.ProcessItem(l);
    auto res = finder.Find();
    if (res.ok() && IsDuplicate(letters, res.value())) ++found;
  }
  EXPECT_GE(found, trials - 3);
}

TEST(SparseDuplicateFinder, CertifiesNoDuplicate) {
  // Duplicate-free streams of length n - s: NO-DUPLICATE with probability 1
  // (the certificate comes from exact sparse recovery).
  const uint64_t n = 512, s = 20;
  for (uint64_t trial = 0; trial < 15; ++trial) {
    const auto letters = stream::ShortStreamWithDuplicates(n, s, 0, trial);
    SparseDuplicateFinder finder({n, s, 0.25, 0, 3000 + trial});
    for (uint64_t l : letters) finder.ProcessItem(l);
    const auto outcome = finder.Find();
    EXPECT_EQ(outcome.kind, SparseDuplicateFinder::Kind::kNoDuplicate);
    EXPECT_TRUE(outcome.exact);
  }
}

TEST(SparseDuplicateFinder, FindsSparseDuplicatesExactly) {
  // Few duplicates: x stays 5s-sparse, recovery answers exactly.
  const uint64_t n = 512, s = 20;
  for (uint64_t trial = 0; trial < 15; ++trial) {
    const auto letters = stream::ShortStreamWithDuplicates(n, s, 3, trial);
    SparseDuplicateFinder finder({n, s, 0.25, 0, 4000 + trial});
    for (uint64_t l : letters) finder.ProcessItem(l);
    const auto outcome = finder.Find();
    ASSERT_EQ(outcome.kind, SparseDuplicateFinder::Kind::kDuplicate);
    EXPECT_TRUE(outcome.exact);
    EXPECT_TRUE(IsDuplicate(letters, outcome.duplicate));
  }
}

TEST(SparseDuplicateFinder, DenseCaseFallsBackToSampler) {
  // Many duplicates blow the 5s recovery budget; the sampler path must
  // still find one with good probability and never report NO-DUPLICATE.
  const uint64_t n = 512, s = 4;
  int found = 0;
  const int trials = 25;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    const auto letters = stream::ShortStreamWithDuplicates(n, s, 120, trial);
    SparseDuplicateFinder finder({n, s, 0.2, 0, 5000 + trial});
    for (uint64_t l : letters) finder.ProcessItem(l);
    const auto outcome = finder.Find();
    ASSERT_NE(outcome.kind, SparseDuplicateFinder::Kind::kNoDuplicate);
    if (outcome.kind == SparseDuplicateFinder::Kind::kDuplicate) {
      EXPECT_FALSE(outcome.exact);
      EXPECT_TRUE(IsDuplicate(letters, outcome.duplicate));
      ++found;
    }
  }
  EXPECT_GE(found, trials * 2 / 3);
}

std::vector<uint64_t> StateWords(const LinearSketch& sketch) {
  BitWriter writer;
  sketch.Serialize(&writer);
  return writer.words();
}

TEST(DuplicateFinder, FreshStateIsTheReductionsInitialization) {
  // A fresh finder's counters are the sketch of x = (-1, ..., -1): exactly
  // what an L1 sampler fed (i, -1) for every i holds. The sizes put the
  // end of the init feed inside, on and just past a 4096-update chunk.
  for (const uint64_t n : {1, 4095, 4096, 4097, 9000}) {
    SCOPED_TRACE(n);
    const DuplicateFinder finder(DuplicateFinder::Params{n, 0.25, 4, 31});
    core::LpSamplerParams params;
    params.n = n;
    params.p = 1.0;
    params.eps = 0.5;
    params.delta = 0.25;
    params.repetitions = 4;
    params.seed = 31;
    core::LpSampler direct(params);
    stream::UpdateStream init;
    for (uint64_t i = 0; i < n; ++i) init.push_back({i, -1});
    direct.UpdateBatch(init.data(), init.size());
    BitWriter want, got;
    direct.SerializeCounters(&want);
    finder.SerializeCounters(&got);
    EXPECT_EQ(want.words(), got.words());
  }
}

TEST(DuplicateFinder, ConcurrentConstructionIsBitIdentical) {
  // Same-params finders built at once on four threads share one init
  // sketch through the process-wide cache and must hold identical state;
  // so must a finder built after they are gone, when the cache rebuilds.
  DuplicateFinder::Params dense{6000, 0.25, 4, 32};
  SparseDuplicateFinder::Params sparse;
  sparse.n = 6000;
  sparse.s = 8;
  sparse.repetitions = 4;
  sparse.seed = 33;
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> dense_words(kThreads);
  std::vector<std::vector<uint64_t>> sparse_words(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const DuplicateFinder finder(dense);
      const SparseDuplicateFinder sparse_finder(sparse);
      dense_words[static_cast<size_t>(t)] = StateWords(finder);
      sparse_words[static_cast<size_t>(t)] = StateWords(sparse_finder);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto dense_after = StateWords(DuplicateFinder(dense));
  const auto sparse_after = StateWords(SparseDuplicateFinder(sparse));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dense_words[static_cast<size_t>(t)], dense_after) << t;
    EXPECT_EQ(sparse_words[static_cast<size_t>(t)], sparse_after) << t;
  }
}

TEST(DuplicateFinder, InitSketchDoesNotDependOnTheCpuCount) {
  // The init feed runs its parts on one pinned helper per other CPU the
  // building thread may use. A thread allowed one CPU builds it with no
  // helpers; no finder outlives it, so the unrestricted build after it
  // feeds the init sketch again, and must land on the same state.
  const DuplicateFinder::Params params{9000, 0.25, 4, 34};
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  std::vector<uint64_t> one_cpu;
  std::thread pinned([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
    one_cpu = StateWords(DuplicateFinder(params));
  });
  pinned.join();
  ASSERT_FALSE(one_cpu.empty());
  EXPECT_EQ(one_cpu, StateWords(DuplicateFinder(params)));
}

TEST(OversampledDuplicateFinder, PicksStrategyByCrossover) {
  // n/s < log2 n -> position sampling; n/s >= log2 n -> L1 sampler.
  OversampledDuplicateFinder heavy_overlap({1024, 512, 0.25, 0, 1, 0});
  EXPECT_EQ(heavy_overlap.strategy(),
            OversampledDuplicateFinder::Strategy::kPositionSampling);
  OversampledDuplicateFinder light_overlap({1024, 2, 0.25, 0, 1, 0});
  EXPECT_EQ(light_overlap.strategy(),
            OversampledDuplicateFinder::Strategy::kL1Sampler);
}

TEST(OversampledDuplicateFinder, PositionSamplingFindsDuplicates) {
  const uint64_t n = 1024, s = 256;  // length n + s, many duplicates
  int found = 0, wrong = 0;
  const int trials = 40;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    const auto letters = stream::DuplicateStream(n, s, trial);
    OversampledDuplicateFinder finder({n, s, 0.25, 0, 6000 + trial, 1});
    for (uint64_t l : letters) finder.ProcessItem(l);
    auto res = finder.Find();
    if (res.ok()) {
      ++found;
      if (!IsDuplicate(letters, res.value())) ++wrong;
    }
  }
  EXPECT_GE(found, trials * 3 / 5);  // >= 1 - (1 - s/(n+s))^{4 ceil(n/s)}
  EXPECT_EQ(wrong, 0);
}

TEST(OversampledDuplicateFinder, L1StrategyHandlesSmallS) {
  const uint64_t n = 256, s = 1;
  int found = 0;
  const int trials = 25;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    const auto letters = stream::DuplicateStream(n, s, trial);
    OversampledDuplicateFinder finder({n, s, 0.2, 0, 7000 + trial, 0});
    EXPECT_EQ(finder.strategy(),
              OversampledDuplicateFinder::Strategy::kL1Sampler);
    for (uint64_t l : letters) finder.ProcessItem(l);
    auto res = finder.Find();
    if (res.ok() && IsDuplicate(letters, res.value())) ++found;
  }
  EXPECT_GE(found, trials * 3 / 5);
}

TEST(PositiveFinder, NegativeDeficitAlwaysHasPositive) {
  // sum x_i = +3 (deficit -3): a positive coordinate exists and the finder
  // locates one with good probability.
  const uint64_t n = 256;
  int found = 0;
  const int trials = 30;
  for (uint64_t trial = 0; trial < trials; ++trial) {
    PositiveFinder finder({n, 4, 0.2, 0, 8000 + trial});
    for (uint64_t i = 0; i < 100; ++i) finder.Update(i, -1);
    finder.Update(200, 60);
    finder.Update(201, 43);
    EXPECT_EQ(finder.Deficit(), -3);
    const auto outcome = finder.Find();
    if (outcome.kind == PositiveFinder::Kind::kFound) {
      EXPECT_TRUE(outcome.index == 200 || outcome.index == 201);
      ++found;
    }
  }
  EXPECT_GE(found, trials * 3 / 4);
}

TEST(PositiveFinder, CertifiesAllNonPositive) {
  const uint64_t n = 256;
  PositiveFinder finder({n, 4, 0.25, 0, 11});
  finder.Update(3, -5);
  finder.Update(90, -1);
  const auto outcome = finder.Find();
  EXPECT_EQ(outcome.kind, PositiveFinder::Kind::kNone);
}

TEST(PositiveFinder, SparsePositiveFoundExactly) {
  const uint64_t n = 256;
  PositiveFinder finder({n, 4, 0.25, 0, 12});
  finder.Update(3, -5);
  finder.Update(17, 2);
  const auto outcome = finder.Find();
  ASSERT_EQ(outcome.kind, PositiveFinder::Kind::kFound);
  EXPECT_EQ(outcome.index, 17u);
}

}  // namespace
}  // namespace lps::duplicates
