#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/recovery/one_sparse.h"
#include "src/recovery/sparse_recovery.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace lps::recovery {
namespace {

TEST(OneSparse, DetectsZero) {
  OneSparse d(1000, 1);
  EXPECT_TRUE(d.IsZero());
  d.Update(5, 7);
  EXPECT_FALSE(d.IsZero());
  d.Update(5, -7);
  EXPECT_TRUE(d.IsZero());
}

TEST(OneSparse, RecoversSingleton) {
  OneSparse d(1000, 2);
  d.Update(123, -9);
  auto r = d.Recover();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().index, 123u);
  EXPECT_EQ(r.value().value, -9);
}

TEST(OneSparse, AccumulatesUpdatesToOneCoordinate) {
  OneSparse d(1000, 3);
  d.Update(77, 5);
  d.Update(77, -2);
  d.Update(77, 4);
  auto r = d.Recover();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().index, 77u);
  EXPECT_EQ(r.value().value, 7);
}

TEST(OneSparse, RejectsTwoSparse) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    OneSparse d(1000, seed);
    d.Update(3, 1);
    d.Update(800, 1);
    EXPECT_FALSE(d.Recover().ok()) << "seed " << seed;
  }
}

TEST(OneSparse, RejectsAdversarialCancellation) {
  // s0 = 0 but vector non-zero.
  OneSparse d(1000, 4);
  d.Update(10, 5);
  d.Update(20, -5);
  EXPECT_FALSE(d.IsZero());
  EXPECT_FALSE(d.Recover().ok());
}

TEST(OneSparse, SerializeRoundTrip) {
  OneSparse a(100, 5);
  a.Update(42, 13);
  BitWriter w;
  a.SerializeCounters(&w);
  EXPECT_EQ(w.bit_count(), 3u * 61);
  OneSparse b(100, 5);
  BitReader r(w);
  b.DeserializeCounters(&r);
  auto rec = b.Recover();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().index, 42u);
}

TEST(SparseRecovery, ZeroVector) {
  SparseRecovery rec(1000, 4, 1);
  EXPECT_TRUE(rec.IsZero());
  auto r = rec.Recover();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(SparseRecovery, CancellingUpdatesAreZero) {
  SparseRecovery rec(1000, 4, 2);
  rec.Update(5, 10);
  rec.Update(900, -3);
  rec.Update(5, -10);
  rec.Update(900, 3);
  EXPECT_TRUE(rec.IsZero());
  EXPECT_TRUE(rec.Recover().value().empty());
}

TEST(SparseRecovery, ExactRecoveryWithNegativeValues) {
  SparseRecovery rec(1 << 20, 5, 3);
  rec.Update(0, -1);          // boundary coordinate
  rec.Update((1 << 20) - 1, 7);  // boundary coordinate
  rec.Update(31337, 100000);
  auto r = rec.Recover();
  ASSERT_TRUE(r.ok());
  const auto& v = r.value();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].index, 0u);
  EXPECT_EQ(v[0].value, -1);
  EXPECT_EQ(v[1].index, 31337u);
  EXPECT_EQ(v[1].value, 100000);
  EXPECT_EQ(v[2].index, (1u << 20) - 1);
  EXPECT_EQ(v[2].value, 7);
}

TEST(SparseRecovery, DenseDetection) {
  // 4x the sparsity budget: must report DENSE, never a wrong vector.
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SparseRecovery rec(4096, 4, 100 + seed);
    Rng rng(seed);
    for (int j = 0; j < 16; ++j) {
      const int64_t delta = 1 + static_cast<int64_t>(rng.Below(5));
      const uint64_t i = rng.Below(4096);
      rec.Update(i, delta);
    }
    EXPECT_TRUE(rec.Recover().status().IsDense()) << "seed " << seed;
  }
}

TEST(SparseRecovery, BoundaryExactlyAtBudget) {
  // Exactly s non-zeros: still probability-1 exact.
  const uint64_t s = 8;
  SparseRecovery rec(10000, s, 4);
  stream::ExactVector x(10000);
  Rng rng(5);
  for (uint64_t j = 0; j < s; ++j) {
    const uint64_t i = 1000 + 17 * j;
    const int64_t v = static_cast<int64_t>(j) - 4 >= 0
                          ? static_cast<int64_t>(j + 1)
                          : -static_cast<int64_t>(j + 1);
    rec.Update(i, v);
    x.Apply({i, v});
  }
  auto r = rec.Recover();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), s);
  for (const auto& e : r.value()) {
    EXPECT_EQ(e.value, x[e.index]);
  }
}

TEST(SparseRecovery, OneOverBudgetIsDense) {
  const uint64_t s = 8;
  SparseRecovery rec(10000, s, 6);
  for (uint64_t j = 0; j <= s; ++j) rec.Update(100 * (j + 1), 1);
  EXPECT_TRUE(rec.Recover().status().IsDense());
}

TEST(SparseRecovery, SerializeRoundTrip) {
  SparseRecovery a(512, 3, 7);
  a.Update(100, 42);
  a.Update(200, -17);
  BitWriter w;
  a.SerializeCounters(&w);
  EXPECT_EQ(w.bit_count(), (2u * 3 + 2) * 61);
  SparseRecovery b(512, 3, 7);
  BitReader r(w);
  b.DeserializeCounters(&r);
  auto rec = b.Recover();
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().size(), 2u);
  EXPECT_EQ(rec.value()[0].value, 42);
  EXPECT_EQ(rec.value()[1].value, -17);
}

TEST(SparseRecovery, LinearityAcrossParties) {
  // Bob deserializes Alice's measurements and subtracts his own vector:
  // recovery yields the difference (the UR protocol's core step).
  SparseRecovery alice(2048, 6, 8);
  alice.Update(10, 1);
  alice.Update(500, 1);
  alice.Update(700, 1);
  BitWriter w;
  alice.SerializeCounters(&w);
  SparseRecovery bob(2048, 6, 8);
  BitReader r(w);
  bob.DeserializeCounters(&r);
  bob.Update(10, -1);   // shared coordinate cancels
  bob.Update(900, -1);  // bob-only coordinate
  auto rec = bob.Recover();
  ASSERT_TRUE(rec.ok());
  const auto& v = rec.value();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].index, 500u);
  EXPECT_EQ(v[0].value, 1);
  EXPECT_EQ(v[2].index, 900u);
  EXPECT_EQ(v[2].value, -1);
}

TEST(SparseRecovery, SpaceBitsMatchesLemma5Shape) {
  // O(s log n): (2s + 2) field elements + 2 seeds.
  SparseRecovery rec(1 << 16, 10, 9);
  EXPECT_EQ(rec.SpaceBits(), (2u * 10 + 2) * 61 + 2 * 64);
}

// Property sweep: random s-sparse vectors recovered exactly for every
// (sparsity, universe) combination — Lemma 5's probability-1 claim.
class SparseRecoveryProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparseRecoveryProperty, RandomSparseVectorsRecoverExactly) {
  const int s = std::get<0>(GetParam());
  const int log_n = std::get<1>(GetParam());
  const uint64_t n = 1ULL << log_n;
  for (uint64_t trial = 0; trial < 5; ++trial) {
    const uint64_t seed = 1000 * static_cast<uint64_t>(s) + trial;
    const auto stream =
        stream::SparseVector(n, static_cast<uint64_t>(s), 1 << 20, seed);
    stream::ExactVector x(n);
    x.Apply(stream);
    SparseRecovery rec(n, static_cast<uint64_t>(s), seed);
    for (const auto& u : stream) rec.Update(u.index, u.delta);
    auto r = rec.Recover();
    ASSERT_TRUE(r.ok()) << "s=" << s << " log_n=" << log_n;
    ASSERT_EQ(r.value().size(), x.L0());
    for (const auto& e : r.value()) {
      EXPECT_EQ(e.value, x[e.index]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseRecoveryProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32, 64),
                       ::testing::Values(8, 12, 16, 20)));

}  // namespace
}  // namespace lps::recovery
