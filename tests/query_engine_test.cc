// Exact-equivalence tests for the candidate-driven query engine: the
// dyadic-candidate paths behind LpSamplerRound::Recover,
// CsHeavyHitters::Query, and CmHeavyHitters::Query must return the same
// results as the retained full-universe reference oracles
// (CountSketch::EstimateAll / TopM(n, m), RecoverReference, QueryOracle)
// — across strict and general streams, after Merge, after a
// Serialize/Deserialize round trip, and on degenerate inputs. All inputs
// are seeded, so every assertion here is deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/lp_sampler.h"
#include "src/duplicates/duplicates.h"
#include "src/heavy/heavy_hitters.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/dyadic.h"
#include "src/stream/generators.h"
#include "src/stream/update.h"
#include "src/util/serialize.h"

namespace lps {
namespace {

using stream::UpdateStream;

UpdateStream StrictStream(uint64_t n, uint64_t seed) {
  UpdateStream stream = stream::PlantedHeavyHitters(n, 3, 400, 120, false,
                                                    seed);
  return stream;
}

UpdateStream GeneralStream(uint64_t n, uint64_t seed) {
  return stream::PlantedHeavyHitters(n, 3, 400, 120, true, seed);
}

// ---------------------------------------------------------------------------
// CountSketch::TopM(candidates, m) vs the TopM(n, m) oracle.

TEST(CandidateTopM, FullUniverseCandidatesMatchOracleExactly) {
  const uint64_t n = 512;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& stream :
         {StrictStream(n, seed), GeneralStream(n, 10 + seed)}) {
      sketch::CountSketch cs(9, 48, 100 + seed);
      cs.UpdateBatch(stream.data(), stream.size());
      std::vector<uint64_t> all(n);
      for (uint64_t i = 0; i < n; ++i) all[i] = i;
      for (uint64_t m : {1u, 4u, 16u}) {
        const auto oracle = cs.TopM(n, m);
        const auto candidate = cs.TopM(all, m);
        ASSERT_EQ(oracle.size(), candidate.size());
        for (size_t r = 0; r < oracle.size(); ++r) {
          EXPECT_EQ(oracle[r].first, candidate[r].first) << "rank " << r;
          EXPECT_DOUBLE_EQ(oracle[r].second, candidate[r].second);
        }
      }
    }
  }
}

TEST(CandidateTopM, SupersetCandidatesAndDuplicatesAreHarmless) {
  const uint64_t n = 256;
  sketch::CountSketch cs(9, 48, 7);
  const auto stream = StrictStream(n, 4);
  cs.UpdateBatch(stream.data(), stream.size());
  const auto oracle = cs.TopM(n, 4);
  // Candidates: the true top 4 plus noise coordinates, with duplicates.
  std::vector<uint64_t> candidates;
  for (const auto& [i, est] : oracle) candidates.push_back(i);
  for (uint64_t i = 0; i < 32; ++i) candidates.push_back(i);
  for (const auto& [i, est] : oracle) candidates.push_back(i);  // dups
  const auto got = cs.TopM(candidates, 4);
  ASSERT_EQ(got.size(), oracle.size());
  for (size_t r = 0; r < oracle.size(); ++r) {
    EXPECT_EQ(got[r].first, oracle[r].first);
    EXPECT_DOUBLE_EQ(got[r].second, oracle[r].second);
  }
}

TEST(CandidateTopM, DegenerateUniverses) {
  // n <= m: every coordinate is returned, in oracle order.
  sketch::CountSketch cs(5, 12, 9);
  cs.Update(2, 10.0);
  cs.Update(0, -3.0);
  std::vector<uint64_t> all = {0, 1, 2, 3};
  const auto oracle = cs.TopM(4, 16);
  const auto candidate = cs.TopM(all, 16);
  ASSERT_EQ(oracle.size(), candidate.size());
  for (size_t r = 0; r < oracle.size(); ++r) {
    EXPECT_EQ(oracle[r].first, candidate[r].first);
    EXPECT_DOUBLE_EQ(oracle[r].second, candidate[r].second);
  }
  // Empty candidate list: empty result, no crash.
  EXPECT_TRUE(cs.TopM(std::vector<uint64_t>{}, 4).empty());
}

// ---------------------------------------------------------------------------
// LpSamplerRound::Recover vs RecoverReference.

void ExpectSameRecovery(const core::LpSamplerRound& round, double r,
                        const char* what) {
  const auto fast = round.Recover(r);
  const auto oracle = round.RecoverReference(r);
  ASSERT_EQ(fast.ok(), oracle.ok()) << what;
  if (fast.ok()) {
    EXPECT_EQ(fast.value().index, oracle.value().index) << what;
    EXPECT_DOUBLE_EQ(fast.value().estimate, oracle.value().estimate) << what;
  }
  // A succeeding round never aborts on the tail test.
  if (oracle.ok()) {
    EXPECT_FALSE(round.WouldAbortOnTail(r)) << what;
  }
}

TEST(LpRecoverEquivalence, StrictAndGeneralStreams) {
  const uint64_t n = 1024;
  for (double p : {0.5, 1.0, 1.5}) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      core::LpSamplerParams params;
      params.n = n;
      params.p = p;
      params.eps = 0.25;
      params.seed = 3000 + seed;
      params.repetitions = 1;
      params = core::LpSampler::Resolve(params);
      core::LpSamplerRound round(params, 0);
      const auto stream = (seed % 2 == 0) ? StrictStream(n, 40 + seed)
                                          : GeneralStream(n, 60 + seed);
      std::vector<stream::ScaledUpdate> scaled(stream.size());
      for (size_t t = 0; t < stream.size(); ++t) {
        scaled[t] = {stream[t].index, static_cast<double>(stream[t].delta)};
      }
      round.UpdateBatch(scaled.data(), scaled.size());
      // A plausible norm estimate r: within [||x||_p, 2 ||x||_p].
      double norm_p = 0;
      {
        std::vector<double> x(n, 0);
        for (const auto& u : stream) {
          x[u.index] += static_cast<double>(u.delta);
        }
        for (double v : x) norm_p += std::pow(std::abs(v), p);
        norm_p = std::pow(norm_p, 1 / p);
      }
      ExpectSameRecovery(round, 1.3 * norm_p, "stream recovery");
    }
  }
}

TEST(LpRecoverEquivalence, SingleCoordinateAndZeroVector) {
  core::LpSamplerParams params;
  params.n = 4096;
  params.p = 1.0;
  params.eps = 0.25;
  params.seed = 71;
  params.repetitions = 1;
  params = core::LpSampler::Resolve(params);

  core::LpSamplerRound zero(params, 0);
  ExpectSameRecovery(zero, 1.0, "zero vector");

  // Single-coordinate vector: every round agrees with the oracle, and the
  // rounds that do succeed (per-round success is only Theta(eps)) must
  // return the planted coordinate.
  int successes = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    auto p = params;
    p.seed = 400 + seed;
    p = core::LpSampler::Resolve(p);
    core::LpSamplerRound single(p, 0);
    single.Update(1234, 42.0);
    ExpectSameRecovery(single, 42.0, "single coordinate");
    const auto res = single.Recover(42.0);
    if (res.ok()) {
      ++successes;
      EXPECT_EQ(res.value().index, 1234u);
    }
  }
  EXPECT_GE(successes, 1);
}

TEST(LpRecoverEquivalence, TinyUniverseSmallerThanM) {
  core::LpSamplerParams params;
  params.n = 4;  // n < m: the beam covers the whole universe
  params.p = 1.0;
  params.eps = 0.25;
  params.seed = 77;
  params.repetitions = 1;
  params = core::LpSampler::Resolve(params);
  core::LpSamplerRound round(params, 0);
  round.Update(3, 9.0);
  round.Update(1, -2.0);
  ExpectSameRecovery(round, 11.0, "n < m");
}

TEST(LpRecoverEquivalence, PostMergeAndPostDeserialize) {
  const uint64_t n = 2048;
  core::LpSamplerParams params;
  params.n = n;
  params.p = 1.0;
  params.eps = 0.25;
  params.seed = 91;
  params.repetitions = 4;
  const auto stream = GeneralStream(n, 17);

  // Two shard replicas over a split stream, merged.
  core::LpSampler a(params), b(params);
  const size_t half = stream.size() / 2;
  a.UpdateBatch(stream.data(), half);
  b.UpdateBatch(stream.data() + half, stream.size() - half);
  a.Merge(b);
  const double r = a.NormEstimate();
  for (int v = 0; v < a.repetitions(); ++v) {
    ExpectSameRecovery(a.round(v), r, "post-merge round");
  }

  // Serialize the merged state and restore into a fresh instance.
  BitWriter w;
  a.Serialize(&w);
  core::LpSamplerParams dummy;
  dummy.n = 1;
  dummy.repetitions = 1;
  core::LpSampler restored(dummy);
  BitReader reader(w);
  restored.Deserialize(&reader);
  for (int v = 0; v < restored.repetitions(); ++v) {
    ExpectSameRecovery(restored.round(v), r, "post-deserialize round");
  }
  const auto sa = a.Sample();
  const auto sb = restored.Sample();
  ASSERT_EQ(sa.ok(), sb.ok());
  if (sa.ok()) {
    EXPECT_EQ(sa.value().index, sb.value().index);
    EXPECT_DOUBLE_EQ(sa.value().estimate, sb.value().estimate);
  }
}

// ---------------------------------------------------------------------------
// The rounds' cached recovery snapshots: every counter mutation drops them,
// every read-only walk keeps them.

// Fills every round's cache (Sample stops at the first success) and
// returns the norm estimate it used.
double FillCaches(const core::LpSampler& sampler) {
  sampler.Sample();
  const double r = sampler.NormEstimate();
  for (int v = 0; v < sampler.repetitions(); ++v) sampler.round(v).Recover(r);
  return r;
}

void ExpectSameAnswer(const Result<core::SampleResult>& got,
                      const Result<core::SampleResult>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (got.ok()) {
    EXPECT_EQ(got.value().index, want.value().index);
    EXPECT_EQ(got.value().estimate, want.value().estimate);
  }
}

TEST(RecoveryCache, EveryCounterMutationDropsIt) {
  const uint64_t n = 2048;
  core::LpSamplerParams params;
  params.n = n;
  params.p = 1.0;
  params.eps = 0.25;
  params.seed = 91;
  params.repetitions = 4;
  const auto stream = GeneralStream(n, 17);
  core::LpSampler other(params);
  const auto other_stream = GeneralStream(n, 18);
  other.UpdateBatch(other_stream.data(), other_stream.size());
  BitWriter state, counters;
  other.Serialize(&state);
  other.SerializeCounters(&counters);
  using Mutation = std::function<void(LinearSketch*)>;
  const std::vector<std::pair<const char*, Mutation>> sampler_mutations = {
      {"Merge", [&](LinearSketch* s) { s->Merge(other); }},
      {"MergeNegated", [&](LinearSketch* s) { s->MergeNegated(other); }},
      {"Reset", [](LinearSketch* s) { s->Reset(); }},
      {"Deserialize",
       [&](LinearSketch* s) {
         BitReader reader(state);
         s->Deserialize(&reader);
       }},
      {"DeserializeCounters", [&](LinearSketch* s) {
         BitReader reader(counters);
         s->DeserializeCounters(&reader);
       }}};
  for (const auto& [name, mutate] : sampler_mutations) {
    SCOPED_TRACE(std::string("LpSampler, ") + name);
    core::LpSampler queried(params), fresh(params);
    queried.UpdateBatch(stream.data(), stream.size());
    fresh.UpdateBatch(stream.data(), stream.size());
    // Each round answers at the pre-mutation r, so a zeroed norm sketch
    // cannot hide a stale round behind Sample's zero-vector exit.
    const double r = FillCaches(queried);
    mutate(&queried);
    mutate(&fresh);
    for (int v = 0; v < fresh.repetitions(); ++v) {
      SCOPED_TRACE("round " + std::to_string(v));
      ExpectSameAnswer(queried.round(v).Recover(r), fresh.round(v).Recover(r));
    }
    ExpectSameAnswer(queried.Sample(), fresh.Sample());
  }

  // The duplicate finder answers through its sampler's rounds. Each letter
  // once plus 1000 more 7s (a vector-level update) makes 7 so heavy that a
  // stale snapshot still names it after every mutation below, none of
  // which leaves 7 a duplicate: MergeNegated of the same state and Reset
  // leave the init feed alone, where Find fails, and `cancel` takes the
  // 1000 7s back and adds one 200.
  const uint64_t letters_n = 256;
  const duplicates::DuplicateFinder::Params dparams{letters_n, 0.2, 0, 1001};
  const auto letters = stream::DuplicateStream(letters_n, 0, 5);
  auto feed = [&](duplicates::DuplicateFinder* finder) {
    for (uint64_t l : letters) finder->ProcessItem(l);
    finder->Update(7, 1000);
  };
  duplicates::DuplicateFinder cancel(dparams), same(dparams);
  cancel.Update(7, -1000);
  cancel.ProcessItem(200);
  feed(&same);
  BitWriter cancel_state;
  cancel.Serialize(&cancel_state);
  const std::vector<std::pair<const char*, Mutation>> finder_mutations = {
      {"Merge", [&](LinearSketch* s) { s->Merge(cancel); }},
      {"MergeNegated", [&](LinearSketch* s) { s->MergeNegated(same); }},
      {"Reset", [](LinearSketch* s) { s->Reset(); }},
      {"Deserialize", [&](LinearSketch* s) {
         BitReader reader(cancel_state);
         s->Deserialize(&reader);
       }}};
  for (const auto& [name, mutate] : finder_mutations) {
    SCOPED_TRACE(std::string("DuplicateFinder, ") + name);
    duplicates::DuplicateFinder queried(dparams), fresh(dparams);
    feed(&queried);
    feed(&fresh);
    ASSERT_TRUE(queried.Find().ok());
    mutate(&queried);
    mutate(&fresh);
    const auto got = queried.Find();
    const auto want = fresh.Find();
    EXPECT_EQ(got.ok(), want.ok());
    if (got.ok() && want.ok()) {
      EXPECT_EQ(got.value(), want.value());
    }
  }
}

TEST(RecoveryCache, ReadOnlyWalksKeepIt) {
  const uint64_t n = 2048;
  core::LpSamplerParams params;
  params.n = n;
  params.p = 1.0;
  params.eps = 0.25;
  params.seed = 93;
  params.repetitions = 4;
  const auto stream = GeneralStream(n, 19);
  core::LpSampler sampler(params);
  sampler.UpdateBatch(stream.data(), stream.size());
  const double r = FillCaches(sampler);
  std::vector<Result<core::SampleResult>> before;
  int recovered = 0;
  for (int v = 0; v < sampler.repetitions(); ++v) {
    before.push_back(sampler.round(v).Recover(r));
    recovered += before.back().ok();
  }
  ASSERT_GT(recovered, 0);
  BitWriter w;
  sampler.Serialize(&w);
  sampler.SerializeCounters(&w);
  sampler.WritePrefix(&w);
  // Zero every counter behind the caches, through a listing that claims
  // not to write (no library path does this): rounds whose cache the walks
  // above kept still answer from it.
  CounterList list(/*writes=*/false);
  sampler.Counters(&list);
  for (const CounterList::Array& a : list.arrays()) {
    std::memset(a.data, 0, a.size * sizeof(uint64_t));
  }
  for (int v = 0; v < sampler.repetitions(); ++v) {
    SCOPED_TRACE("round " + std::to_string(v));
    ExpectSameAnswer(sampler.round(v).Recover(r), before[size_t(v)]);
  }
  // A writing walk drops them: the zeroed rounds now recover nothing.
  sampler.Reset();
  for (int v = 0; v < sampler.repetitions(); ++v) {
    EXPECT_FALSE(sampler.round(v).Recover(r).ok()) << "round " << v;
  }
}

// ---------------------------------------------------------------------------
// CsHeavyHitters::Query vs QueryOracle.

void ExpectSameHeavySet(const std::vector<uint64_t>& fast,
                        const std::vector<uint64_t>& oracle,
                        const char* what) {
  EXPECT_EQ(fast, oracle) << what;
}

TEST(CsHeavyQueryEquivalence, StrictAndGeneralStreams) {
  const uint64_t n = 2048;
  for (double p : {0.5, 1.0, 2.0}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      heavy::CsHeavyHitters::Params params;
      params.n = n;
      params.p = p;
      params.phi = 0.2;
      params.seed = 500 + seed;
      params.strict_turnstile = (p == 1.0 && seed % 2 == 0);
      if (!params.strict_turnstile && p != 2.0) params.norm_rows = 400;
      heavy::CsHeavyHitters hh(params);
      const auto stream = params.strict_turnstile
                              ? StrictStream(n, 80 + seed)
                              : GeneralStream(n, 90 + seed);
      hh.UpdateBatch(stream.data(), stream.size());
      ExpectSameHeavySet(hh.Query(), hh.QueryOracle(), "cs heavy stream");
    }
  }
}

TEST(CsHeavyQueryEquivalence, ZeroVectorAndDegenerates) {
  heavy::CsHeavyHitters::Params params;
  params.n = 256;
  params.p = 1.0;
  params.phi = 0.2;
  params.strict_turnstile = true;
  params.seed = 13;
  heavy::CsHeavyHitters zero(params);
  EXPECT_TRUE(zero.Query().empty());
  EXPECT_TRUE(zero.QueryOracle().empty());

  heavy::CsHeavyHitters single(params);
  single.Update(200, 50.0);
  ExpectSameHeavySet(single.Query(), single.QueryOracle(), "single coord");
  EXPECT_EQ(single.Query(), std::vector<uint64_t>{200});

  // Tiny universe, smaller than the count-sketch width.
  heavy::CsHeavyHitters::Params tiny = params;
  tiny.n = 3;
  heavy::CsHeavyHitters hh(tiny);
  hh.Update(0, 10.0);
  hh.Update(2, 1.0);
  ExpectSameHeavySet(hh.Query(), hh.QueryOracle(), "tiny universe");
}

TEST(CsHeavyQueryEquivalence, PostMergeAndPostDeserialize) {
  const uint64_t n = 1024;
  heavy::CsHeavyHitters::Params params;
  params.n = n;
  params.p = 1.0;
  params.phi = 0.15;
  params.strict_turnstile = true;
  params.seed = 31;
  const auto stream = StrictStream(n, 23);
  heavy::CsHeavyHitters a(params), b(params);
  const size_t half = stream.size() / 2;
  a.UpdateBatch(stream.data(), half);
  b.UpdateBatch(stream.data() + half, stream.size() - half);
  a.Merge(b);
  ExpectSameHeavySet(a.Query(), a.QueryOracle(), "post-merge");

  BitWriter w;
  a.Serialize(&w);
  heavy::CsHeavyHitters::Params dummy;
  dummy.n = 1;
  heavy::CsHeavyHitters restored(dummy);
  BitReader reader(w);
  restored.Deserialize(&reader);
  ExpectSameHeavySet(restored.Query(), a.QueryOracle(), "post-deserialize");
}

// ---------------------------------------------------------------------------
// CmHeavyHitters::Query vs QueryOracle (strict turnstile).

TEST(CmHeavyQueryEquivalence, MinAndMedianVariants) {
  const uint64_t n = 2048;
  for (bool use_median : {false, true}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      heavy::CmHeavyHitters hh({n, 0.15, 0, 600 + seed, use_median});
      const auto stream = StrictStream(n, 70 + seed);
      hh.UpdateBatch(stream.data(), stream.size());
      ExpectSameHeavySet(hh.Query(), hh.QueryOracle(),
                         use_median ? "median variant" : "min variant");
    }
  }
}

TEST(CmHeavyQueryEquivalence, ZeroVectorAndRoundTrip) {
  heavy::CmHeavyHitters zero({512, 0.2, 0, 5, false});
  EXPECT_TRUE(zero.Query().empty());
  EXPECT_TRUE(zero.QueryOracle().empty());

  heavy::CmHeavyHitters hh({512, 0.2, 0, 6, false});
  const auto stream = StrictStream(512, 44);
  hh.UpdateBatch(stream.data(), stream.size());
  BitWriter w;
  hh.Serialize(&w);
  heavy::CmHeavyHitters restored({1, 0.5, 0, 0, false});
  BitReader reader(w);
  restored.Deserialize(&reader);
  ExpectSameHeavySet(restored.Query(), hh.QueryOracle(), "cm round trip");
}

}  // namespace
}  // namespace lps
