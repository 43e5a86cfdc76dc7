// The unified public API: SketchSpec construction and QueryResult
// dispatch.
//
// Part 1 — the MakeSketch registry: total over every SketchKind.
//
// Part 2 — Query(sketch) -> QueryResult: one dispatch point answering
// every queryable kind with the right tag, ToText rendering the
// historical CLI lines, and the wire encoding round-tripping exactly
// (the lps_serve protocol ships these bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lps.h"

namespace lps {
namespace {

constexpr uint64_t kN = 2048;

stream::UpdateStream TestStream() {
  stream::UpdateStream stream;
  for (uint64_t i = 0; i < 1500; ++i) {
    stream.push_back({(i * 37) % kN, int64_t(1 + i % 3)});
  }
  // A planted heavy coordinate and a deletion.
  for (int i = 0; i < 400; ++i) stream.push_back({7, +5});
  stream.push_back({11, -3});
  return stream;
}

TEST(SketchSpecTest, MakeSketchCoversEveryKind) {
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    SketchSpec spec;
    spec.kind = kind;
    spec.n = kN;
    spec.seed = 99;
    auto sketch = MakeSketch(spec);
    ASSERT_NE(sketch, nullptr) << SketchKindName(kind);
    EXPECT_EQ(sketch->kind(), kind) << SketchKindName(kind);
  }
}

TEST(SketchSpecTest, UnknownKindYieldsNull) {
  SketchSpec spec;
  spec.kind = static_cast<SketchKind>(200);
  EXPECT_EQ(MakeSketch(spec), nullptr);
}

TEST(SketchSpecTest, SerializationRoundTrips) {
  SketchSpec spec;
  spec.kind = SketchKind::kLpSampler;
  spec.n = 123456;
  spec.p = 1.5;
  spec.eps = 0.125;
  spec.delta = 0.0625;
  spec.phi = 0.03;
  spec.rows = 17;
  spec.buckets = 96;
  spec.s = 11;
  spec.repetitions = 9;
  spec.seed = 0xDEADBEEF12345678ull;
  BitWriter writer;
  SerializeSpec(spec, &writer);
  BitReader reader(writer);
  EXPECT_EQ(DeserializeSpec(&reader), spec);
}

TEST(SketchSpecTest, KindNamesInvert) {
  for (uint32_t k = 1; k <= 21; ++k) {
    const auto kind = static_cast<SketchKind>(k);
    auto parsed = SketchKindFromName(SketchKindName(kind));
    ASSERT_TRUE(parsed.ok()) << SketchKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(SketchKindFromName("no_such_sketch").ok());
}

TEST(QueryResultTest, SamplerAnswersWithSupportIndex) {
  SketchSpec spec;
  spec.kind = SketchKind::kL0Sampler;
  spec.n = kN;
  spec.delta = 0.05;
  spec.seed = 7;
  auto sketch = MakeSketch(spec);
  const stream::UpdateStream stream = TestStream();
  sketch->UpdateBatch(stream.data(), stream.size());

  stream::ExactVector exact(kN);
  exact.Apply(stream);
  const QueryResult result = Query(*sketch);
  ASSERT_EQ(result.type, QueryResult::Type::kSample) << result.ToText();
  EXPECT_NE(exact[result.index], 0) << result.ToText();
  // The L0 sampler reports the exact recovered value.
  EXPECT_EQ(result.value, double(exact[result.index]));
  EXPECT_EQ(result.ToText(),
            "index " + std::to_string(result.index) + " value " +
                std::to_string(int64_t(result.value)) + "\n");
  EXPECT_EQ(result.ExitCode(), 0);
}

TEST(QueryResultTest, HeavyHittersFindThePlant) {
  SketchSpec spec;
  spec.kind = SketchKind::kCsHeavyHitters;
  spec.n = kN;
  spec.p = 1.0;
  spec.phi = 0.1;
  spec.seed = 3;
  auto sketch = MakeSketch(spec);
  const stream::UpdateStream stream = TestStream();
  sketch->UpdateBatch(stream.data(), stream.size());
  const QueryResult result = Query(*sketch);
  ASSERT_EQ(result.type, QueryResult::Type::kHeavyHitters);
  EXPECT_NE(std::find(result.items.begin(), result.items.end(), 7),
            result.items.end())
      << result.ToText();
  EXPECT_EQ(result.ToText().rfind(std::to_string(result.items.size()) +
                                      " heavy hitters:",
                                  0),
            0u);
}

TEST(QueryResultTest, NormEstimateIsA2Approximation) {
  SketchSpec spec;
  spec.kind = SketchKind::kLpNormEstimator;
  spec.n = kN;
  spec.p = 1.0;
  spec.seed = 5;
  auto sketch = MakeSketch(spec);
  const stream::UpdateStream stream = TestStream();
  sketch->UpdateBatch(stream.data(), stream.size());
  stream::ExactVector exact(kN);
  exact.Apply(stream);
  const QueryResult result = Query(*sketch);
  ASSERT_EQ(result.type, QueryResult::Type::kNorm);
  const double norm = exact.NormP(1.0);
  EXPECT_GE(result.value, 0.5 * norm) << result.ToText();
  EXPECT_LE(result.value, 4.0 * norm) << result.ToText();
}

TEST(QueryResultTest, DuplicateFinderAnswersWithALetter) {
  SketchSpec spec;
  spec.kind = SketchKind::kDuplicateFinder;
  spec.n = 256;
  spec.delta = 0.05;
  spec.seed = 11;
  auto finder = MakeSketch(spec);
  // n + 1 letters over [0, n): every letter once, letter 13 twice.
  for (uint64_t i = 0; i < 256; ++i) finder->Update(i, +1);
  finder->Update(13, +1);
  const QueryResult result = Query(*finder);
  ASSERT_EQ(result.type, QueryResult::Type::kDuplicate) << result.ToText();
  EXPECT_EQ(result.index, 13u);
  EXPECT_EQ(result.ToText(), "duplicate 13\n");
}

TEST(QueryResultTest, UnqueryableKindReportsUnsupported) {
  SketchSpec spec;
  spec.kind = SketchKind::kCountSketch;
  spec.rows = 5;
  spec.buckets = 64;
  auto sketch = MakeSketch(spec);
  const QueryResult result = Query(*sketch);
  EXPECT_EQ(result.type, QueryResult::Type::kUnsupported);
  EXPECT_EQ(result.ToText(), "no query for kind 'count_sketch'\n");
  EXPECT_EQ(result.ExitCode(), 2);
  EXPECT_FALSE(result.ok());
}

TEST(QueryResultTest, WireEncodingRoundTripsExactly) {
  std::vector<QueryResult> results;
  {
    QueryResult r;
    r.type = QueryResult::Type::kSample;
    r.kind = SketchKind::kLpSampler;
    r.index = 1234567;
    r.value = -3.25;
    results.push_back(r);
  }
  {
    QueryResult r;
    r.type = QueryResult::Type::kHeavyHitters;
    r.kind = SketchKind::kCsHeavyHitters;
    r.items = {1, 5, 9, 1ull << 40};
    results.push_back(r);
  }
  {
    QueryResult r;
    r.type = QueryResult::Type::kFailed;
    r.kind = SketchKind::kL0Sampler;
    r.message = "FAILED: no one-sparse row";
    results.push_back(r);
  }
  for (const QueryResult& result : results) {
    BitWriter writer;
    SerializeQueryResult(result, &writer);
    BitReader reader(writer);
    const QueryResult decoded = DeserializeQueryResult(&reader);
    EXPECT_EQ(decoded, result);
    EXPECT_EQ(decoded.ToText(), result.ToText());
  }
}

}  // namespace
}  // namespace lps
