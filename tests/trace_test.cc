// The text trace format: what io::WriteTrace and io::WriteLetterTrace
// emit decodes back, through io::UpdateDecoder, to the same updates and
// the same universe, and the format's comment, blank-line and header
// rules hold. The decoder's chunking and malformed-record policy are
// covered in io_test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/io/update_decoder.h"
#include "src/stream/exact_vector.h"
#include "src/stream/generators.h"

namespace lps::io {
namespace {

using stream::LetterStream;
using stream::UpdateStream;

struct Trace {
  Status status;
  uint64_t n = 0;
  uint64_t malformed = 0;
  UpdateStream updates;
};

Trace Decode(const std::string& bytes) {
  UpdateDecoder decoder;
  Trace trace;
  decoder.Consume(bytes.data(), bytes.size(), &trace.updates);
  trace.status = decoder.Finish(&trace.updates);
  trace.n = decoder.n();
  trace.malformed = decoder.malformed();
  return trace;
}

TEST(Trace, UpdateRoundTrip) {
  const auto original = stream::UniformTurnstile(100, 500, 20, 1);
  std::ostringstream buffer;
  WriteTrace(buffer, 100, original);
  const Trace trace = Decode(buffer.str());
  ASSERT_TRUE(trace.status.ok());
  EXPECT_EQ(trace.n, 100u);
  EXPECT_EQ(trace.malformed, 0u);
  ASSERT_EQ(trace.updates.size(), original.size());
  for (size_t j = 0; j < original.size(); ++j) {
    EXPECT_EQ(trace.updates[j].index, original[j].index);
    EXPECT_EQ(trace.updates[j].delta, original[j].delta);
  }
}

TEST(Trace, LetterTraceBecomesUnitUpdates) {
  const LetterStream letters = {5, 5, 9};
  std::ostringstream buffer;
  WriteLetterTrace(buffer, 16, letters);
  const Trace trace = Decode(buffer.str());
  ASSERT_TRUE(trace.status.ok());
  EXPECT_EQ(trace.n, 16u);
  EXPECT_EQ(trace.malformed, 0u);
  ASSERT_EQ(trace.updates.size(), 3u);
  for (size_t j = 0; j < letters.size(); ++j) {
    EXPECT_EQ(trace.updates[j].index, letters[j]);
    EXPECT_EQ(trace.updates[j].delta, 1);
  }
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  const Trace trace = Decode("# hello\n\nn 8\n# mid\nu 3 -4\n");
  ASSERT_TRUE(trace.status.ok());
  EXPECT_EQ(trace.n, 8u);
  EXPECT_EQ(trace.malformed, 0u);
  ASSERT_EQ(trace.updates.size(), 1u);
  EXPECT_EQ(trace.updates[0].index, 3u);
  EXPECT_EQ(trace.updates[0].delta, -4);
}

TEST(Trace, RejectsTracesWithoutAUniverse) {
  for (const char* bad : {"u 1 1\n",   // update before any header
                          "n 0\n",     // zero universe
                          "# only\n",  // comments, no header
                          ""}) {       // empty input
    EXPECT_FALSE(Decode(bad).status.ok()) << "input: " << bad;
  }
}

TEST(Trace, RoundTripPreservesVector) {
  const auto updates = stream::SparseVector(256, 30, 100, 7);
  stream::ExactVector direct(256);
  direct.Apply(updates);
  std::ostringstream buffer;
  WriteTrace(buffer, 256, updates);
  const Trace trace = Decode(buffer.str());
  ASSERT_TRUE(trace.status.ok());
  stream::ExactVector replayed(256);
  replayed.Apply(trace.updates);
  EXPECT_EQ(direct.data(), replayed.data());
}

}  // namespace
}  // namespace lps::io
