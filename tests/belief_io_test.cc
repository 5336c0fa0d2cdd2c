#include <gtest/gtest.h>

#include <sstream>

#include "belief/belief_io.h"
#include "belief/builders.h"
#include "data/frequency.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

TEST(BeliefIoTest, ParsesBasicFormat) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "0 0.1 0.3\n"
      "2 0.5 0.5   # inline comment\n");
  auto belief = ReadBeliefFunction(in, 4);
  ASSERT_TRUE(belief.ok());
  EXPECT_EQ(belief->interval(0), (BeliefInterval{0.1, 0.3}));
  EXPECT_EQ(belief->interval(1), (BeliefInterval{0.0, 1.0}));  // default
  EXPECT_EQ(belief->interval(2), (BeliefInterval{0.5, 0.5}));
  EXPECT_EQ(belief->interval(3), (BeliefInterval{0.0, 1.0}));
}

TEST(BeliefIoTest, RepeatedIdsIntersect) {
  std::istringstream in(
      "1 0.2 0.8\n"
      "1 0.5 0.9\n");
  auto belief = ReadBeliefFunction(in, 2);
  ASSERT_TRUE(belief.ok());
  EXPECT_EQ(belief->interval(1), (BeliefInterval{0.5, 0.8}));

  std::istringstream empty_inter(
      "0 0.1 0.2\n"
      "0 0.5 0.6\n");
  EXPECT_TRUE(ReadBeliefFunction(empty_inter, 1)
                  .status().IsInvalidArgument());
}

TEST(BeliefIoTest, RejectsMalformedLines) {
  {
    std::istringstream in("0 0.1\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("0 0.1 0.2 junk\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("7 0.1 0.2\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("-1 0.1 0.2\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("0 0.5 0.2\n");  // inverted
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("0 -0.1 0.2\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  {
    std::istringstream in("0 0.1 1.2\n");
    EXPECT_TRUE(ReadBeliefFunction(in, 2).status().IsInvalidArgument());
  }
  // A first token that is not an item id fails the line; only blank and
  // comment-only lines are skipped.
  for (const char* bad : {"abc 0.9 1.0", "99999999999999999999 0 1"}) {
    std::istringstream in(std::string("0 0.1 0.2\n# note\n \t\n") + bad +
                          "\n");
    auto status = ReadBeliefFunction(in, 2).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("belief line 4"), std::string::npos)
        << status.message();
  }
}

TEST(BeliefIoTest, RoundTripPreservesIntervals) {
  auto table = FrequencyTable::FromSupports({3, 5, 7, 9, 11}, 20);
  ASSERT_TRUE(table.ok());
  auto belief = MakeCompliantIntervalBelief(*table, 0.07);
  ASSERT_TRUE(belief.ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteBeliefFunction(*belief, out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadBeliefFunction(in, 5);
  ASSERT_TRUE(loaded.ok());
  for (ItemId x = 0; x < 5; ++x) {
    EXPECT_EQ(loaded->interval(x), belief->interval(x)) << "item " << x;
  }
}

TEST(BeliefIoTest, IgnorantIntervalsOmittedOnWrite) {
  auto belief = BeliefFunction::Create(
      {{0.0, 1.0}, {0.2, 0.4}, {0.0, 1.0}});
  ASSERT_TRUE(belief.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteBeliefFunction(*belief, out).ok());
  // Exactly one data line (plus two header comments).
  size_t data_lines = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != '#') ++data_lines;
  }
  EXPECT_EQ(data_lines, 1u);
}

TEST(BeliefIoTest, FileRoundTripAndErrors) {
  const std::string path = testing::TempDir() + "/belief_io_test.belief";
  BeliefFunction ignorant = MakeIgnorantBelief(3);
  ASSERT_TRUE(WriteBeliefFunctionFile(ignorant, path).ok());
  auto loaded = ReadBeliefFunctionFile(path, 3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(ReadBeliefFunctionFile("/no/such/file", 3)
                  .status().IsIOError());
  EXPECT_TRUE(WriteBeliefFunctionFile(ignorant, "/no/such/dir/f")
                  .IsIOError());
}

TEST(BeliefIoTest, FuzzedInputNeverCrashes) {
  // Deterministic fuzz: random byte soup must yield ok() or a clean
  // error, never UB (run under the normal test harness; crashes or
  // sanitizer reports fail the suite).
  Rng rng(0xf22);
  const char alphabet[] = "0123456789.-+eE #\n\t abcXYZ";
  for (int trial = 0; trial < 500; ++trial) {
    std::string soup;
    size_t len = rng.UniformUint64(200);
    for (size_t i = 0; i < len; ++i) {
      soup += alphabet[rng.UniformUint64(sizeof(alphabet) - 1)];
    }
    std::istringstream in(soup);
    auto result = ReadBeliefFunction(in, 8);
    if (result.ok()) {
      EXPECT_EQ(result->num_items(), 8u);
    }
  }
}

TEST(BeliefIoTest, FuzzedFimiStyleNumbersParse) {
  // Structured fuzz: syntactically valid lines with random values must
  // round-trip through validation consistently.
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    double a = rng.UniformDouble(-0.5, 1.5);
    double b = rng.UniformDouble(-0.5, 1.5);
    std::ostringstream line;
    line << rng.UniformInt(-2, 9) << ' ' << a << ' ' << b << '\n';
    std::istringstream in(line.str());
    auto result = ReadBeliefFunction(in, 8);
    long long item = -99;
    {
      std::istringstream reparse(line.str());
      reparse >> item;
    }
    bool valid = item >= 0 && item < 8 && a <= b && a >= 0.0 && b <= 1.0;
    EXPECT_EQ(result.ok(), valid) << line.str();
  }
}

}  // namespace
}  // namespace anonsafe
