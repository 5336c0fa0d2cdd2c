#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/database.h"
#include "data/fimi_io.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "datagen/benchmark_profiles.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Database BigMart() {
  // A 6-item example in the spirit of the paper's Figure 1: frequencies
  // 0.5, 0.4, 0.5, 0.5, 0.3, 0.5 over 10 transactions.
  Database db(6);
  auto add = [&](Transaction t) { EXPECT_TRUE(db.AddTransaction(t).ok()); };
  // supports: item0:5 item1:4 item2:5 item3:5 item4:3 item5:5
  add({0, 1, 2});
  add({0, 1, 3, 5});
  add({0, 2, 4});
  add({0, 3, 5});
  add({0, 1, 2, 4});
  add({1, 3, 5});
  add({2, 3, 4});
  add({2, 5});
  add({3, 5});
  add({0});  // placeholder; adjusted below
  return db;
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, AddTransactionValidates) {
  Database db(3);
  EXPECT_TRUE(db.AddTransaction({0, 1}).ok());
  EXPECT_TRUE(db.AddTransaction({}).IsInvalidArgument());
  EXPECT_TRUE(db.AddTransaction({0, 3}).IsInvalidArgument());
  EXPECT_EQ(db.num_transactions(), 1u);
}

TEST(DatabaseTest, SortsAndDeduplicates) {
  Database db(5);
  ASSERT_TRUE(db.AddTransaction({4, 2, 2, 0, 4}).ok());
  EXPECT_EQ(db.transaction(0), (Transaction{0, 2, 4}));
}

TEST(DatabaseTest, TotalSizeAndContains) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1, 2, 3}).ok());
  EXPECT_EQ(db.TotalSize(), 5u);
  EXPECT_TRUE(db.Contains(0, 1));
  EXPECT_FALSE(db.Contains(0, 2));
  EXPECT_TRUE(db.Contains(1, 3));
}

TEST(DatabaseTest, FromTransactionsPropagatesErrors) {
  auto bad = Database::FromTransactions(2, {{0}, {5}});
  EXPECT_FALSE(bad.ok());
  auto good = Database::FromTransactions(2, {{0}, {1, 0}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_transactions(), 2u);
}

TEST(DatabaseTest, DebugStringMentionsCounts) {
  Database db(7);
  ASSERT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  std::string s = db.DebugString();
  EXPECT_NE(s.find("n=7"), std::string::npos);
  EXPECT_NE(s.find("m=1"), std::string::npos);
}

// ---------------------------------------------------------- FrequencyTable

TEST(FrequencyTableTest, CountsSupports) {
  Database db = BigMart();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_transactions(), 10u);
  EXPECT_EQ(table->support(0), 6u);  // 5 listed + placeholder {0}
  EXPECT_EQ(table->support(1), 4u);
  EXPECT_EQ(table->support(4), 3u);
  EXPECT_DOUBLE_EQ(table->frequency(1), 0.4);
  EXPECT_DOUBLE_EQ(table->frequency(4), 0.3);
}

TEST(FrequencyTableTest, EmptyDatabaseFails) {
  Database db(3);
  EXPECT_TRUE(FrequencyTable::Compute(db).status().IsInvalidArgument());
}

TEST(FrequencyTableTest, FromSupportsValidates) {
  EXPECT_TRUE(FrequencyTable::FromSupports({1, 2}, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FrequencyTable::FromSupports({5}, 4)
                  .status()
                  .IsInvalidArgument());
  auto ok = FrequencyTable::FromSupports({0, 2, 4}, 4);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->frequency(2), 1.0);
  EXPECT_DOUBLE_EQ(ok->frequency(0), 0.0);
}

// --------------------------------------------------------- FrequencyGroups

TEST(FrequencyGroupsTest, GroupsByEqualSupport) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  // Paper Section 3.2: groups {0,2,3,5} (0.5), {1} (0.4), {4} (0.3).
  ASSERT_EQ(fg.num_groups(), 3u);
  EXPECT_EQ(fg.group_support(0), 3u);
  EXPECT_EQ(fg.group_support(1), 4u);
  EXPECT_EQ(fg.group_support(2), 5u);
  EXPECT_EQ(fg.group_items(2), (std::vector<ItemId>{0, 2, 3, 5}));
  EXPECT_EQ(fg.group_of_item(4), 0u);
  EXPECT_EQ(fg.group_of_item(1), 1u);
  EXPECT_EQ(fg.group_of_item(3), 2u);
  EXPECT_EQ(fg.num_singleton_groups(), 2u);
  EXPECT_EQ(fg.group_size(2), 4u);
}

TEST(FrequencyGroupsTest, GapsAndMedian) {
  auto table = FrequencyTable::FromSupports({1, 3, 7, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  std::vector<double> gaps = fg.FrequencyGaps();
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_NEAR(gaps[0], 0.2, 1e-12);
  EXPECT_NEAR(gaps[1], 0.4, 1e-12);
  EXPECT_NEAR(gaps[2], 0.1, 1e-12);
  EXPECT_NEAR(fg.MedianGap(), 0.2, 1e-12);
  Summary s = fg.GapSummary();
  EXPECT_NEAR(s.mean, 0.7 / 3.0, 1e-12);
  EXPECT_NEAR(s.min, 0.1, 1e-12);
  EXPECT_NEAR(s.max, 0.4, 1e-12);
}

TEST(FrequencyGroupsTest, SingleGroupHasNoGaps) {
  auto table = FrequencyTable::FromSupports({2, 2, 2}, 4);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.num_groups(), 1u);
  EXPECT_TRUE(fg.FrequencyGaps().empty());
  EXPECT_EQ(fg.MedianGap(), 0.0);
}

TEST(FrequencyGroupsTest, RangeItemCountPrefixSums) {
  auto table = FrequencyTable::FromSupports({1, 1, 2, 3, 3, 3}, 4);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  ASSERT_EQ(fg.num_groups(), 3u);
  EXPECT_EQ(fg.RangeItemCount(0, 0), 2u);
  EXPECT_EQ(fg.RangeItemCount(0, 1), 3u);
  EXPECT_EQ(fg.RangeItemCount(0, 2), 6u);
  EXPECT_EQ(fg.RangeItemCount(1, 2), 4u);
  EXPECT_EQ(fg.RangeItemCount(2, 2), 3u);
}

TEST(FrequencyGroupsTest, StabRangeFindsContiguousGroups) {
  // Frequencies: 0.1, 0.25, 0.5, 0.75 over m=20.
  auto table = FrequencyTable::FromSupports({2, 5, 10, 15}, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  size_t lo = 99, hi = 99;
  ASSERT_TRUE(fg.StabRange(0.0, 1.0, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 3u);
  ASSERT_TRUE(fg.StabRange(0.2, 0.6, &lo, &hi));
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 2u);
  // Inclusive endpoints.
  ASSERT_TRUE(fg.StabRange(0.25, 0.5, &lo, &hi));
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 2u);
  // Point query.
  ASSERT_TRUE(fg.StabRange(0.5, 0.5, &lo, &hi));
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 2u);
  // Falls between groups.
  EXPECT_FALSE(fg.StabRange(0.3, 0.4, &lo, &hi));
  // Entirely below / above.
  EXPECT_FALSE(fg.StabRange(0.0, 0.05, &lo, &hi));
  EXPECT_FALSE(fg.StabRange(0.8, 1.0, &lo, &hi));
  // Inverted interval.
  EXPECT_FALSE(fg.StabRange(0.6, 0.2, &lo, &hi));
}

TEST(FrequencyGroupsTest, FindGroupBySupport) {
  auto table = FrequencyTable::FromSupports({2, 5, 10}, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.FindGroupBySupport(5), 1u);
  EXPECT_EQ(fg.FindGroupBySupport(10), 2u);
  EXPECT_EQ(fg.FindGroupBySupport(7), fg.num_groups());
}

// ----------------------------------------------------------------- FIMI IO

TEST(FimiIoTest, RoundTripThroughStreams) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 2}).ok());
  ASSERT_TRUE(db.AddTransaction({1, 2, 3}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteFimi(db, out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 2u);
  EXPECT_EQ(loaded->database.num_items(), 4u);
}

TEST(FimiIoTest, RemapsSparseLabels) {
  std::istringstream in("100 205\n205 999\n");
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_items(), 3u);
  EXPECT_EQ(loaded->labels, (std::vector<int64_t>{100, 205, 999}));
  // Item "205" maps to dense id 1 and appears in both transactions.
  auto table = FrequencyTable::Compute(loaded->database);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->support(1), 2u);
}

TEST(FimiIoTest, SkipsBlankLinesAndDeduplicates) {
  std::istringstream in("1 1 2\n\n\n3\n");
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 2u);
  EXPECT_EQ(loaded->database.transaction(0).size(), 2u);
}

TEST(FimiIoTest, RejectsMalformedInput) {
  std::istringstream bad_token("1 two 3\n");
  EXPECT_TRUE(ReadFimi(bad_token).status().IsInvalidArgument());
  std::istringstream negative("1 -2\n");
  EXPECT_TRUE(ReadFimi(negative).status().IsInvalidArgument());

  auto error = [](const std::string& text) {
    return ParseFimi(text).status().message();
  };
  // A token is [+-]?[0-9]+ fitting in int64, ended by a separator or the
  // end of its line. A line-at-a-time stream parser loaded the first six:
  // it dropped an overflow or a lone sign at the end of a line and split
  // a glued sign off as a new label. It called the next two negative.
  EXPECT_EQ(error("1 99999999999999999999"), "malformed token at line 1");
  EXPECT_EQ(error("2\n1 9223372036854775808\n"), "malformed token at line 2");
  EXPECT_EQ(error("1 -99999999999999999999\n"), "malformed token at line 1");
  EXPECT_EQ(error("1 -"), "malformed token at line 1");
  EXPECT_EQ(error("1 +\n2\n"), "malformed token at line 1");
  EXPECT_EQ(error("1+2\n"), "malformed token at line 1");
  EXPECT_EQ(error("3\n\n12-3\n"), "malformed token at line 3");
  EXPECT_EQ(error("1 -5x\n"), "malformed token at line 1");
  EXPECT_EQ(error("1 - 2\n"), "malformed token at line 1");
  EXPECT_EQ(error("1 +-2\n"), "malformed token at line 1");
  EXPECT_EQ(error("1 0x10\n"), "malformed token at line 1");
  EXPECT_EQ(error("1 2.5\n"), "malformed token at line 1");
  EXPECT_EQ(error(std::string("1 \0 2\n", 6)), "malformed token at line 1");
  EXPECT_EQ(error("1\n2 -2\n"), "negative item label at line 2");
  EXPECT_EQ(error("-9223372036854775808"), "negative item label at line 1");
}

TEST(FimiIoTest, AcceptsSignsSeparatorsAndLineEndings) {
  // "+5" and "-0" are labels; CRLF, tabs, \v, \f, blank lines and a
  // missing final newline all load.
  auto loaded =
      ParseFimi("+5 -0\r\n\n\t7\v5\f+0\r\n\r\n9223372036854775807");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->labels,
            (std::vector<int64_t>{5, 0, 7,
                                  std::numeric_limits<int64_t>::max()}));
  ASSERT_EQ(loaded->database.num_transactions(), 3u);
  EXPECT_EQ(loaded->database.transaction(0), (Transaction{0, 1}));
  EXPECT_EQ(loaded->database.transaction(1), (Transaction{0, 1, 2}));
  EXPECT_EQ(loaded->database.transaction(2), (Transaction{3}));
  auto empty = ParseFimi("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->database.num_items(), 0u);
  EXPECT_EQ(empty->database.num_transactions(), 0u);
}

TEST(FimiIoTest, FileRoundTrip) {
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  const std::string path = testing::TempDir() + "/anonsafe_fimi_test.dat";
  ASSERT_TRUE(WriteFimiFile(db, path).ok());
  auto loaded = ReadFimiFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 1u);
  EXPECT_TRUE(ReadFimiFile("/no/such/file").status().IsIOError());
  // A directory opens but cannot be read.
  EXPECT_TRUE(ReadFimiFile(testing::TempDir()).status().IsIOError());
}

TEST(ConcatDatabasesTest, PoolsTransactionsInOrder) {
  Database a(3), b(3);
  ASSERT_TRUE(a.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(b.AddTransaction({2}).ok());
  ASSERT_TRUE(b.AddTransaction({1, 2}).ok());
  auto pooled = ConcatDatabases({&a, &b});
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->num_transactions(), 3u);
  EXPECT_EQ(pooled->transaction(0), (Transaction{0, 1}));
  EXPECT_EQ(pooled->transaction(2), (Transaction{1, 2}));
  // Supports add up across partners.
  auto table = FrequencyTable::Compute(*pooled);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->support(2), 2u);
}

TEST(ConcatDatabasesTest, Validation) {
  Database a(3), c(4);
  ASSERT_TRUE(a.AddTransaction({0}).ok());
  ASSERT_TRUE(c.AddTransaction({0}).ok());
  EXPECT_TRUE(ConcatDatabases({}).status().IsInvalidArgument());
  EXPECT_TRUE(ConcatDatabases({&a, &c}).status().IsInvalidArgument());
}

TEST(FimiIoTest, RandomDatabaseRoundTripsExactly) {
  // Property: write-then-read of any dense-id database reproduces the
  // transactions verbatim (dense ids are written in increasing order of
  // first appearance, which for a dense database is the identity).
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 2 + rng.UniformUint64(20);
    Database db(n);
    // Guarantee every item appears, in id order first (identity remap).
    Transaction all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<ItemId>(i);
    db.AddTransactionUnchecked(all);
    for (int t = 0; t < 30; ++t) {
      size_t size = 1 + rng.UniformUint64(n);
      std::vector<size_t> picks = rng.SampleWithoutReplacement(n, size);
      Transaction txn(picks.begin(), picks.end());
      db.AddTransactionUnchecked(std::move(txn));
    }
    std::ostringstream out;
    ASSERT_TRUE(WriteFimi(db, out).ok());
    std::istringstream in(out.str());
    auto loaded = ReadFimi(in);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->database.num_transactions(), db.num_transactions());
    for (size_t t = 0; t < db.num_transactions(); ++t) {
      EXPECT_EQ(loaded->database.transaction(t), db.transaction(t));
    }
  }
}

// -------------------------------------------- FIMI parser against oracle

// The line-at-a-time stream parser that `ReadFimi` used before the
// in-place `ParseFimi`. It is the oracle for the differential and
// mutation tests below.
Result<LabeledDatabase> ReferenceReadFimi(std::istream& in) {
  std::unordered_map<int64_t, ItemId> label_to_id;
  std::vector<int64_t> labels;
  std::vector<Transaction> transactions;

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    Transaction txn;
    int64_t label;
    while (ls >> label) {
      if (label < 0) {
        return Status::InvalidArgument("negative item label at line " +
                                       std::to_string(line_no));
      }
      auto [it, inserted] =
          label_to_id.emplace(label, static_cast<ItemId>(labels.size()));
      if (inserted) labels.push_back(label);
      txn.push_back(it->second);
    }
    if (!ls.eof()) {
      return Status::InvalidArgument("malformed token at line " +
                                     std::to_string(line_no));
    }
    if (!txn.empty()) transactions.push_back(std::move(txn));
  }
  if (in.bad()) return Status::IOError("stream read failure");

  LabeledDatabase out;
  out.labels = std::move(labels);
  ANONSAFE_ASSIGN_OR_RETURN(
      out.database,
      Database::FromTransactions(out.labels.size(), std::move(transactions)));
  return out;
}

Result<LabeledDatabase> ReferenceParse(const std::string& text) {
  std::istringstream in(text);
  return ReferenceReadFimi(in);
}

void ExpectSameLabeledDatabase(const LabeledDatabase& got,
                               const LabeledDatabase& want) {
  ASSERT_EQ(got.labels, want.labels);
  ASSERT_EQ(got.database.num_items(), want.database.num_items());
  ASSERT_EQ(got.database.transactions(), want.database.transactions());
}

bool IsSign(char c) { return c == '+' || c == '-'; }

// True when some token of `text` is one the stream oracle may accept but
// the grammar rejects: a lone sign, a sign glued after the first byte, or
// a well-formed number that overflows int64.
bool HasTokenOnlyTheOracleAccepts(const std::string& text) {
  const std::string separators(" \t\v\f\r\n");
  size_t pos = 0;
  while (true) {
    pos = text.find_first_not_of(separators, pos);
    if (pos == std::string::npos) return false;
    size_t end = text.find_first_of(separators, pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end;
    if (token.size() == 1 && IsSign(token[0])) return true;  // lone sign
    for (size_t i = 1; i < token.size(); ++i) {
      if (IsSign(token[i])) return true;  // glued
    }
    const size_t digits = IsSign(token[0]) ? 1 : 0;
    if (token.find_first_not_of("0123456789", digits) != std::string::npos) {
      continue;
    }
    std::istringstream in(token);
    int64_t value;
    if (!(in >> value)) return true;  // overflows int64
  }
}

struct AgreementCounts {
  size_t both_accept = 0;
  size_t both_reject = 0;
  size_t only_oracle_accepts = 0;
};

// The three rules that tie `ParseFimi` to the oracle: equal output when
// it accepts, a rejection whenever the oracle rejects, and a rejection of
// an input the oracle accepts only for a token outside the grammar.
void CheckAgainstOracle(const std::string& text, AgreementCounts* counts) {
  SCOPED_TRACE(testing::Message() << "input: \"" << text << "\"");
  Result<LabeledDatabase> got = ParseFimi(text);
  Result<LabeledDatabase> want = ReferenceParse(text);
  if (got.ok()) {
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameLabeledDatabase(*got, *want);
    ++counts->both_accept;
    return;
  }
  ASSERT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
  if (!want.ok()) {
    ASSERT_TRUE(want.status().IsInvalidArgument());
    ++counts->both_reject;
    return;
  }
  ASSERT_TRUE(HasTokenOnlyTheOracleAccepts(text)) << got.status().ToString();
  ++counts->only_oracle_accepts;
}

std::string ToFimi(const Database& db) {
  std::ostringstream out;
  EXPECT_TRUE(WriteFimi(db, out).ok());
  return out.str();
}

TEST(FimiOracleTest, StandInsMatchTheStreamParser) {
  for (Benchmark b : {Benchmark::kConnect, Benchmark::kMushroom,
                      Benchmark::kChess, Benchmark::kPumsb,
                      Benchmark::kRetail, Benchmark::kAccidents}) {
    for (uint64_t seed : {3, 101}) {
      SCOPED_TRACE(GetBenchmarkSpec(b).name + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      auto db = MakeBenchmarkDatabase(b, &rng, 0.05);
      ASSERT_TRUE(db.ok());
      const std::string text = ToFimi(*db);
      auto got = ParseFimi(text);
      auto want = ReferenceParse(text);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectSameLabeledDatabase(*got, *want);
    }
  }
}

TEST(FimiOracleTest, LabelsAboveTheDenseCapKeepFirstAppearanceIds) {
  // Relabel a stand-in so small labels interleave with 2^40, INT64_MAX
  // and mid-sized ones: first-appearance ids must cross the dense table
  // and the map in the oracle's order.
  Rng rng(7);
  auto db = MakeBenchmarkDatabase(Benchmark::kConnect, &rng, 0.05);
  ASSERT_TRUE(db.ok());
  auto relabel = [](ItemId id) -> int64_t {
    switch (id % 4) {
      case 0: return id;
      case 1: return (int64_t{1} << 40) + id;
      case 2: return std::numeric_limits<int64_t>::max() - id;
      default: return int64_t{1000} * id + 7;
    }
  };
  for (const std::string& tail : {std::string(), std::string("\n1 2 3\n")}) {
    std::string text;
    for (const Transaction& t : db->transactions()) {
      for (size_t i = t.size(); i-- > 0;) {
        text += std::to_string(relabel(t[i]));
        text += i ? " " : "\n";
      }
    }
    text += tail;
    auto got = ParseFimi(text);
    auto want = ReferenceParse(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ExpectSameLabeledDatabase(*got, *want);
  }
  const std::string tiny =
      "3 1099511627776 1\n9223372036854775807 3 0\n"
      "1099511627776 2 9223372036854775807\n";
  auto got = ParseFimi(tiny);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->labels,
            (std::vector<int64_t>{3, int64_t{1} << 40, 1,
                                  std::numeric_limits<int64_t>::max(), 0,
                                  2}));
  auto want = ReferenceParse(tiny);
  ASSERT_TRUE(want.ok());
  ExpectSameLabeledDatabase(*got, *want);
}

std::string FimiLine(const std::vector<int64_t>& labels) {
  std::string line;
  for (size_t i = 0; i < labels.size(); ++i) {
    line += std::to_string(labels[i]);
    line += i + 1 < labels.size() ? " " : "\n";
  }
  return line;
}

// ParseFimi sets a row's ids in a bitmap when their span, in 64-bit
// words, is below 4 words per label, and sorts the row otherwise. Rows
// on both sides of the rule and at it, each kind alone and all mixed in
// one file, must load as the oracle loads them.
TEST(FimiOracleTest, RowsOnBothSidesOfTheBitmapRuleMatchTheStreamParser) {
  Rng rng(29);
  // `ids` gives labels 0..4095 the ids 0..4095; `sparse_ids` adds a line
  // that gives 10^6 labels above them the ids from 4096, scrambled.
  constexpr int64_t kWords = 64;
  constexpr int64_t kSparse = 1000000;
  std::vector<int64_t> intro(kWords * 64);
  for (int64_t i = 0; i < kWords * 64; ++i) intro[i] = i;
  std::vector<int64_t> sparse_labels(kSparse);
  for (int64_t i = 0; i < kSparse; ++i) {
    sparse_labels[i] = kWords * 64 + i * 7919 % 1000003;
  }
  const std::string ids = FimiLine(intro);
  const std::string sparse_ids = ids + FimiLine(sparse_labels);
  auto pick = [&](int64_t bound) {
    return static_cast<int64_t>(rng.UniformUint64(bound));
  };

  // Dense rows of 1-60 labels over 200 labels, repeats included: every
  // one is set in the bitmap, and most span several words.
  std::vector<std::string> dense;
  for (int r = 0; r < 400; ++r) {
    std::vector<int64_t> row(1 + pick(60));
    for (int64_t& label : row) label = pick(200);
    dense.push_back(FimiLine(row));
  }
  // Rows of 2-3 labels over the 10^6 sparse labels, one repeated in
  // every third row: spans of thousands of words, so they are sorted.
  std::vector<std::string> sparse;
  for (int r = 0; r < 3000; ++r) {
    std::vector<int64_t> row(2 + pick(2));
    for (int64_t& label : row) label = sparse_labels[pick(kSparse)];
    if (r % 3 == 0) row.push_back(row[pick(row.size())]);
    sparse.push_back(FimiLine(row));
  }
  // Rows of n = 2-15 labels whose ids span 4n - 1 words (the bitmap),
  // exactly 4n words and 4n + 1 words (the sort), repeats included.
  std::vector<std::string> boundary;
  for (int64_t n = 2; n <= 15; ++n) {
    for (int64_t span : {4 * n - 1, 4 * n, 4 * n + 1}) {
      for (int copy = 0; copy < 4; ++copy) {
        const int64_t first = pick(kWords - span + 1) * 64;
        const int64_t last = first + (span - 1) * 64;
        std::vector<int64_t> row = {first + pick(64), last + pick(64)};
        while (static_cast<int64_t>(row.size()) < n) {
          row.push_back(copy % 2 == 0 ? row[pick(row.size())]
                                      : row[0] + pick(row[1] - row[0] + 1));
        }
        rng.Shuffle(&row);
        boundary.push_back(FimiLine(row));
      }
    }
  }

  std::vector<std::string> mixed;
  for (const auto* kind : {&dense, &sparse, &boundary}) {
    mixed.insert(mixed.end(), kind->begin(), kind->end());
  }
  rng.Shuffle(&mixed);
  for (const auto* kind : {&dense, &sparse, &boundary, &mixed}) {
    std::string text = kind == &dense || kind == &boundary ? ids : sparse_ids;
    for (const std::string& line : *kind) text += line;
    auto got = ParseFimi(text);
    auto want = ReferenceParse(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameLabeledDatabase(*got, *want);
  }
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(FimiOracleTest, MutationsAgreeWithTheStreamParser) {
  const std::vector<std::string> corpus = {
      "1 2 3\n4 5\n",
      "100 205\n205 999\n",
      "+5 -0\t7\r\n\n8",
      "9223372036854775807 1\n2 1099511627776\n",
      "0 1 2 3 4 5 6 7 8 9\n9 8 7\n\n\n6 5 4 3 2 1 0\r\n",
  };
  const std::string bytes("0123456789 \t\v\f\r\n+-x.\0\xff", 22);
  const std::vector<std::string> words = {
      "-", "+", "-0", "+0", "1-", "2+3", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "99999999999999999999", "1099511627776", " ", "\n", "\r\n", "\t",
  };
  uint64_t state = 0x5eed17;
  auto uniform = [&](size_t bound) {
    return static_cast<size_t>(SplitMix64(&state) % bound);
  };
  AgreementCounts counts;
  constexpr int kMutants = 20000;
  for (int iter = 0; iter < kMutants; ++iter) {
    std::string text = corpus[uniform(corpus.size())];
    const size_t edits = 1 + uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t at = uniform(text.size() + 1);
      switch (uniform(5)) {
        case 0:  // replace a byte
          if (at < text.size()) text[at] = bytes[uniform(bytes.size())];
          break;
        case 1:  // insert a byte
          text.insert(at, 1, bytes[uniform(bytes.size())]);
          break;
        case 2:  // delete a byte
          if (at < text.size()) text.erase(at, 1);
          break;
        case 3:  // insert a dictionary word
          text.insert(at, words[uniform(words.size())]);
          break;
        default: {  // duplicate a slice
          const size_t len = uniform(text.size() - at + 1);
          text.insert(uniform(text.size() + 1), text.substr(at, len));
          break;
        }
      }
    }
    CheckAgainstOracle(text, &counts);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Every outcome class must actually occur, or the rules checked nothing.
  EXPECT_GT(counts.both_accept, size_t{kMutants / 10});
  EXPECT_GT(counts.both_reject, size_t{kMutants / 10});
  EXPECT_GT(counts.only_oracle_accepts, size_t{kMutants / 100});
}

// ---------------------------------------------------------------- Sampling

TEST(SamplingTest, SampleSizeAndDomainPreserved) {
  Rng rng(5);
  Database db(10);
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(db.AddTransaction({static_cast<ItemId>(t % 10)}).ok());
  }
  auto sample = SampleTransactions(db, 20, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_transactions(), 20u);
  EXPECT_EQ(sample->num_items(), 10u);
}

TEST(SamplingTest, InvalidSizes) {
  Rng rng(5);
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  EXPECT_TRUE(SampleTransactions(db, 0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SampleTransactions(db, 2, &rng).status().IsInvalidArgument());
}

TEST(SamplingTest, FractionRoundsAndClamps) {
  Rng rng(5);
  Database db(2);
  for (int t = 0; t < 10; ++t) ASSERT_TRUE(db.AddTransaction({0}).ok());
  auto s = SampleFraction(db, 0.35, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_transactions(), 4u);  // round(3.5) = 4
  auto tiny = SampleFraction(db, 0.001, &rng);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->num_transactions(), 1u);  // at least one
  EXPECT_TRUE(SampleFraction(db, 0.0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SampleFraction(db, 1.5, &rng).status().IsInvalidArgument());
}

TEST(SamplingTest, FullFractionIsWholeDatabase) {
  Rng rng(5);
  Database db(3);
  for (int t = 0; t < 7; ++t) {
    ASSERT_TRUE(db.AddTransaction({static_cast<ItemId>(t % 3)}).ok());
  }
  auto s = SampleFraction(db, 1.0, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_transactions(), 7u);
  // Sampling without replacement at 100% preserves supports exactly.
  auto full = FrequencyTable::Compute(db);
  auto samp = FrequencyTable::Compute(*s);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(samp.ok());
  for (ItemId x = 0; x < 3; ++x) {
    EXPECT_EQ(full->support(x), samp->support(x));
  }
}

}  // namespace
}  // namespace anonsafe
