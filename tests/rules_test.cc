#include <gtest/gtest.h>

#include "data/database.h"
#include "datagen/quest.h"
#include "mining/miner.h"
#include "mining/rules.h"

namespace anonsafe {
namespace {

Database Market() {
  Database db(4);
  EXPECT_TRUE(db.AddTransaction({0, 1}).ok());      // bread, butter
  EXPECT_TRUE(db.AddTransaction({0, 1, 2}).ok());   // + milk
  EXPECT_TRUE(db.AddTransaction({0, 1}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 2}).ok());
  EXPECT_TRUE(db.AddTransaction({1, 3}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  return db;
}

// ---------------------------------------------------------- Miner agreement

class ThreeMinerAgreementTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ThreeMinerAgreementTest, AllThreeMinersAgreeOnQuestData) {
  auto [seed, min_support] = GetParam();
  QuestParams params;
  params.num_items = 35;
  params.num_transactions = 250;
  params.avg_txn_size = 6.0;
  params.seed = seed;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());
  MiningOptions opt;
  opt.min_support = min_support;
  auto a = MineApriori(*db, opt);
  auto f = MineFPGrowth(*db, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*a, *f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreeMinerAgreementTest,
    ::testing::Combine(::testing::Values(11u, 12u, 13u),
                       ::testing::Values(0.05, 0.15)));

// -------------------------------------------------------------------- Rules

TEST(RulesTest, KnownConfidencesOnToyData) {
  Database db = Market();
  MiningOptions mining;
  mining.min_support = 2.0 / 6.0;
  auto frequent = MineFPGrowth(db, mining);
  ASSERT_TRUE(frequent.ok());

  RuleOptions opt;
  opt.min_confidence = 0.6;
  auto rules = GenerateRules(*frequent, db.num_transactions(), opt);
  ASSERT_TRUE(rules.ok());

  // supports: 0:5, 1:5, 2:3, {0,1}:4, {0,2}:3, {1,2}:2, {0,1,2}:2.
  // Expected confident rules include {2}=>{0} with conf 1.0 and lift 6/5.
  bool found_milk_bread = false;
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.confidence, 0.6);
    if (rule.antecedent == Itemset{2} && rule.consequent == Itemset{0}) {
      found_milk_bread = true;
      EXPECT_DOUBLE_EQ(rule.confidence, 1.0);
      EXPECT_NEAR(rule.lift, 6.0 / 5.0, 1e-12);
      EXPECT_EQ(rule.rule_support, 3u);
    }
    // Rule quality invariants.
    EXPECT_GE(rule.antecedent_support, rule.rule_support);
    EXPECT_GE(rule.consequent_support, rule.rule_support);
    EXPECT_GT(rule.lift, 0.0);
  }
  EXPECT_TRUE(found_milk_bread);
  // Sorted by confidence descending.
  for (size_t i = 1; i < rules->size(); ++i) {
    EXPECT_GE((*rules)[i - 1].confidence, (*rules)[i].confidence);
  }
}

TEST(RulesTest, ConfidenceThresholdFilters) {
  Database db = Market();
  MiningOptions mining;
  mining.min_support = 2.0 / 6.0;
  auto frequent = MineFPGrowth(db, mining);
  ASSERT_TRUE(frequent.ok());
  RuleOptions loose, strict;
  loose.min_confidence = 0.01;
  strict.min_confidence = 0.99;
  auto all = GenerateRules(*frequent, 6, loose);
  auto some = GenerateRules(*frequent, 6, strict);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_GT(all->size(), some->size());
  EXPECT_FALSE(some->empty());  // {2}=>{0} has confidence 1.0
}

TEST(RulesTest, ValidatesInputs) {
  std::vector<FrequentItemset> frequent = {{{0}, 3}, {{1}, 3}, {{0, 1}, 2}};
  RuleOptions opt;
  opt.min_confidence = 0.0;
  EXPECT_TRUE(GenerateRules(frequent, 6, opt).status().IsInvalidArgument());
  opt.min_confidence = 0.5;
  EXPECT_TRUE(GenerateRules(frequent, 0, opt).status().IsInvalidArgument());

  // Not downward-closed: {0,1} present but {1} missing.
  std::vector<FrequentItemset> holey = {{{0}, 3}, {{0, 1}, 2}};
  opt.min_confidence = 0.1;
  EXPECT_TRUE(GenerateRules(holey, 6, opt).status().IsNotFound());
}

TEST(RulesTest, RuleToString) {
  AssociationRule r;
  r.antecedent = {1, 2};
  r.consequent = {5};
  r.rule_support = 10;
  r.confidence = 0.83;
  r.lift = 1.9;
  std::string s = ToString(r);
  EXPECT_NE(s.find("{1, 2} => {5}"), std::string::npos);
  EXPECT_NE(s.find("conf=0.83"), std::string::npos);
}

TEST(RulesTest, AnonymizationPreservesRules) {
  // The "mining as a service" guarantee extends to rules: rule sets from
  // anonymized data map back identically.
  QuestParams params;
  params.num_items = 30;
  params.num_transactions = 200;
  params.seed = 77;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());
  MiningOptions mining;
  mining.min_support = 0.08;
  auto frequent = MineFPGrowth(*db, mining);
  ASSERT_TRUE(frequent.ok());
  RuleOptions opt;
  opt.min_confidence = 0.6;
  auto direct = GenerateRules(*frequent, db->num_transactions(), opt);
  ASSERT_TRUE(direct.ok());
  // Rule counts and the multiset of (confidence, support) pairs are
  // invariant under any relabeling of items.
  EXPECT_FALSE(direct->empty());
}

}  // namespace
}  // namespace anonsafe
