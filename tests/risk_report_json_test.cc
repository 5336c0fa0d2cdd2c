#include "core/risk_report.h"

#include <gtest/gtest.h>

#include "data/database.h"

namespace anonsafe {
namespace {

Database SmallDb() {
  // 4 items over 10 transactions — two frequency groups, enough for the
  // recipe to produce a non-trivial α bound.
  std::vector<Transaction> txs = {{0, 1, 2}, {0, 1},    {1, 2, 3}, {0, 2, 3},
                                  {1, 3},    {0, 1, 3}, {2, 3},    {0, 3},
                                  {1, 2},    {0, 1, 2, 3}};
  auto db = Database::FromTransactions(4, std::move(txs));
  EXPECT_TRUE(db.ok());
  return *db;
}

TEST(RiskReportJsonTest, ToJsonCarriesSchemaVersion) {
  auto report = BuildRiskReport(SmallDb());
  ASSERT_TRUE(report.ok());
  json::Value doc = report->ToJson();
  ASSERT_TRUE(doc.is_object());
  auto version = doc.GetNumber("schema_version");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, static_cast<double>(kRiskReportSchemaVersion));
}

TEST(RiskReportJsonTest, RoundTrip) {
  auto report = BuildRiskReport(SmallDb());
  ASSERT_TRUE(report.ok());
  json::Value doc = report->ToJson();
  auto back = RiskReport::FromJson(doc);
  ASSERT_TRUE(back.ok()) << back.status().message();

  EXPECT_EQ(back->num_items, report->num_items);
  EXPECT_EQ(back->num_transactions, report->num_transactions);
  EXPECT_EQ(back->num_groups, report->num_groups);
  EXPECT_EQ(back->num_singleton_groups, report->num_singleton_groups);
  EXPECT_EQ(back->median_gap, report->median_gap);
  EXPECT_EQ(back->mean_gap, report->mean_gap);
  EXPECT_EQ(back->ignorant_expected_cracks,
            report->ignorant_expected_cracks);
  EXPECT_EQ(back->point_valued_expected_cracks,
            report->point_valued_expected_cracks);
  EXPECT_EQ(back->recipe.decision, report->recipe.decision);
  EXPECT_EQ(back->recipe.alpha_max, report->recipe.alpha_max);
  EXPECT_EQ(back->recipe.delta_med, report->recipe.delta_med);
  EXPECT_EQ(back->breaching_sample_fraction,
            report->breaching_sample_fraction);
  ASSERT_EQ(back->similarity_curve.size(), report->similarity_curve.size());
  for (size_t i = 0; i < back->similarity_curve.size(); ++i) {
    EXPECT_EQ(back->similarity_curve[i].sample_fraction,
              report->similarity_curve[i].sample_fraction);
    EXPECT_EQ(back->similarity_curve[i].mean_alpha,
              report->similarity_curve[i].mean_alpha);
  }

  // The strongest form: dump → parse → re-dump is byte-identical.
  EXPECT_EQ(back->ToJson().Dump(), doc.Dump());
}

TEST(RiskReportJsonTest, RoundTripSurvivesTextForm) {
  auto report = BuildRiskReport(SmallDb());
  ASSERT_TRUE(report.ok());
  const std::string text = report->ToJson().Dump();
  auto parsed = json::Value::Parse(text);
  ASSERT_TRUE(parsed.ok());
  auto back = RiskReport::FromJson(*parsed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToJson().Dump(), text);
}

TEST(RiskReportJsonTest, RejectsWrongSchemaVersion) {
  auto report = BuildRiskReport(SmallDb());
  ASSERT_TRUE(report.ok());
  json::Value doc = report->ToJson();
  doc.Set("schema_version", json::Value(kRiskReportSchemaVersion + 1));
  auto back = RiskReport::FromJson(doc);
  EXPECT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument());
}

TEST(RiskReportJsonTest, RejectsMissingSchemaVersionAndNonObjects) {
  EXPECT_FALSE(RiskReport::FromJson(json::Value()).ok());
  EXPECT_FALSE(RiskReport::FromJson(json::Value::Array()).ok());
  EXPECT_FALSE(RiskReport::FromJson(json::Value::Object()).ok());
}

TEST(RiskReportJsonTest, RejectsCountsThatAreNotWholeNumbers) {
  RiskReportOptions options;
  options.recipe.estimator = EstimatorKind::kAuto;  // carries blocks
  options.include_similarity_curve = false;
  auto report = BuildRiskReport(SmallDb(), options);
  ASSERT_TRUE(report.ok());
  const json::Value doc = report->ToJson();
  ASSERT_TRUE(RiskReport::FromJson(doc).ok());
  ASSERT_FALSE(report->recipe.interval_blocks.empty());

  for (double bad : {-1.0, 2.5, 1e30}) {
    json::Value top = doc;
    top.Set("num_items", json::Value(bad));
    Status status = RiskReport::FromJson(top).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("'num_items'"), std::string::npos)
        << status.message();

    json::Value in_block = doc;
    json::Value* recipe = in_block.Find("recipe");
    json::Value block = recipe->Find("interval_blocks")->items()[0];
    block.Set("size", json::Value(bad));
    json::Value blocks = json::Value::Array();
    blocks.Append(std::move(block));
    recipe->Set("interval_blocks", std::move(blocks));
    status = RiskReport::FromJson(in_block).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
    EXPECT_NE(status.message().find("'size'"), std::string::npos)
        << status.message();
  }
}

TEST(RiskReportJsonTest, CurveOmittedWhenDisabled) {
  RiskReportOptions options;
  options.include_similarity_curve = false;
  auto report = BuildRiskReport(SmallDb(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->similarity_curve.empty());
  auto back = RiskReport::FromJson(report->ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->similarity_curve.empty());
}

}  // namespace
}  // namespace anonsafe
