// The adversary registry: params round-trips, spec parsing, the three
// built-in models' Bind semantics (interval parity with the historical
// belief builder, probabilistic weights, exact-support point pins), the
// recipe integration (weighted models only on the OE path), RiskReport
// provenance, and the canned datagen scenarios.

#include "adversary/adversary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "adversary/exact_support.h"
#include "belief/builders.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/risk_report.h"
#include "data/database.h"
#include "data/frequency.h"
#include "datagen/adversary_scenarios.h"
#include "util/rng.h"

namespace anonsafe {
namespace adversary {
namespace {

Result<FrequencyTable> MakeTable() {
  // Supports 10, 11, 12 (tight run), 40, 41 and 80 over m = 100: six
  // groups with small gaps at the rare end.
  return FrequencyTable::FromSupports({10, 11, 12, 40, 41, 80}, 100);
}

// ----------------------------------------------------------------- Params

TEST(AdversaryParamsTest, SetFindGetToString) {
  AdversaryParams p;
  p.Set("span", 2.0);
  p.Set("sigma", 1.5);
  p.Set("span", 3.0);  // replaces in place, keeps insertion order
  ASSERT_NE(p.Find("span"), nullptr);
  EXPECT_EQ(*p.Find("span"), 3.0);
  EXPECT_EQ(p.Find("nope"), nullptr);
  EXPECT_EQ(p.GetOr("sigma", 9.0), 1.5);
  EXPECT_EQ(p.GetOr("nope", 9.0), 9.0);
  auto got = p.Get("sigma");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1.5);
  EXPECT_TRUE(p.Get("nope").status().IsInvalidArgument());
  EXPECT_EQ(p.Get("nope").status().message(),
            "missing adversary parameter 'nope'");
  EXPECT_EQ(p.ToString(), "span=3,sigma=1.5");
}

TEST(AdversaryParamsTest, JsonRoundTrip) {
  AdversaryParams p;
  p.Set("k", 4.0);
  p.Set("sigma", 0.25);
  auto back = AdversaryParams::FromJson(p.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values, p.values);
  EXPECT_EQ(back->ToJson().Dump(), p.ToJson().Dump());
  // Empty params render as an empty object and round-trip too.
  AdversaryParams empty;
  auto empty_back = AdversaryParams::FromJson(empty.ToJson());
  ASSERT_TRUE(empty_back.ok());
  EXPECT_TRUE(empty_back->values.empty());
  EXPECT_EQ(AdversaryParams::FromJson(json::Value(1.0)).status().message(),
            "adversary params must be a JSON object");
  EXPECT_EQ(AdversaryParams::FromJson(*json::Value::Parse("{\"k\":\"2\"}"))
                .status()
                .message(),
            "adversary param 'k' must be a number");
}

// --------------------------------------------------------------- Registry

TEST(AdversaryRegistryTest, FixedOrderAndLookup) {
  const auto& all = Adversary::All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[0]->name(), "interval");
  EXPECT_STREQ(all[1]->name(), "probabilistic");
  EXPECT_STREQ(all[2]->name(), "exact_support");
  for (const Adversary* a : all) {
    EXPECT_EQ(Adversary::Find(a->name()), a);
  }
  EXPECT_EQ(Adversary::Find("laplace"), nullptr);
}

TEST(AdversaryRegistryTest, DescriptionsMatchCapabilities) {
  AdversaryDescription interval = Adversary::Find("interval")->Describe();
  EXPECT_FALSE(interval.weighted);
  EXPECT_TRUE(interval.supports_exact);
  EXPECT_EQ(interval.params, (std::vector<std::string>{}));

  AdversaryDescription prob = Adversary::Find("probabilistic")->Describe();
  EXPECT_TRUE(prob.weighted);
  EXPECT_FALSE(prob.supports_exact);
  EXPECT_EQ(prob.params, (std::vector<std::string>{"span", "sigma"}));

  AdversaryDescription exact = Adversary::Find("exact_support")->Describe();
  EXPECT_FALSE(exact.weighted);
  EXPECT_TRUE(exact.supports_exact);
  EXPECT_EQ(exact.params, (std::vector<std::string>{"k"}));

  // The JSON surface used by server_info carries all of it.
  json::Value doc = prob.ToJson();
  EXPECT_EQ(doc.GetString("name").value_or(""), "probabilistic");
  EXPECT_TRUE(doc.Find("weighted")->AsBool());
  EXPECT_EQ(doc.Find("params")->items().size(), 2u);
}

TEST(AdversaryRegistryTest, UnknownParameterRejected) {
  for (const Adversary* a : Adversary::All()) {
    AdversaryParams p;
    p.Set("bogus", 1.0);
    Status status = a->ValidateParams(p);
    ASSERT_FALSE(status.ok()) << a->name();
    EXPECT_TRUE(status.IsInvalidArgument()) << a->name();
    EXPECT_EQ(status.message(), std::string("unknown parameter 'bogus' for "
                                            "adversary '") +
                                    a->name() + "'");
  }
}

// ------------------------------------------------------------ Spec parsing

TEST(AdversarySpecTest, ParsesNameAndParams) {
  auto bare = ParseAdversarySpec("interval");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->name, "interval");
  EXPECT_TRUE(bare->params.values.empty());
  EXPECT_EQ(bare->ToString(), "interval");

  auto full = ParseAdversarySpec("probabilistic:span=3,sigma=0.5");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->name, "probabilistic");
  EXPECT_EQ(full->params.GetOr("span", 0.0), 3.0);
  EXPECT_EQ(full->params.GetOr("sigma", 0.0), 0.5);
  EXPECT_EQ(full->ToString(), "probabilistic:span=3,sigma=0.5");
}

TEST(AdversarySpecTest, RejectsBadSpecs) {
  EXPECT_TRUE(ParseAdversarySpec("").status().IsInvalidArgument());
  EXPECT_EQ(ParseAdversarySpec("laplace").status().ToString(),
            "InvalidArgument: unknown adversary 'laplace' (known: interval, "
            "probabilistic, exact_support)");
  EXPECT_TRUE(
      ParseAdversarySpec("interval:bogus=1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseAdversarySpec("probabilistic:span")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseAdversarySpec("probabilistic:span=x")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseAdversarySpec("probabilistic:sigma=-1")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseAdversarySpec("exact_support:k=0")
                  .status()
                  .IsInvalidArgument());
}

// ------------------------------------------------------- IntervalAdversary

TEST(IntervalAdversaryTest, BindMatchesCompliantIntervalBelief) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  const double delta = groups.MedianGap();

  auto model = Adversary::Find("interval")->Bind(*table, groups, delta, {});
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->weighted());
  EXPECT_EQ(model->SpecString(), "interval");

  auto legacy = MakeCompliantIntervalBelief(*table, delta);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(model->belief.num_items(), legacy->num_items());
  for (ItemId x = 0; x < legacy->num_items(); ++x) {
    EXPECT_EQ(model->belief.interval(x).lo, legacy->interval(x).lo) << x;
    EXPECT_EQ(model->belief.interval(x).hi, legacy->interval(x).hi) << x;
  }

  // And the model O-estimate is bit-identical to the historical one.
  auto via_model = ComputeOEstimateForModel(groups, *model);
  auto via_belief = ComputeOEstimate(groups, *legacy);
  ASSERT_TRUE(via_model.ok());
  ASSERT_TRUE(via_belief.ok());
  EXPECT_EQ(via_model->expected_cracks, via_belief->expected_cracks);
}

// -------------------------------------------------- ProbabilisticAdversary

TEST(ProbabilisticAdversaryTest, WeightWindowsCoverStabRanges) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  AdversaryParams params;
  params.Set("span", 2.0);
  params.Set("sigma", 1.0);
  auto model =
      Adversary::Find("probabilistic")->Bind(*table, groups, 0.0, params);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->weighted());
  ASSERT_EQ(model->weights.size(), table->num_items());
  EXPECT_EQ(model->SpecString(), "probabilistic:span=2,sigma=1");

  for (ItemId x = 0; x < table->num_items(); ++x) {
    const ItemWeight& iw = model->weights[x];
    const size_t g = groups.group_of_item(x);
    const size_t lo = g >= 2 ? g - 2 : 0;
    const size_t hi = std::min(groups.num_groups() - 1, g + 2);
    EXPECT_EQ(iw.lo_group, lo) << x;
    ASSERT_EQ(iw.w.size(), hi - lo + 1) << x;
    // The window is anchored on the true group with peak weight 1.
    EXPECT_EQ(iw.true_weight, 1.0) << x;
    for (double w : iw.w) {
      EXPECT_GT(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
    // The structural interval spans exactly the window's frequencies.
    EXPECT_EQ(model->belief.interval(x).lo, groups.group_frequency(lo));
    EXPECT_EQ(model->belief.interval(x).hi, groups.group_frequency(hi));
  }
}

TEST(ProbabilisticAdversaryTest, FlatWeightsReduceToUniformOEstimate) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  AdversaryParams params;
  params.Set("span", 2.0);
  params.Set("sigma", 1e9);  // effectively uniform over the window
  auto model =
      Adversary::Find("probabilistic")->Bind(*table, groups, 0.0, params);
  ASSERT_TRUE(model.ok());

  auto weighted = ComputeOEstimateForModel(groups, *model);
  ASSERT_TRUE(weighted.ok());
  // Same structural belief, uniform weights: the weighted outdegree
  // collapses to the paper's 1/O_x.
  auto uniform = ComputeOEstimate(groups, model->belief);
  ASSERT_TRUE(uniform.ok());
  EXPECT_NEAR(weighted->expected_cracks, uniform->expected_cracks, 1e-9);
}

TEST(ProbabilisticAdversaryTest, TighterSigmaRaisesRisk) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  double prev = 0.0;
  // Concentrating mass on the true group monotonically raises the
  // weighted crack probability of every item.
  for (double sigma : {4.0, 1.0, 0.25}) {
    AdversaryParams params;
    params.Set("span", 2.0);
    params.Set("sigma", sigma);
    auto model =
        Adversary::Find("probabilistic")->Bind(*table, groups, 0.0, params);
    ASSERT_TRUE(model.ok());
    auto oe = ComputeOEstimateForModel(groups, *model);
    ASSERT_TRUE(oe.ok());
    EXPECT_GT(oe->expected_cracks, prev) << "sigma=" << sigma;
    prev = oe->expected_cracks;
  }
}

TEST(ProbabilisticAdversaryTest, RecipeAcceptsOnlyOEstimatorPath) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.adversary = "probabilistic";
  options.adversary_params.Set("span", 1.0);
  auto assessed = AssessRisk(*table, options);
  ASSERT_TRUE(assessed.ok());
  EXPECT_EQ(assessed->adversary, "probabilistic");
  EXPECT_EQ(assessed->adversary_params.ToString(), "span=1");

  for (EstimatorKind kind :
       {EstimatorKind::kAuto, EstimatorKind::kExact, EstimatorKind::kSampler}) {
    RecipeOptions rejected = options;
    rejected.estimator = kind;
    EXPECT_TRUE(AssessRisk(*table, rejected).status().IsUnimplemented());
  }
}

// -------------------------------------------------- ExactSupportAdversary

TEST(ExactSupportAdversaryTest, SelectsRarestGroupsFirst) {
  // Group sizes 3 (support 5), 2 (support 20), 1 (support 60): the
  // adversary learns the most identifying supports first.
  auto table =
      FrequencyTable::FromSupports({5, 5, 5, 20, 20, 60}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Item 5 sits alone (group size 1), items 3/4 share (size 2), items
  // 0/1/2 share (size 3); ties break by item id.
  EXPECT_EQ(SelectExactSupportItems(groups, 3),
            (std::vector<ItemId>{5, 3, 4}));
  EXPECT_EQ(SelectExactSupportItems(groups, 99).size(), 6u);  // clamped
}

TEST(ExactSupportAdversaryTest, BindPinsKnownItemsOnly) {
  auto table = FrequencyTable::FromSupports({5, 5, 5, 20, 20, 60}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  AdversaryParams params;
  params.Set("k", 2.0);
  auto model =
      Adversary::Find("exact_support")->Bind(*table, groups, 0.0, params);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->weighted());

  // Known: item 5 (singleton group) and item 3 (size-2 group).
  EXPECT_TRUE(model->belief.interval(5).IsPoint());
  EXPECT_EQ(model->belief.interval(5).lo, table->frequency(5));
  EXPECT_TRUE(model->belief.interval(3).IsPoint());
  // The rest are ignorant.
  for (ItemId x : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(model->belief.interval(x).lo, 0.0) << x;
    EXPECT_EQ(model->belief.interval(x).hi, 1.0) << x;
  }
}

TEST(ExactSupportAdversaryTest, RecipeRiskGrowsWithK) {
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  double prev = -1.0;
  for (double k : {1.0, 3.0, 6.0}) {
    RecipeOptions options;
    options.adversary = "exact_support";
    options.adversary_params.Set("k", k);
    auto assessed = AssessRisk(*table, options);
    ASSERT_TRUE(assessed.ok()) << "k=" << k;
    EXPECT_GE(assessed->interval_oe, prev) << "k=" << k;
    prev = assessed->interval_oe;
  }
}

TEST(ExactSupportAdversaryTest, ConstrainedAttackOnTinyInstance) {
  // 4 items over supports {6,7,6,7}: two frequency groups of two. The
  // adversary pins items 0 and 1 (point intervals); items 2 and 3 stay
  // fully ignorant, so 2·2·2 = 8 assignments are structurally possible.
  // The instance is deliberately symmetric — every candidate pair for
  // the pinned {0,1} has the same pair frequency 0.4 — so the pair
  // constraint prunes nothing and the exact expectation over the 8
  // matchings is (4+2+1+2+2+1+0+0)/8 = 1.5.
  auto db = Database::FromTransactions(
      4, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}});
  ASSERT_TRUE(db.ok());
  AdversaryParams params;
  params.Set("k", 2.0);
  auto attack = RunExactSupportAttack(*db, params);
  ASSERT_TRUE(attack.ok()) << attack.status();
  EXPECT_EQ(attack->known_items, (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(attack->distribution.num_matchings, 8u);
  ASSERT_EQ(attack->distribution.probability.size(), 5u);  // n + 1
  double total = 0.0;
  for (double p : attack->distribution.probability) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(attack->distribution.expected, 1.5, 1e-9);
}

TEST(ExactSupportAdversaryTest, AssessRiskForItemsBindsThroughRegistry) {
  // The items-of-interest recipe binds the adversary as AssessRisk does
  // and restricts the bound model's O-estimate to the mask.
  auto table = MakeTable();
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.adversary = "exact_support";
  options.adversary_params.Set("k", 2.0);
  std::vector<bool> interest(table->num_items(), false);
  interest[0] = true;
  auto result = AssessRiskForItems(*table, interest, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->adversary, "exact_support");
  EXPECT_EQ(result->num_items, 1u);
  EXPECT_NE(result->decision, RecipeDecision::kDiscloseAtPointValued);

  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto model = Adversary::Find("exact_support")
                   ->Bind(*table, groups, groups.MedianGap(),
                          options.adversary_params);
  ASSERT_TRUE(model.ok());
  auto oe = ComputeOEstimateForModel(groups, *model, {}, nullptr, &interest);
  ASSERT_TRUE(oe.ok());
  EXPECT_EQ(result->interval_oe, oe->expected_cracks);
}

// ------------------------------------------------------ RiskReport JSON

TEST(AdversaryProvenanceTest, ReportJsonRoundTripsAdversary) {
  auto db = Database::FromTransactions(
      4, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}});
  ASSERT_TRUE(db.ok());

  RiskReportOptions options;
  options.include_similarity_curve = false;
  options.recipe.adversary = "probabilistic";
  options.recipe.adversary_params.Set("span", 1.0);
  options.recipe.adversary_params.Set("sigma", 0.5);
  auto report = BuildRiskReport(*db, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recipe.adversary, "probabilistic");

  json::Value doc = report->ToJson();
  const json::Value* recipe = doc.Find("recipe");
  ASSERT_NE(recipe, nullptr);
  EXPECT_EQ(recipe->GetString("adversary").value_or(""), "probabilistic");
  auto back = RiskReport::FromJson(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->recipe.adversary, "probabilistic");
  EXPECT_EQ(back->recipe.adversary_params.ToString(), "span=1,sigma=0.5");
  EXPECT_EQ(back->ToJson().Dump(), doc.Dump());
}

TEST(AdversaryProvenanceTest, DefaultIntervalKeepsHistoricalBytes) {
  auto db = Database::FromTransactions(
      4, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}});
  ASSERT_TRUE(db.ok());
  RiskReportOptions options;
  options.include_similarity_curve = false;
  auto report = BuildRiskReport(*db, options);
  ASSERT_TRUE(report.ok());
  // The default adversary is pure provenance noise for existing readers:
  // the field is omitted entirely, so pre-adversary documents and new
  // default documents are the same bytes.
  json::Value doc = report->ToJson();
  const json::Value* recipe = doc.Find("recipe");
  ASSERT_NE(recipe, nullptr);
  EXPECT_EQ(recipe->Find("adversary"), nullptr);
  EXPECT_EQ(recipe->Find("adversary_params"), nullptr);
  auto back = RiskReport::FromJson(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->recipe.adversary, "interval");
  EXPECT_TRUE(back->recipe.adversary_params.values.empty());
}

// ------------------------------------------------------------- Scenarios

TEST(AdversaryScenarioTest, ScenariosAreWellFormedAndReplayable) {
  const auto& all = AllAdversaryScenarios();
  ASSERT_EQ(all.size(), 4u);
  for (const AdversaryScenario& s : all) {
    auto found = FindAdversaryScenario(s.name);
    ASSERT_TRUE(found.ok()) << s.name;
    EXPECT_EQ(*found, &s);
    // Every scenario's spec parses against the real registry.
    auto spec = ParseAdversarySpec(s.adversary_spec);
    ASSERT_TRUE(spec.ok()) << s.name << ": " << spec.status();
    EXPECT_NE(Adversary::Find(spec->name), nullptr);
  }
  EXPECT_TRUE(FindAdversaryScenario("nope").status().IsInvalidArgument());
}

TEST(AdversaryScenarioTest, ScenarioDatabasesAreDeterministic) {
  auto scenario = FindAdversaryScenario("exact_support_chess");
  ASSERT_TRUE(scenario.ok());
  auto a = MakeScenarioDatabase(**scenario);
  auto b = MakeScenarioDatabase(**scenario);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->transactions(), b->transactions());
  EXPECT_GT(a->num_transactions(), 0u);
}

TEST(AdversaryScenarioTest, ScenariosAssessEndToEnd) {
  // Each canned scenario runs the full recipe under its adversary spec.
  for (const AdversaryScenario& s : AllAdversaryScenarios()) {
    auto db = MakeScenarioDatabase(s);
    ASSERT_TRUE(db.ok()) << s.name;
    auto table = FrequencyTable::Compute(*db);
    ASSERT_TRUE(table.ok()) << s.name;
    auto spec = ParseAdversarySpec(s.adversary_spec);
    ASSERT_TRUE(spec.ok()) << s.name;
    RecipeOptions options;
    options.adversary = spec->name;
    options.adversary_params = spec->params;
    auto assessed = AssessRisk(*table, options);
    ASSERT_TRUE(assessed.ok()) << s.name << ": " << assessed.status();
    EXPECT_EQ(assessed->adversary, spec->name) << s.name;
    EXPECT_GE(assessed->interval_oe, 0.0) << s.name;
  }
}

}  // namespace
}  // namespace adversary
}  // namespace anonsafe
