#include <gtest/gtest.h>

#include "belief/builders.h"
#include "belief/chain.h"
#include "core/alpha_sweep.h"
#include "core/exact_formulas.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Result<FrequencyTable> BigMartTable() {
  return FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
}

// ----------------------------------------------------------- Lemmas 1 to 4

TEST(ExactFormulasTest, Lemma1) {
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracks(0), 0.0);
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracks(1), 1.0);
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracks(1000000), 1.0);
}

TEST(ExactFormulasTest, Lemma2) {
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracksOfInterest(100, 25), 0.25);
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracksOfInterest(100, 0), 0.0);
  EXPECT_DOUBLE_EQ(IgnorantExpectedCracksOfInterest(100, 100), 1.0);
}

TEST(ExactFormulasTest, Lemma3OnBigMart) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  EXPECT_DOUBLE_EQ(PointValuedExpectedCracks(groups), 3.0);
}

TEST(ExactFormulasTest, Lemma4OnBigMart) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Interested in items 1 (singleton group -> certain crack) and 0 (one
  // of four in the 0.5 group -> 1/4).
  std::vector<bool> interest = {true, true, false, false, false, false};
  auto expected = PointValuedExpectedCracksOfInterest(groups, interest);
  ASSERT_TRUE(expected.ok());
  EXPECT_DOUBLE_EQ(*expected, 1.0 + 0.25);

  std::vector<bool> wrong(2, true);
  EXPECT_TRUE(PointValuedExpectedCracksOfInterest(groups, wrong)
                  .status().IsInvalidArgument());
}

// --------------------------------------------------------------- OEstimate

TEST(OEstimateTest, IgnorantBeliefGivesSumOverN) {
  // Without propagation, every outdegree is n: OE = n * (1/n) = 1,
  // matching Lemma 1 exactly on the complete graph.
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  OEstimateOptions opt;
  opt.propagate = false;
  auto oe = ComputeOEstimate(groups, MakeIgnorantBelief(6), opt);
  ASSERT_TRUE(oe.ok());
  EXPECT_NEAR(oe->expected_cracks, 1.0, 1e-12);
  EXPECT_NEAR(oe->fraction, 1.0 / 6.0, 1e-12);
}

TEST(OEstimateTest, PointValuedBeliefGivesLemma3) {
  // Point-valued: outdegree of x = size of its own group, so
  // OE = sum over groups of n_i * (1/n_i) = g.
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  OEstimateOptions opt;
  opt.propagate = false;
  auto oe = ComputeOEstimate(groups, *beta, opt);
  ASSERT_TRUE(oe.ok());
  EXPECT_NEAR(oe->expected_cracks, 3.0, 1e-12);
}

TEST(OEstimateTest, ChainClosedFormMatches) {
  // On a realized chain, the generic O-estimate (without propagation)
  // must equal the Section 5.2 closed form.
  ChainSpec spec;
  spec.n = {5, 3};
  spec.e = {3, 2};
  spec.s = {3};
  auto realized = RealizeChain(spec, 120);
  ASSERT_TRUE(realized.ok());
  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  OEstimateOptions opt;
  opt.propagate = false;
  auto generic = ComputeOEstimate(groups, realized->belief, opt);
  auto closed = ChainOEstimate(spec);
  ASSERT_TRUE(generic.ok());
  ASSERT_TRUE(closed.ok());
  EXPECT_NEAR(generic->expected_cracks, *closed, 1e-12);
  EXPECT_NEAR(generic->expected_cracks, 197.0 / 120.0, 1e-12);
}

TEST(OEstimateTest, PropagationTurnsStaircaseIntoFourCracks) {
  // Figure 6(a): naive OE is 25/12; with propagation it is exactly 4.
  auto table = FrequencyTable::FromSupports({10, 20, 30, 40}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto staircase = BeliefFunction::Create({{0.05, 0.15},
                                           {0.05, 0.25},
                                           {0.05, 0.35},
                                           {0.05, 0.45}});
  ASSERT_TRUE(staircase.ok());

  OEstimateOptions no_prop;
  no_prop.propagate = false;
  auto naive = ComputeOEstimate(groups, *staircase, no_prop);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(naive->expected_cracks, 25.0 / 12.0, 1e-12);

  auto propagated = ComputeOEstimate(groups, *staircase);
  ASSERT_TRUE(propagated.ok());
  EXPECT_NEAR(propagated->expected_cracks, 4.0, 1e-12);
  EXPECT_EQ(propagated->forced_items, 4u);
  EXPECT_GT(propagated->propagation_passes, 0u);
}

TEST(OEstimateTest, DeadItemsContributeZero) {
  auto table = FrequencyTable::FromSupports({10, 20}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create({{0.05, 0.25}, {0.5, 0.6}});
  ASSERT_TRUE(beta.ok());
  OEstimateOptions opt;
  opt.propagate = false;
  auto oe = ComputeOEstimate(groups, *beta, opt);
  ASSERT_TRUE(oe.ok());
  EXPECT_EQ(oe->dead_items, 1u);
  EXPECT_TRUE(oe->contradiction);
  EXPECT_NEAR(oe->expected_cracks, 0.5, 1e-12);  // only item 0: 1/2
}

TEST(OEstimateTest, RestrictedSumsOnlyIncludedItems) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  OEstimateOptions opt;
  opt.propagate = false;
  // Only the singleton-group items 1 (f=.4) and 4 (f=.3).
  std::vector<bool> include = {false, true, false, false, true, false};
  auto oe = ComputeOEstimate(groups, *beta, opt, nullptr, &include);
  ASSERT_TRUE(oe.ok());
  EXPECT_NEAR(oe->expected_cracks, 2.0, 1e-12);
  std::vector<bool> bad(3, true);
  EXPECT_TRUE(ComputeOEstimate(groups, *beta, opt, nullptr, &bad)
                  .status().IsInvalidArgument());
}

TEST(OEstimateTest, MonotonicityLemma8) {
  // Wider intervals => smaller OE (without propagation, per Lemma 8).
  Rng rng(3);
  auto profile = FrequencyProfile::Create(
      1000, {{10, 3}, {50, 2}, {200, 4}, {400, 1}, {700, 2}});
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 1000);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  OEstimateOptions opt;
  opt.propagate = false;
  double prev = 1e18;
  for (double delta : {0.0, 0.01, 0.05, 0.1, 0.3, 1.0}) {
    auto beta = MakeCompliantIntervalBelief(*table, delta);
    ASSERT_TRUE(beta.ok());
    auto oe = ComputeOEstimate(groups, *beta, opt);
    ASSERT_TRUE(oe.ok());
    EXPECT_LE(oe->expected_cracks, prev + 1e-12) << "delta=" << delta;
    prev = oe->expected_cracks;
  }
}

// -------------------------------------------------------------- AlphaSweep

TEST(AlphaSweepTest, EndpointsAndMonotonicity) {
  auto profile = FrequencyProfile::Create(
      500, {{5, 2}, {20, 3}, {80, 1}, {150, 2}, {300, 2}});
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 500);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto base = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(base.ok());

  auto sweep = AlphaCompliancySweep::Create(*table, *base, 5, 99);
  ASSERT_TRUE(sweep.ok());
  const AlphaCompliancySweep::ProbeCache cache = sweep->MakeProbeCache(groups);

  auto at_zero = sweep->AverageOEstimate(groups, cache, 0.0);
  ASSERT_TRUE(at_zero.ok());
  EXPECT_NEAR(*at_zero, 0.0, 1e-12);

  auto full = ComputeOEstimate(groups, *base);
  auto at_one = sweep->AverageOEstimate(groups, cache, 1.0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(at_one.ok());
  EXPECT_NEAR(*at_one, full->expected_cracks, 1e-9);

  double prev = -1.0;
  for (double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto avg = sweep->AverageOEstimate(groups, cache, alpha);
    ASSERT_TRUE(avg.ok());
    EXPECT_GE(*avg, prev - 1e-9) << "alpha=" << alpha;
    prev = *avg;
  }
}

TEST(AlphaSweepTest, BeliefAtProducesRequestedCompliance) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  auto base = MakeCompliantIntervalBelief(*table, 0.05);
  ASSERT_TRUE(base.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *base, 3, 5);
  ASSERT_TRUE(sweep.ok());
  auto ab = sweep->BeliefAt(0, 0.5);
  ASSERT_TRUE(ab.ok());
  auto measured = ab->belief.ComplianceFraction(*table);
  ASSERT_TRUE(measured.ok());
  EXPECT_NEAR(*measured, 0.5, 1e-12);
  // Nested: items compliant at 0.3 are compliant at 0.8.
  auto lo = sweep->BeliefAt(1, 0.3);
  auto hi = sweep->BeliefAt(1, 0.8);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  for (size_t x = 0; x < 6; ++x) {
    if (lo->compliant_mask[x]) {
      EXPECT_TRUE(hi->compliant_mask[x]);
    }
  }
  // A run index past the sweep is an error, not UB.
  EXPECT_TRUE(sweep->BeliefAt(3, 0.5).status().IsOutOfRange());
}

TEST(AlphaSweepTest, ValidatesInputs) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  auto base = MakeCompliantIntervalBelief(*table, 0.05);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(AlphaCompliancySweep::Create(*table, *base, 0, 1)
                  .status().IsInvalidArgument());
  auto bad = BeliefFunction::Create(
      std::vector<BeliefInterval>(6, BeliefInterval{0.95, 1.0}));
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(AlphaCompliancySweep::Create(*table, *bad, 3, 1)
                  .status().IsFailedPrecondition());
}

// ------------------------------------------------------------------ Recipe

TEST(RecipeTest, DisclosesWhenGroupsWithinTolerance) {
  // 3 groups, 30 items, tolerance 0.2 -> budget 6 >= g=3: disclose.
  std::vector<ProfileGroup> pg = {{10, 10}, {50, 10}, {90, 10}};
  auto profile = FrequencyProfile::Create(100, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 100);
  ASSERT_TRUE(table.ok());
  RecipeOptions opt;
  opt.tolerance = 0.2;
  auto result = AssessRisk(*table, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->decision, RecipeDecision::kDiscloseAtPointValued);
  EXPECT_EQ(result->num_groups, 3u);
  EXPECT_DOUBLE_EQ(result->alpha_max, 1.0);
  EXPECT_FALSE(result->Summary().empty());
}

TEST(RecipeTest, AlphaBoundWhenFullComplianceTooRisky) {
  // All singleton groups: point-valued cracks everything; with small
  // tolerance the recipe must fall through to the alpha search.
  std::vector<ProfileGroup> pg;
  for (SupportCount s = 1; s <= 20; ++s) pg.push_back({s * 40, 1});
  auto profile = FrequencyProfile::Create(1000, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 1000);
  ASSERT_TRUE(table.ok());
  RecipeOptions opt;
  opt.tolerance = 0.3;
  opt.exec.runs = 3;
  auto result = AssessRisk(*table, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->decision, RecipeDecision::kAlphaBound);
  EXPECT_GT(result->alpha_max, 0.0);
  EXPECT_LT(result->alpha_max, 1.0);
  // At alpha_max the average OE is within budget.
  auto base = MakeCompliantIntervalBelief(*table, result->delta_med);
  ASSERT_TRUE(base.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *base, 3,
                                            opt.exec.seed);
  ASSERT_TRUE(sweep.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto at_max = sweep->AverageOEstimate(
      groups, sweep->MakeProbeCache(groups), result->alpha_max);
  ASSERT_TRUE(at_max.ok());
  EXPECT_LE(*at_max, result->crack_budget + 1e-9);
}

TEST(RecipeTest, ValidatesOptions) {
  auto table = BigMartTable();
  ASSERT_TRUE(table.ok());
  RecipeOptions opt;
  opt.tolerance = 0.0;
  EXPECT_TRUE(AssessRisk(*table, opt).status().IsInvalidArgument());
  opt.tolerance = 0.1;
  opt.exec.runs = 0;
  EXPECT_TRUE(AssessRisk(*table, opt).status().IsInvalidArgument());
}

TEST(RecipeTest, DecisionToString) {
  EXPECT_STREQ(ToString(RecipeDecision::kDiscloseAtPointValued),
               "DiscloseAtPointValued");
  EXPECT_STREQ(ToString(RecipeDecision::kDiscloseAtInterval),
               "DiscloseAtInterval");
  EXPECT_STREQ(ToString(RecipeDecision::kAlphaBound), "AlphaBound");
}

// -------------------------------------------------------------- Similarity

TEST(SimilarityTest, CurveShapeOnSyntheticData) {
  Rng rng(13);
  auto profile = FrequencyProfile::Create(
      2000, {{20, 5}, {100, 3}, {300, 3}, {700, 2}, {1200, 2}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());

  SimilarityOptions opt;
  opt.sample_fractions = {0.1, 0.5, 0.9};
  opt.samples_per_fraction = 5;
  auto curve = SimilarityBySampling(*db, opt);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 3u);
  for (const auto& point : *curve) {
    EXPECT_GE(point.mean_alpha, 0.0);
    EXPECT_LE(point.mean_alpha, 1.0);
    EXPECT_GT(point.mean_groups, 0.0);
  }
  // Large samples are very similar data: compliancy should be high.
  EXPECT_GT(curve->back().mean_alpha, 0.6);
}

TEST(SimilarityTest, AverageGapSaturatesCompliancy) {
  // Section 7.4: with the sampled-average width, compliancy is near 1
  // regardless of sample size.
  Rng rng(17);
  auto profile = FrequencyProfile::Create(
      2000, {{20, 5}, {100, 3}, {300, 3}, {700, 2}, {1900, 1}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  SimilarityOptions opt;
  opt.sample_fractions = {0.1, 0.5};
  opt.samples_per_fraction = 5;
  opt.use_average_gap = true;
  auto curve = SimilarityBySampling(*db, opt);
  ASSERT_TRUE(curve.ok());
  for (const auto& point : *curve) {
    EXPECT_GT(point.mean_alpha, 0.85) << "p=" << point.sample_fraction;
  }
}

TEST(SimilarityTest, ValidatesOptions) {
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  SimilarityOptions opt;
  opt.samples_per_fraction = 0;
  EXPECT_TRUE(SimilarityBySampling(db, opt).status().IsInvalidArgument());
  opt = SimilarityOptions{};
  opt.sample_fractions = {};
  EXPECT_TRUE(SimilarityBySampling(db, opt).status().IsInvalidArgument());
  opt = SimilarityOptions{};
  opt.sample_fractions = {1.5};
  EXPECT_TRUE(SimilarityBySampling(db, opt).status().IsInvalidArgument());
}

// -------------------------------------------------------------- RiskReport

TEST(RiskReportTest, EndToEndOnSyntheticData) {
  Rng rng(19);
  auto profile = FrequencyProfile::Create(
      1500, {{15, 4}, {90, 2}, {250, 3}, {600, 2}, {1000, 1}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());

  RiskReportOptions opt;
  opt.similarity.sample_fractions = {0.2, 0.8};
  opt.similarity.samples_per_fraction = 3;
  auto report = BuildRiskReport(*db, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_items, 12u);
  EXPECT_EQ(report->num_transactions, 1500u);
  EXPECT_EQ(report->num_groups, 5u);
  EXPECT_DOUBLE_EQ(report->ignorant_expected_cracks, 1.0);
  EXPECT_DOUBLE_EQ(report->point_valued_expected_cracks, 5.0);
  std::string text = report->ToText();
  EXPECT_NE(text.find("Disclosure Risk Report"), std::string::npos);
  EXPECT_NE(text.find("Recipe (Fig. 8) decision"), std::string::npos);
  EXPECT_NE(text.find("Similarity by sampling"), std::string::npos);
}

TEST(RiskReportTest, MarkdownRendering) {
  Rng rng(29);
  auto profile = FrequencyProfile::Create(300, {{30, 3}, {200, 3}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  RiskReportOptions opt;
  opt.similarity.sample_fractions = {0.5};
  opt.similarity.samples_per_fraction = 2;
  auto report = BuildRiskReport(*db, opt);
  ASSERT_TRUE(report.ok());
  std::string md = report->ToMarkdown();
  EXPECT_NE(md.find("## Disclosure risk report"), std::string::npos);
  EXPECT_NE(md.find("| items (n) | 6 |"), std::string::npos);
  EXPECT_NE(md.find("**Recipe decision (Fig. 8):**"), std::string::npos);
  EXPECT_NE(md.find("| sample % |"), std::string::npos);
  EXPECT_EQ(md.find("%%"), std::string::npos);
}

TEST(RiskReportTest, WithoutSimilarityCurve) {
  Rng rng(23);
  auto profile = FrequencyProfile::Create(300, {{30, 3}, {200, 3}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  RiskReportOptions opt;
  opt.include_similarity_curve = false;
  auto report = BuildRiskReport(*db, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->similarity_curve.empty());
  EXPECT_EQ(report->ToText().find("Similarity by sampling"),
            std::string::npos);
}

}  // namespace
}  // namespace anonsafe
