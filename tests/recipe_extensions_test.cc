#include <gtest/gtest.h>

#include <set>
#include <string>

#include "adversary/adversary.h"
#include "core/recipe.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "datagen/profile.h"
#include "defense/k_anonymity.h"
#include "defense/scheme.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Result<defense::DefensePlan> KAnonymityPlan(const FrequencyTable& table,
                                            size_t k) {
  defense::DefenseParams params;
  params.Set("k", static_cast<double>(k));
  return defense::DefenseScheme::Find("k_anonymity")->Plan(table, params);
}

// ----------------------------------------------------- FrequencyKAnonymity

TEST(KAnonymityTest, MinGroupSize) {
  auto table = FrequencyTable::FromSupports({5, 5, 5, 2, 2, 9}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  EXPECT_EQ(FrequencyKAnonymity(groups), 1u);  // {9} is a singleton

  auto uniform = FrequencyTable::FromSupports({5, 5, 2, 2}, 10);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(FrequencyKAnonymity(FrequencyGroups::Build(*uniform)), 2u);
}

TEST(KAnonymityTest, CrackBound) {
  EXPECT_DOUBLE_EQ(KAnonymityCrackBound(100, 4), 25.0);
  EXPECT_DOUBLE_EQ(KAnonymityCrackBound(100, 1), 100.0);
  EXPECT_DOUBLE_EQ(KAnonymityCrackBound(100, 0), 100.0);
}

TEST(KAnonymityTest, BoundIsValidForPointValuedWorstCase) {
  // For any k-anonymous table, the Lemma 3 worst case g <= n/k.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t g = 2 + rng.UniformUint64(8);
    std::vector<ProfileGroup> groups;
    size_t k = 2 + rng.UniformUint64(4);
    for (size_t i = 0; i < g; ++i) {
      groups.push_back({static_cast<SupportCount>(10 + 11 * i),
                        k + rng.UniformUint64(3)});
    }
    auto profile = FrequencyProfile::Create(200, groups);
    ASSERT_TRUE(profile.ok());
    auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 200);
    ASSERT_TRUE(table.ok());
    FrequencyGroups fg = FrequencyGroups::Build(*table);
    size_t measured_k = FrequencyKAnonymity(fg);
    EXPECT_GE(measured_k, k);
    EXPECT_LE(static_cast<double>(fg.num_groups()),
              KAnonymityCrackBound(profile->num_items(), measured_k) + 1e-9);
  }
}

TEST(KAnonymitySchemeTest, ReachesRequestedK) {
  std::vector<SupportCount> supports;
  for (size_t i = 0; i < 24; ++i) {
    supports.push_back(static_cast<SupportCount>(10 + 7 * i));
  }
  auto table = FrequencyTable::FromSupports(supports, 400);
  ASSERT_TRUE(table.ok());
  for (size_t k : {2u, 4u, 8u}) {
    auto report = KAnonymityPlan(*table, k);
    ASSERT_TRUE(report.ok()) << "k=" << k;
    auto merged = FrequencyTable::FromSupports(report->new_supports, 400);
    ASSERT_TRUE(merged.ok());
    EXPECT_GE(FrequencyKAnonymity(FrequencyGroups::Build(*merged)), k);
  }
}

TEST(KAnonymitySchemeTest, MonotoneDistortionInK) {
  std::vector<SupportCount> supports;
  for (size_t i = 0; i < 30; ++i) {
    supports.push_back(static_cast<SupportCount>(5 + 9 * i));
  }
  auto table = FrequencyTable::FromSupports(supports, 500);
  ASSERT_TRUE(table.ok());
  uint64_t prev = 0;
  for (size_t k : {1u, 2u, 5u, 10u, 30u}) {
    auto report = KAnonymityPlan(*table, k);
    ASSERT_TRUE(report.ok()) << "k=" << k;
    EXPECT_GE(report->l1_distortion, prev) << "k=" << k;
    prev = report->l1_distortion;
  }
}

TEST(KAnonymitySchemeTest, Validation) {
  auto table = FrequencyTable::FromSupports({1, 2, 3}, 10);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(KAnonymityPlan(*table, 0).status().IsInvalidArgument());
  EXPECT_TRUE(KAnonymityPlan(*table, 4).status().IsInvalidArgument());
  auto identity = KAnonymityPlan(*table, 1);
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity->l1_distortion, 0u);
}

// --------------------------------------------------------- AssessRiskForItems

TEST(RecipeForItemsTest, CamouflagedInterestDiscloses) {
  // The interesting items hide in a big frequency group: Lemma 4 gives
  // c/n_group per item, well under tolerance.
  std::vector<ProfileGroup> pg = {{10, 40}, {200, 1}};
  auto profile = FrequencyProfile::Create(400, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 400);
  ASSERT_TRUE(table.ok());
  std::vector<bool> interest(41, false);
  for (size_t i = 0; i < 5; ++i) interest[i] = true;  // 5 of the 40-group

  RecipeOptions options;
  options.tolerance = 0.2;  // budget = 1 crack of 5 interesting items
  auto result = AssessRiskForItems(*table, interest, options);
  ASSERT_TRUE(result.ok());
  // Lemma 4: 5 * (1/40) = 0.125 <= 1.
  EXPECT_EQ(result->decision, RecipeDecision::kDiscloseAtPointValued);
  EXPECT_EQ(result->num_items, 5u);
}

TEST(RecipeForItemsTest, UniqueInterestItemIsRisky) {
  // The single interesting item is frequency-unique: certain crack.
  std::vector<ProfileGroup> pg = {{10, 40}, {200, 1}};
  auto profile = FrequencyProfile::Create(400, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 400);
  ASSERT_TRUE(table.ok());
  std::vector<bool> interest(41, false);
  interest[40] = true;  // the singleton at support 200

  RecipeOptions options;
  options.tolerance = 0.5;  // budget = 0.5 cracks of 1 item
  auto result = AssessRiskForItems(*table, interest, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->decision, RecipeDecision::kAlphaBound);
  EXPECT_LT(result->alpha_max, 1.0);

  auto full = AssessRisk(*table, options);
  ASSERT_TRUE(full.ok());
  // The full-domain recipe would happily disclose (2 groups, 41 items).
  EXPECT_EQ(full->decision, RecipeDecision::kDiscloseAtPointValued);
}

TEST(RecipeForItemsTest, InterestSubsetNeverRiskierThanFullDomain) {
  // Restricting the accounting can only lower the absolute crack count,
  // so alpha_max for a subset is >= alpha_max for the full set whenever
  // both end in the alpha search with proportional budgets... checked
  // here in the simpler form: the interval OE for a subset is <= the
  // full-domain interval OE.
  Rng rng(9);
  std::vector<ProfileGroup> pg;
  for (size_t i = 0; i < 15; ++i) {
    pg.push_back({static_cast<SupportCount>(20 + 13 * i), 1});
  }
  pg.push_back({5, 10});
  auto profile = FrequencyProfile::Create(500, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 500);
  ASSERT_TRUE(table.ok());

  std::vector<bool> interest(profile->num_items(), false);
  for (size_t i = 0; i < profile->num_items(); i += 2) interest[i] = true;

  RecipeOptions options;
  options.tolerance = 0.01;  // force both into the interval computation
  auto sub = AssessRiskForItems(*table, interest, options);
  auto full = AssessRisk(*table, options);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_LE(sub->interval_oe, full->interval_oe + 1e-9);
}

TEST(RecipeForItemsTest, Validation) {
  auto table = FrequencyTable::FromSupports({1, 2}, 10);
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  EXPECT_TRUE(AssessRiskForItems(*table, {true}, options)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(AssessRiskForItems(*table, {false, false}, options)
                  .status().IsInvalidArgument());
  options.tolerance = 0.0;
  EXPECT_TRUE(AssessRiskForItems(*table, {true, true}, options)
                  .status().IsInvalidArgument());
}

TEST(RecipeForItemsTest, AllTrueMaskMatchesAssessRiskForEveryAdversary) {
  // CONNECT ×0.05 stand-in: n=130, g=125. τ=0.97 stops at step 2, 0.6 at
  // step 7 and 0.01 in the α bisection, for every registered adversary.
  Rng rng(3);
  auto db = MakeBenchmarkDatabase(Benchmark::kConnect, &rng, 0.05);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  const std::vector<bool> all(table->num_items(), true);
  for (const adversary::Adversary* adv : adversary::Adversary::All()) {
    std::set<RecipeDecision> decisions;
    for (double tau : {0.97, 0.6, 0.01}) {
      RecipeOptions options;
      options.tolerance = tau;
      options.adversary = adv->name();
      auto full = AssessRisk(*table, options);
      auto items = AssessRiskForItems(*table, all, options);
      ASSERT_TRUE(full.ok()) << full.status();
      ASSERT_TRUE(items.ok()) << items.status();
      SCOPED_TRACE(std::string(adv->name()) + " tau=" + std::to_string(tau));
      EXPECT_EQ(items->decision, full->decision);
      EXPECT_EQ(items->num_items, full->num_items);
      EXPECT_EQ(items->num_groups, full->num_groups);
      EXPECT_EQ(items->delta_med, full->delta_med);
      EXPECT_EQ(items->interval_oe, full->interval_oe);
      EXPECT_EQ(items->alpha_max, full->alpha_max);
      EXPECT_EQ(items->tolerance, full->tolerance);
      EXPECT_EQ(items->crack_budget, full->crack_budget);
      EXPECT_EQ(items->estimator, full->estimator);
      EXPECT_EQ(items->adversary, full->adversary);
      EXPECT_EQ(items->adversary_params.values, full->adversary_params.values);
      EXPECT_EQ(items->interval_exact, full->interval_exact);
      EXPECT_EQ(items->interval_blocks.size(), full->interval_blocks.size());
      decisions.insert(full->decision);
    }
    EXPECT_EQ(decisions.size(), 3u) << adv->name();
  }
}

}  // namespace
}  // namespace anonsafe
