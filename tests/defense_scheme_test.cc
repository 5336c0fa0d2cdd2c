#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "defense/k_anonymity.h"
#include "defense/scheme.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

using defense::DefenseParams;
using defense::DefensePlan;
using defense::DefenseScheme;

FrequencyTable Fixture() {
  // Supports 10, 11, 12 (tight run) and 40 over m = 100: two natural
  // merge clusters, a frequency-unique item for suppression to target.
  auto table = FrequencyTable::FromSupports({10, 11, 12, 40}, 100);
  EXPECT_TRUE(table.ok());
  return *table;
}

// ----------------------------------------------------------------- Params

TEST(DefenseParamsTest, SetFindGet) {
  DefenseParams p;
  p.Set("k", 4.0);
  p.Set("iters", 24.0);
  p.Set("k", 6.0);  // replaces in place, keeps insertion order
  ASSERT_NE(p.Find("k"), nullptr);
  EXPECT_EQ(*p.Find("k"), 6.0);
  EXPECT_EQ(p.Find("nope"), nullptr);
  EXPECT_EQ(p.GetOr("iters", 1.0), 24.0);
  EXPECT_EQ(p.GetOr("nope", 1.0), 1.0);
  auto got = p.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 6.0);
  EXPECT_TRUE(p.Get("nope").status().IsInvalidArgument());
  EXPECT_EQ(p.Get("nope").status().message(),
            "missing defense parameter 'nope'");
  EXPECT_EQ(p.ToString(), "k=6,iters=24");
}

TEST(DefenseParamsTest, JsonRoundTrip) {
  DefenseParams p;
  p.Set("tolerance", 0.1);
  p.Set("rerank_batch", 8.0);
  auto back = DefenseParams::FromJson(p.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values, p.values);
  EXPECT_EQ(back->ToJson().Dump(), p.ToJson().Dump());
  EXPECT_EQ(DefenseParams::FromJson(json::Value(1.0)).status().message(),
            "defense params must be a JSON object");
  EXPECT_EQ(DefenseParams::FromJson(*json::Value::Parse("{\"k\":true}"))
                .status()
                .message(),
            "defense param 'k' must be a number");
}

// --------------------------------------------------------------- Registry

TEST(DefenseRegistryTest, FixedOrderAndLookup) {
  const auto& all = DefenseScheme::All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[0]->name(), "k_anonymity");
  EXPECT_STREQ(all[1]->name(), "group_merge");
  EXPECT_STREQ(all[2]->name(), "suppression");
  for (const DefenseScheme* s : all) {
    EXPECT_EQ(DefenseScheme::Find(s->name()), s);
  }
  EXPECT_EQ(DefenseScheme::Find("differential_privacy"), nullptr);
}

TEST(DefenseRegistryTest, ParamSpacesAreDeterministicAndTyped) {
  FrequencyTable table = Fixture();
  for (const DefenseScheme* s : DefenseScheme::All()) {
    auto grid1 = s->ParamSpace(table);
    auto grid2 = s->ParamSpace(table);
    ASSERT_EQ(grid1.size(), grid2.size()) << s->name();
    for (size_t i = 0; i < grid1.size(); ++i) {
      EXPECT_EQ(grid1[i].values, grid2[i].values) << s->name();
    }
    EXPECT_FALSE(grid1.empty()) << s->name();
  }
}

TEST(DefenseRegistryTest, ParamSpaceEmptyWhenNothingToDefend) {
  // A single frequency group: no merge thresholds exist. The k ladder
  // still offers rungs (they are identity plans), but never beyond n.
  auto table = FrequencyTable::FromSupports({5, 5, 5}, 50);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(
      DefenseScheme::Find("group_merge")->ParamSpace(*table).empty());
  for (const DefenseParams& p :
       DefenseScheme::Find("k_anonymity")->ParamSpace(*table)) {
    EXPECT_LE(p.GetOr("k", 0.0), 3.0);
  }
}

TEST(DefenseRegistryTest, UnknownParameterRejected) {
  FrequencyTable table = Fixture();
  for (const DefenseScheme* s : DefenseScheme::All()) {
    DefenseParams p;
    p.Set("bogus", 1.0);
    auto plan = s->Plan(table, p);
    ASSERT_FALSE(plan.ok()) << s->name();
    EXPECT_TRUE(plan.status().IsInvalidArgument()) << s->name();
    EXPECT_EQ(plan.status().message(),
              std::string("unknown parameter 'bogus' for defense scheme '") +
                  s->name() + "'");
  }
}

// ----------------------------------------------------------- Plan behavior

TEST(DefensePlanBehaviorTest, GroupMergeGapPlan) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("gap", 0.02);
  auto plan = DefenseScheme::Find("group_merge")->Plan(table, p);
  ASSERT_TRUE(plan.ok());

  EXPECT_EQ(plan->scheme, "group_merge");
  // The tight run {10, 11, 12} merges to its weighted median.
  EXPECT_EQ(plan->new_supports, (std::vector<SupportCount>{11, 11, 11, 40}));
  EXPECT_EQ(plan->groups_before, 4u);
  EXPECT_EQ(plan->groups_after, 2u);
  EXPECT_EQ(plan->l1_distortion, 2u);
  EXPECT_EQ(plan->merged_gap, 0.02);
}

TEST(DefensePlanBehaviorTest, GroupMergeTolerancePlanPassesCriterion) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("tolerance", 0.3);
  p.Set("point_valued", 1.0);
  auto plan = DefenseScheme::Find("group_merge")->Plan(table, p);
  ASSERT_TRUE(plan.ok());

  // Point-valued criterion: g <= tau * n groups after the merge.
  auto merged = FrequencyTable::FromSupports(plan->new_supports,
                                             table.num_transactions());
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(FrequencyGroups::Build(*merged).num_groups(),
            static_cast<size_t>(0.3 * static_cast<double>(
                                          table.num_items())) +
                1);
}

TEST(DefensePlanBehaviorTest, GroupMergeRequiresExactlyOneCriterion) {
  FrequencyTable table = Fixture();
  const DefenseScheme* s = DefenseScheme::Find("group_merge");
  DefenseParams none;
  EXPECT_TRUE(s->Plan(table, none).status().IsInvalidArgument());
  DefenseParams both;
  both.Set("gap", 0.02);
  both.Set("tolerance", 0.1);
  EXPECT_TRUE(s->Plan(table, both).status().IsInvalidArgument());
}

TEST(DefensePlanBehaviorTest, KAnonymityPlanReachesK) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("k", 3.0);
  auto plan = DefenseScheme::Find("k_anonymity")->Plan(table, p);
  ASSERT_TRUE(plan.ok());

  EXPECT_EQ(plan->scheme, "k_anonymity");
  auto merged = FrequencyTable::FromSupports(plan->new_supports,
                                             table.num_transactions());
  ASSERT_TRUE(merged.ok());
  EXPECT_GE(FrequencyKAnonymity(FrequencyGroups::Build(*merged)), 3u);
}

TEST(DefensePlanBehaviorTest, KAnonymityValidation) {
  FrequencyTable table = Fixture();
  const DefenseScheme* s = DefenseScheme::Find("k_anonymity");
  DefenseParams zero;
  zero.Set("k", 0.0);
  EXPECT_TRUE(s->Plan(table, zero).status().IsInvalidArgument());
  DefenseParams huge;
  huge.Set("k", 99.0);
  EXPECT_TRUE(s->Plan(table, huge).status().IsInvalidArgument());
  DefenseParams missing;  // missing "k"
  EXPECT_TRUE(s->Plan(table, missing).status().IsInvalidArgument());
}

TEST(DefensePlanBehaviorTest, SuppressionPlanAccounting) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("tolerance", 0.3);
  auto plan = DefenseScheme::Find("suppression")->Plan(table, p);
  ASSERT_TRUE(plan.ok());

  EXPECT_EQ(plan->scheme, "suppression");
  EXPECT_EQ(plan->items_before, 4u);
  EXPECT_EQ(plan->items_after, 4u - plan->suppressed.size());
  EXPECT_FALSE(plan->suppressed.empty());
  // The remaining OE fits the budget tau * n over the ORIGINAL domain.
  EXPECT_LE(plan->oe_after, 0.3 * 4.0);
  EXPECT_GT(plan->oe_before, plan->oe_after);
  EXPECT_GT(plan->occurrence_loss, 0.0);
}

TEST(DefenseWrapperTest, SuppressionSurfacesResidualRanking) {
  // The residual SubdomainRisk ranking used to be computed and dropped;
  // the plan now carries it: every surviving item, ranked, none of the
  // suppressed ones.
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("tolerance", 0.3);
  auto plan = DefenseScheme::Find("suppression")->Plan(table, p);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->suppressed.empty());
  EXPECT_EQ(plan->residual_ranked.size(), plan->items_after);
  for (ItemId dropped : plan->suppressed) {
    for (ItemId kept : plan->residual_ranked) {
      EXPECT_NE(kept, dropped);
    }
  }
}

// ------------------------------------------------------------------ Apply

Database ApplyFixtureDb() {
  auto db = Database::FromTransactions(
      4, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}});
  EXPECT_TRUE(db.ok());
  return *db;
}

TEST(DefenseApplyTest, ApplyIsDeterministicPerSeed) {
  Database db = ApplyFixtureDb();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  const DefenseScheme* s = DefenseScheme::Find("k_anonymity");
  DefenseParams p;
  p.Set("k", 2.0);
  auto plan = s->Plan(*table, p);
  ASSERT_TRUE(plan.ok());

  Rng rng_a(2027), rng_b(2027), rng_c(99);
  auto a = s->Apply(db, *plan, &rng_a);
  auto b = s->Apply(db, *plan, &rng_b);
  auto c = s->Apply(db, *plan, &rng_c);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->transactions(), b->transactions());
  // Different seed may pick different transactions, but the realized
  // supports match the plan either way.
  auto ta = FrequencyTable::Compute(*a);
  auto tc = FrequencyTable::Compute(*c);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(ta->supports(), plan->new_supports);
  EXPECT_EQ(tc->supports(), plan->new_supports);
}

TEST(DefenseApplyTest, ApplyRejectsForeignPlan) {
  Database db = ApplyFixtureDb();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  DefenseParams p;
  p.Set("k", 2.0);
  auto plan = DefenseScheme::Find("k_anonymity")->Plan(*table, p);
  ASSERT_TRUE(plan.ok());
  Rng rng(1);
  auto applied = DefenseScheme::Find("suppression")->Apply(db, *plan, &rng);
  ASSERT_FALSE(applied.ok());
  EXPECT_TRUE(applied.status().IsInvalidArgument());
  EXPECT_NE(applied.status().message().find("k_anonymity"),
            std::string::npos);
}

TEST(DefenseApplyTest, SuppressionApplyDropsItems) {
  // Walk the scheme's own tolerance ladder and take the first feasible
  // plan that actually suppresses — robust to ladder retuning.
  auto db_r = Database::FromTransactions(
      5, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 4}});
  ASSERT_TRUE(db_r.ok());
  Database db = *db_r;
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  const DefenseScheme* s = DefenseScheme::Find("suppression");
  defense::DefensePlan plan_value;
  bool found = false;
  for (const DefenseParams& p : s->ParamSpace(*table)) {
    auto plan = s->Plan(*table, p);
    if (plan.ok() && !plan->suppressed.empty()) {
      plan_value = *plan;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const defense::DefensePlan* plan = &plan_value;
  Rng rng(1);
  auto applied = DefenseScheme::Find("suppression")->Apply(db, *plan, &rng);
  ASSERT_TRUE(applied.ok());
  auto after = FrequencyTable::Compute(*applied);
  ASSERT_TRUE(after.ok());
  for (ItemId dropped : plan->suppressed) {
    EXPECT_EQ(after->supports()[dropped], 0u);
  }
}

// ----------------------------------------------------------- Plan ToJson

TEST(DefensePlanTest, ToJsonIsDeterministic) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("gap", 0.02);
  auto plan = DefenseScheme::Find("group_merge")->Plan(table, p);
  ASSERT_TRUE(plan.ok());
  std::string a = plan->ToJson().Dump();
  std::string b = plan->ToJson().Dump();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"scheme\":\"group_merge\""), std::string::npos);
  EXPECT_NE(a.find("\"params\":{\"gap\":"), std::string::npos);
}

}  // namespace
}  // namespace anonsafe
