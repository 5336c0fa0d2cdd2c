#include <gtest/gtest.h>

#include "core/recipe.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "defense/group_merge.h"
#include "defense/scheme.h"
#include "defense/suppression.h"
#include "mining/miner.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

// The tests drive the defense through the registry, exactly as callers
// do since the free-function wrappers were retired.
Result<defense::DefensePlan> MergePlanBelowGap(const FrequencyTable& table,
                                               double gap) {
  defense::DefenseParams params;
  params.Set("gap", gap);
  return defense::DefenseScheme::Find("group_merge")->Plan(table, params);
}

Result<defense::DefensePlan> MergePlanToTolerance(const FrequencyTable& table,
                                                  double tolerance,
                                                  bool point_valued) {
  defense::DefenseParams params;
  params.Set("tolerance", tolerance);
  params.Set("point_valued", point_valued ? 1.0 : 0.0);
  return defense::DefenseScheme::Find("group_merge")->Plan(table, params);
}

// --------------------------------------------------- group_merge {gap}

TEST(MergeGroupsTest, ZeroGapIsIdentity) {
  auto table = FrequencyTable::FromSupports({1, 3, 7, 9}, 20);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanBelowGap(*table, 0.0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_after, 4u);
  EXPECT_EQ(report->l1_distortion, 0u);
  EXPECT_EQ(report->new_supports, (std::vector<SupportCount>{1, 3, 7, 9}));
}

TEST(MergeGroupsTest, MergesCloseRuns) {
  // Supports 10, 11, 12 (gaps 0.01) and 40 (gap 0.28) over m=100.
  auto table = FrequencyTable::FromSupports({10, 11, 12, 40}, 100);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanBelowGap(*table, 0.02);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_before, 4u);
  EXPECT_EQ(report->groups_after, 2u);
  // Weighted median of {10, 11, 12} with unit sizes is 11.
  EXPECT_EQ(report->new_supports,
            (std::vector<SupportCount>{11, 11, 11, 40}));
  EXPECT_EQ(report->l1_distortion, 2u);  // |10-11| + |12-11|
}

TEST(MergeGroupsTest, WeightedMedianMinimizesL1) {
  // Sizes matter: supports {10 (x4 items), 20 (x1)} -> median is 10, not
  // 15: moving the single item is cheaper.
  auto table =
      FrequencyTable::FromSupports({10, 10, 10, 10, 20}, 100);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanBelowGap(*table, 0.2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->groups_after, 1u);
  EXPECT_EQ(report->new_supports,
            (std::vector<SupportCount>{10, 10, 10, 10, 10}));
  EXPECT_EQ(report->l1_distortion, 10u);
}

TEST(MergeGroupsTest, DistortionAccounting) {
  auto table = FrequencyTable::FromSupports({10, 12}, 100);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanBelowGap(*table, 0.05);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->l1_distortion, 2u);  // 10 or 12 -> weighted median 10
  EXPECT_NEAR(report->relative_distortion, 2.0 / 22.0, 1e-12);
  EXPECT_TRUE(MergePlanBelowGap(*table, -1.0).status()
                  .IsInvalidArgument());
}

// --------------------------------------------- group_merge {tolerance}

TEST(DefendTest, AlreadySafeNeedsNoPerturbation) {
  // 3 groups, 30 items, tolerance 0.2: g = 3 <= 6 already.
  auto profile = FrequencyProfile::Create(
      100, {{10, 10}, {50, 10}, {90, 10}});
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 100);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanToTolerance(*table, 0.2, /*point_valued=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->l1_distortion, 0u);
}

TEST(DefendTest, ReachesPointValuedBudget) {
  // 20 singleton groups; tolerance 0.25 -> budget 5 groups.
  std::vector<SupportCount> supports(20);
  for (size_t i = 0; i < 20; ++i) supports[i] = 10 + 5 * i;
  auto table = FrequencyTable::FromSupports(supports, 200);
  ASSERT_TRUE(table.ok());
  auto report = MergePlanToTolerance(*table, 0.25, /*point_valued=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->groups_after, 5u);
  EXPECT_GT(report->l1_distortion, 0u);
  // Verify against a fresh grouping of the defended supports.
  auto merged = FrequencyTable::FromSupports(report->new_supports, 200);
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(FrequencyGroups::Build(*merged).num_groups(), 5u);
}

TEST(DefendTest, OEstimateCriterionIsLessAggressive) {
  std::vector<SupportCount> supports(40);
  for (size_t i = 0; i < 40; ++i) supports[i] = 5 + 7 * i;
  auto table = FrequencyTable::FromSupports(supports, 400);
  ASSERT_TRUE(table.ok());
  auto hard = MergePlanToTolerance(*table, 0.15, /*point_valued=*/true);
  auto soft = MergePlanToTolerance(*table, 0.15, /*point_valued=*/false);
  ASSERT_TRUE(hard.ok());
  ASSERT_TRUE(soft.ok());
  // The interval criterion is implied by the point-valued one, never the
  // other way around: distortion needed is no larger.
  EXPECT_LE(soft->l1_distortion, hard->l1_distortion);
}

TEST(DefendTest, TighterToleranceCostsMoreDistortion) {
  std::vector<SupportCount> supports(30);
  for (size_t i = 0; i < 30; ++i) supports[i] = 3 + 11 * i;
  auto table = FrequencyTable::FromSupports(supports, 500);
  ASSERT_TRUE(table.ok());
  uint64_t prev = 0;
  for (double tol : {0.5, 0.3, 0.15, 0.07}) {
    auto report = MergePlanToTolerance(*table, tol, /*point_valued=*/true);
    ASSERT_TRUE(report.ok()) << "tol=" << tol;
    EXPECT_GE(report->l1_distortion, prev) << "tol=" << tol;
    prev = report->l1_distortion;
  }
}

TEST(DefendTest, ValidatesTolerance) {
  auto table = FrequencyTable::FromSupports({5, 10}, 100);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(MergePlanToTolerance(*table, 0.0, false).status()
                  .IsInvalidArgument());
  // budget = 0.2 < 1 crack
  EXPECT_TRUE(MergePlanToTolerance(*table, 0.1, false).status()
                  .IsFailedPrecondition());
}

// ------------------------------------------------------ ApplySupportChanges

/// The after-table of the table-only realization walk (what the sweep
/// scores) on the RNG stream `seed`.
Result<FrequencyTable> WalkTable(const Database& db,
                                 const defense::DefensePlan& plan,
                                 uint64_t seed) {
  Rng rng(seed);
  auto realized =
      defense::internal::Realize(defense::internal::HolderIndex(db), plan,
                                 &rng);
  if (!realized.ok()) return realized.status();
  return realized->Table();
}

/// The walk's table must be the recount of the database Apply
/// materializes from the same stream — or fail with the same error.
void ExpectWalkMatchesRecount(const Result<FrequencyTable>& walked,
                              const Result<Database>& applied) {
  Result<FrequencyTable> recount =
      applied.ok() ? FrequencyTable::Compute(*applied)
                   : Result<FrequencyTable>(applied.status());
  ASSERT_EQ(walked.ok(), recount.ok()) << walked.status().ToString() << " vs "
                                       << recount.status().ToString();
  if (!walked.ok()) {
    EXPECT_EQ(walked.status().ToString(), recount.status().ToString());
    return;
  }
  EXPECT_EQ(walked->supports(), recount->supports());
  EXPECT_EQ(walked->num_transactions(), recount->num_transactions());
}

defense::DefensePlan SupportPlan(std::vector<SupportCount> new_supports) {
  defense::DefensePlan plan;
  plan.new_supports = std::move(new_supports);
  return plan;
}

TEST(ApplyChangesTest, RealizesTargetsExactly) {
  Rng rng(5);
  auto profile = FrequencyProfile::Create(
      60, {{5, 3}, {20, 2}, {40, 2}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  std::vector<SupportCount> targets = {8, 8, 8, 18, 18, 40, 40};
  auto changed = ApplySupportChanges(*db, targets, &rng);
  ASSERT_TRUE(changed.ok());
  auto table = FrequencyTable::Compute(*changed);
  ASSERT_TRUE(table.ok());
  for (ItemId x = 0; x < 7; ++x) {
    EXPECT_EQ(table->support(x), targets[x]) << "item " << x;
  }
  for (const auto& t : changed->transactions()) EXPECT_FALSE(t.empty());
  EXPECT_EQ(changed->num_transactions(), db->num_transactions());

  // The table-only walk gives the same table on every stream, and the
  // same verdict when a loss would empty transactions.
  for (uint64_t seed : {1, 2, 3}) {
    Rng apply_rng(seed);
    ExpectWalkMatchesRecount(WalkTable(*db, SupportPlan(targets), seed),
                             ApplySupportChanges(*db, targets, &apply_rng));
  }
  Database singletons(3);
  for (ItemId x = 0; x < 3; ++x) {
    for (size_t t = 0; t < 2 * (x + 1); ++t) {
      singletons.AddTransactionUnchecked({x});
    }
  }
  // Losses only come off transactions an earlier gain grew: item 0 in
  // every transaction frees all of item 2, no gain frees none, and a
  // partial gain frees whatever its draws grew.
  for (const std::vector<SupportCount>& targets :
       {std::vector<SupportCount>{12, 4, 0}, {2, 4, 5}, {4, 4, 4},
        {6, 2, 4}}) {
    Rng apply_rng(9);
    auto applied = ApplySupportChanges(singletons, targets, &apply_rng);
    if (targets[0] == 12) {
      EXPECT_TRUE(applied.ok());
    } else if (targets[0] == 2) {
      EXPECT_FALSE(applied.ok());
    }
    ExpectWalkMatchesRecount(WalkTable(singletons, SupportPlan(targets), 9),
                             applied);
  }
}

TEST(ApplyChangesTest, Validation) {
  Rng rng(5);
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  EXPECT_TRUE(ApplySupportChanges(db, {1}, &rng).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ApplySupportChanges(db, {5, 1}, &rng).status()
                  .IsInvalidArgument());
  // Lowering item 0 to zero would empty transaction 0.
  EXPECT_TRUE(ApplySupportChanges(db, {0, 1}, &rng).status()
                  .IsInvalidArgument());
  // No-op passes.
  auto same = ApplySupportChanges(db, {2, 1}, &rng);
  ASSERT_TRUE(same.ok());

  // The walk rejects what Apply rejects, with the same text.
  for (const std::vector<SupportCount>& targets :
       {std::vector<SupportCount>{1, 0, 0}, {5, 1}, {0, 1}, {2, 1}}) {
    Rng apply_rng(4);
    ExpectWalkMatchesRecount(WalkTable(db, SupportPlan(targets), 4),
                             ApplySupportChanges(db, targets, &apply_rng));
  }
  EXPECT_EQ(WalkTable(db, SupportPlan({0, 1}), 4).status().message(),
            "cannot lower support of item 0 without emptying transactions");

  // Losing item 0 shrinks two of the three pairs to size 1, so only one
  // transaction can still lose item 1.
  Database pairs(2);
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(pairs.AddTransaction({0, 1}).ok());
  Rng pairs_rng(4);
  ExpectWalkMatchesRecount(WalkTable(pairs, SupportPlan({1, 1}), 4),
                           ApplySupportChanges(pairs, {1, 1}, &pairs_rng));
  EXPECT_EQ(WalkTable(pairs, SupportPlan({1, 1}), 4).status().message(),
            "cannot lower support of item 1 without emptying transactions");
}

TEST(ApplyChangesTest, SuppressionWalkDropsEmptiedTransactions) {
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1, 2}).ok());
  defense::DefensePlan plan;
  for (const std::vector<ItemId>& suppressed :
       {std::vector<ItemId>{}, {0}, {2, 0}, {0, 1, 2}, {3}}) {
    plan.suppressed = suppressed;
    ExpectWalkMatchesRecount(WalkTable(db, plan, 1),
                             ApplySuppression(db, suppressed));
  }
  // Dropping item 0 empties transaction 0, so m shrinks to 2.
  plan.suppressed = {0};
  auto some = WalkTable(db, plan, 1);
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->num_transactions(), 2u);
  EXPECT_EQ(some->supports(), (std::vector<SupportCount>{0, 2, 1}));
  // Dropping every item empties the release: a valid (empty) database,
  // but no frequency table.
  plan.suppressed = {0, 1, 2};
  auto emptied = ApplySuppression(db, plan.suppressed);
  ASSERT_TRUE(emptied.ok());
  EXPECT_EQ(emptied->num_transactions(), 0u);
  EXPECT_EQ(WalkTable(db, plan, 1).status().message(),
            "cannot compute frequencies of an empty database");
}

// -------------------------------------------------------------- Integration

TEST(DefenseIntegrationTest, DefendedDatabasePassesTheRecipe) {
  Rng rng(17);
  // All-singleton profile: every item uniquely identified by frequency.
  std::vector<ProfileGroup> groups;
  for (size_t i = 0; i < 25; ++i) {
    groups.push_back({static_cast<SupportCount>(20 + 13 * i), 1});
  }
  auto profile = FrequencyProfile::Create(400, groups);
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());

  RecipeOptions recipe;
  recipe.tolerance = 0.2;
  auto before = AssessRisk(*table, recipe);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->decision, RecipeDecision::kAlphaBound);  // unsafe

  auto report = MergePlanToTolerance(*table, 0.2, /*point_valued=*/true);
  ASSERT_TRUE(report.ok());
  auto defended_db = defense::DefenseScheme::Find("group_merge")
                         ->Apply(*db, *report, &rng);
  ASSERT_TRUE(defended_db.ok());

  auto defended = CountedDatabase::Count(std::move(*defended_db));
  ASSERT_TRUE(defended.ok());
  auto after = AssessRisk(*defended, recipe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->decision, RecipeDecision::kDiscloseAtPointValued);
}

TEST(DefenseIntegrationTest, SmallPerturbationKeepsFrequentItems) {
  // Mining fidelity sanity: merging nearby groups shifts supports only by
  // small deltas, so the frequent-item set at a coarse threshold is
  // stable.
  Rng rng(23);
  std::vector<ProfileGroup> groups;
  for (size_t i = 0; i < 10; ++i) {
    groups.push_back({static_cast<SupportCount>(30 + 2 * i), 2});
  }
  groups.push_back({300, 3});
  auto profile = FrequencyProfile::Create(400, groups);
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());

  auto report = MergePlanBelowGap(*table, 0.02);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->relative_distortion, 0.1);
  auto defended = ApplySupportChanges(*db, report->new_supports, &rng);
  ASSERT_TRUE(defended.ok());

  auto hot_before = FrequentItems(*db, 0.5);
  auto hot_after = FrequentItems(*defended, 0.5);
  ASSERT_TRUE(hot_before.ok());
  ASSERT_TRUE(hot_after.ok());
  EXPECT_EQ(*hot_before, *hot_after);  // the 300-support trio
}

}  // namespace
}  // namespace anonsafe
