#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "belief/builders.h"
#include "core/per_item_risk.h"
#include "data/database.h"
#include "data/frequency.h"
#include "defense/k_anonymity.h"
#include "defense/scheme.h"
#include "obs/metrics.h"
#include "util/params.h"
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

TEST(DefensePlanBehaviorTest, KAnonymityBisectionGroupsItsInputOnce) {
  FrequencyTable table = Fixture();
  DefenseParams p;
  p.Set("k", 3.0);
  p.Set("iters", 24.0);
  obs::SetMetricsEnabled(true);
  obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("anonsafe_group_builds_total");
  const uint64_t before = builds->value();
  ASSERT_TRUE(DefenseScheme::Find("k_anonymity")->Plan(table, p).ok());
  // One build of the input, then one per merge structure the bisection
  // asks about. The gaps 0.01, 0.01 and 0.28 have two distinct values,
  // so there are three structures: the unmerged plan (fails, 1-anonymous),
  // the full merge (passes, 4-anonymous) and the merge of {10, 11, 12}
  // alone (fails), which the first step below 0.28 reaches. The other 23
  // steps fall in a structure already asked.
  EXPECT_EQ(builds->value() - before, 4u);
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

  // k must be a whole number in [1, n] and iters one in [0, 64], checked
  // before either is cast (a recorded point may carry any number).
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double k : {kNaN, 2.5, -1.0, kInf, -kInf, 1e30}) {
    DefenseParams p;
    p.Set("k", k);
    Status status = s->Plan(table, p).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << k;
    EXPECT_EQ(status.message().rfind("k must ", 0), 0u) << status.message();
  }
  for (double iters : {kNaN, 2.5, -1.0, 65.0, 1e12, kInf}) {
    DefenseParams p;
    p.Set("k", 3.0);
    p.Set("iters", iters);
    Status status = s->Plan(table, p).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << iters;
    EXPECT_EQ(status.message().rfind("iters must be a whole number in "
                                     "[0, 64]; got ", 0),
              0u)
        << status.message();
  }
  DefenseParams edges;
  edges.Set("k", 4.0);  // k = n
  for (double iters : {0.0, 64.0}) {
    edges.Set("iters", iters);
    EXPECT_TRUE(s->Plan(table, edges).ok()) << iters;
  }
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

// ---------------------------------------------------------- Ladder oracles
//
// A scheme plans its whole ladder at once and shares the work between
// the points. The oracles below plan one point at a time the way every
// point was planned before the ladders shared anything: suppression
// replays its greedy loop from the start, and the bisection asks its
// predicate at every step. Every point must match its oracle in every
// byte.

/// The δ_med interval O-estimate over the items still `alive`, with the
/// ranking in original ids.
Result<std::pair<double, std::vector<ItemId>>> OracleSubdomainRisk(
    const FrequencyTable& table, const std::vector<bool>& alive) {
  std::vector<ItemId> original;
  std::vector<SupportCount> supports;
  for (ItemId x = 0; x < table.num_items(); ++x) {
    if (!alive[x]) continue;
    original.push_back(x);
    supports.push_back(table.support(x));
  }
  std::pair<double, std::vector<ItemId>> out;
  if (original.empty()) return out;
  auto sub = FrequencyTable::FromSupports(supports, table.num_transactions());
  if (!sub.ok()) return sub.status();
  const FrequencyGroups groups = FrequencyGroups::Build(*sub);
  auto belief = MakeCompliantIntervalBelief(*sub, groups.MedianGap());
  if (!belief.ok()) return belief.status();
  auto risk = ComputePerItemRisk(groups, *belief);
  if (!risk.ok()) return risk.status();
  out.first = risk->total_expected_cracks;
  for (const ItemRisk& r : risk->ranked) out.second.push_back(original[r.item]);
  return out;
}

/// One suppression point, its greedy loop replayed from scratch.
Result<DefensePlan> OracleSuppression(const FrequencyTable& table,
                                      const DefenseParams& params) {
  Status allowed = CheckAllowedParams(
      params, {"tolerance", "max_suppressed_fraction", "rerank_batch"},
      "defense scheme", "suppression");
  if (!allowed.ok()) return allowed;
  auto rerank_batch = defense::internal::CountParam(params, "rerank_batch",
                                                    8.0, 1, size_t{1} << 53);
  if (!rerank_batch.ok()) return rerank_batch.status();
  const double tolerance = params.GetOr("tolerance", 0.1);
  const double max_fraction = params.GetOr("max_suppressed_fraction", 0.5);
  if (!(tolerance > 0.0) || tolerance > 1.0) {
    return Status::InvalidArgument("tolerance must lie in (0, 1]");
  }
  if (!(max_fraction >= 0.0 && max_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "max_suppressed_fraction must lie in [0, 1]");
  }
  const size_t n = table.num_items();
  const double budget = tolerance * static_cast<double>(n);
  const auto max_suppressed = static_cast<size_t>(
      std::floor(max_fraction * static_cast<double>(n)));

  DefensePlan plan;
  plan.scheme = "suppression";
  plan.params = params;
  plan.items_before = n;
  std::vector<bool> alive(n, true);
  auto risk = OracleSubdomainRisk(table, alive);
  if (!risk.ok()) return risk.status();
  plan.oe_before = risk->first;
  while (risk->first > budget) {
    if (plan.suppressed.size() >= max_suppressed || risk->second.empty()) {
      return Status::FailedPrecondition(
          "suppression cap reached (" +
          std::to_string(plan.suppressed.size()) +
          " items) before the tolerance was met; use a frequency-merge "
          "defense instead");
    }
    size_t batch = std::min(*rerank_batch, risk->second.size());
    batch = std::min(batch, max_suppressed - plan.suppressed.size());
    if (batch == 0) batch = 1;
    for (size_t i = 0; i < batch; ++i) {
      alive[risk->second[i]] = false;
      plan.suppressed.push_back(risk->second[i]);
    }
    risk = OracleSubdomainRisk(table, alive);
    if (!risk.ok()) return risk.status();
  }
  plan.oe_after = risk->first;
  plan.residual_ranked = risk->second;
  plan.items_after = n - plan.suppressed.size();
  uint64_t total = 0, lost = 0;
  for (ItemId x = 0; x < n; ++x) total += table.support(x);
  for (ItemId x : plan.suppressed) lost += table.support(x);
  plan.occurrence_loss =
      total == 0 ? 0.0
                 : static_cast<double>(lost) / static_cast<double>(total);
  return plan;
}

/// The gap bisection, asking `passes` at every step.
Result<DefensePlan> OracleBisect(
    const FrequencyTable& table, size_t iters,
    const std::function<bool(const DefensePlan&)>& passes,
    const std::function<Status(const DefensePlan&)>& unreachable) {
  const defense::internal::MergeStructures merges(table);
  DefensePlan lo_plan = merges.PlanAt(0.0);
  if (passes(lo_plan)) return lo_plan;
  double lo = 0.0;
  double hi = merges.FullMergeGap();
  DefensePlan hi_plan = merges.PlanAt(hi);
  if (!passes(hi_plan)) return unreachable(hi_plan);
  for (size_t iter = 0; iter < iters; ++iter) {
    const double mid = (lo + hi) / 2.0;
    DefensePlan mid_plan = merges.PlanAt(mid);
    if (passes(mid_plan)) {
      hi = mid;
      hi_plan = std::move(mid_plan);
    } else {
      lo = mid;
    }
  }
  return hi_plan;
}

Result<DefensePlan> OracleKAnonymity(const FrequencyTable& table,
                                     const DefenseParams& params) {
  Status allowed =
      CheckAllowedParams(params, {"k", "iters"}, "defense scheme",
                         "k_anonymity");
  if (!allowed.ok()) return allowed;
  auto k_param = params.Get("k");
  if (!k_param.ok()) return k_param.status();
  auto iters = defense::internal::BisectIters(params);
  if (!iters.ok()) return iters.status();
  const size_t n = table.num_items();
  if (*k_param != std::floor(*k_param)) {
    return Status::InvalidArgument("k must be a whole number; got k=" +
                                   json::NumberToString(*k_param));
  }
  if (!(*k_param >= 1.0 && *k_param <= static_cast<double>(n))) {
    return Status::InvalidArgument(
        "k must lie in [1, n]; got k=" + json::NumberToString(*k_param) +
        " for n=" + std::to_string(n));
  }
  const auto k = static_cast<size_t>(*k_param);
  auto anonymity_of = [&](const DefensePlan& plan) {
    return FrequencyKAnonymity(FrequencyGroups::FromSupports(
        plan.new_supports, table.num_transactions()));
  };
  auto plan = OracleBisect(
      table, *iters,
      [&](const DefensePlan& plan) { return anonymity_of(plan) >= k; },
      [&](const DefensePlan& full) -> Status {
        return Status::FailedPrecondition(
            "even a full merge yields only " +
            std::to_string(anonymity_of(full)) + "-anonymity");
      });
  if (!plan.ok()) return plan;
  plan->scheme = "k_anonymity";
  plan->params = params;
  return plan;
}

Result<DefensePlan> OracleGroupMerge(const FrequencyTable& table,
                                     const DefenseParams& params) {
  Status allowed =
      CheckAllowedParams(params, {"gap", "tolerance", "point_valued", "iters"},
                         "defense scheme", "group_merge");
  if (!allowed.ok()) return allowed;
  const double* gap = params.Find("gap");
  const double* tolerance = params.Find("tolerance");
  if ((gap != nullptr) == (tolerance != nullptr)) {
    return Status::InvalidArgument(
        "group_merge takes exactly one of 'gap' or 'tolerance'");
  }
  if (gap != nullptr && !(std::isfinite(*gap) && *gap >= 0.0)) {
    return Status::InvalidArgument("gap must be finite and >= 0; got " +
                                   json::NumberToString(*gap));
  }
  auto iters = defense::internal::BisectIters(params);
  if (!iters.ok()) return iters.status();
  Result<DefensePlan> plan = Status::Internal("unset");
  if (gap != nullptr) {
    plan = defense::internal::MergeStructures(table).PlanAt(*gap);
  } else {
    if (!(*tolerance > 0.0) || *tolerance > 1.0) {
      return Status::InvalidArgument("tolerance must lie in (0, 1]");
    }
    const double budget = *tolerance * static_cast<double>(table.num_items());
    if (budget < 1.0) {
      return Status::FailedPrecondition(
          "tolerance budget below one crack; even a single frequency group "
          "leaks one expected crack (Lemma 1)");
    }
    const bool point_valued = params.GetOr("point_valued", 0.0) != 0.0;
    plan = OracleBisect(
        table, *iters,
        [&](const DefensePlan& candidate) {
          const FrequencyGroups groups = FrequencyGroups::FromSupports(
              candidate.new_supports, table.num_transactions());
          if (point_valued) {
            return static_cast<double>(groups.num_groups()) <= budget;
          }
          const double delta = groups.MedianGap();
          double oe = 0.0;
          for (size_t g = 0; g < groups.num_groups(); ++g) {
            const double f = groups.group_frequency(g);
            size_t lo = 0, hi = 0;
            if (!groups.StabRange(std::max(0.0, f - delta),
                                  std::min(1.0, f + delta), &lo, &hi)) {
              continue;
            }
            oe += static_cast<double>(groups.group_size(g)) /
                  static_cast<double>(groups.RangeItemCount(lo, hi));
          }
          return oe <= budget;
        },
        [](const DefensePlan&) {
          return Status::FailedPrecondition(
              "even a full merge cannot reach the tolerance");
        });
  }
  if (!plan.ok()) return plan;
  plan->scheme = "group_merge";
  plan->params = params;
  return plan;
}

Result<DefensePlan> Oracle(const std::string& scheme,
                           const FrequencyTable& table,
                           const DefenseParams& params) {
  if (scheme == "suppression") return OracleSuppression(table, params);
  if (scheme == "k_anonymity") return OracleKAnonymity(table, params);
  return OracleGroupMerge(table, params);
}

void ExpectSamePlan(const Result<DefensePlan>& got,
                    const Result<DefensePlan>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->ToJson().Dump(), want->ToJson().Dump());
  EXPECT_EQ(got->suppressed, want->suppressed);
  EXPECT_EQ(got->residual_ranked, want->residual_ranked);
  EXPECT_EQ(got->new_supports, want->new_supports);
}

/// Plans `ladder` at once and each point alone (the one-point ladder),
/// and compares every point with its oracle. Returns how many points
/// planned.
size_t ExpectLadderMatchesOracle(const std::string& scheme,
                                 const FrequencyTable& table,
                                 const std::vector<DefenseParams>& ladder) {
  const DefenseScheme* s = DefenseScheme::Find(scheme);
  const std::vector<Result<DefensePlan>> plans = s->PlanLadder(table, ladder);
  EXPECT_EQ(plans.size(), ladder.size());
  size_t planned = 0;
  for (size_t i = 0; i < std::min(plans.size(), ladder.size()); ++i) {
    SCOPED_TRACE(scheme + " point " + std::to_string(i) + ": " +
                 ladder[i].ToString());
    const Result<DefensePlan> want = Oracle(scheme, table, ladder[i]);
    ExpectSamePlan(plans[i], want);
    ExpectSamePlan(s->Plan(table, ladder[i]), want);
    planned += want.ok() ? 1 : 0;
  }
  return planned;
}

/// n in [1, 40] items over m in [1, 400] transactions, their supports
/// drawn from a pool of distinct values, so some items share a support.
FrequencyTable RandomTable(Rng* rng) {
  const size_t n = 1 + rng->UniformUint64(40);
  const size_t m = 1 + rng->UniformUint64(400);
  std::vector<SupportCount> pool(1 + rng->UniformUint64(n));
  for (SupportCount& s : pool) s = rng->UniformUint64(m + 1);
  std::vector<SupportCount> supports(n);
  for (SupportCount& s : supports) s = pool[rng->UniformUint64(pool.size())];
  return *FrequencyTable::FromSupports(std::move(supports), m);
}

DefenseParams Point(
    std::initializer_list<std::pair<const char*, double>> values) {
  DefenseParams params;
  for (const auto& [name, value] : values) params.Set(name, value);
  return params;
}

/// Inserts `malformed` points, which no table can plan, at random
/// positions of `ladder`.
void AddMalformed(const std::vector<DefenseParams>& malformed, Rng* rng,
                  std::vector<DefenseParams>* ladder) {
  for (const DefenseParams& params : malformed) {
    const auto at = static_cast<std::ptrdiff_t>(
        rng->UniformUint64(ladder->size() + 1));
    ladder->insert(ladder->begin() + at, params);
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DefenseLadderTest, SuppressionLaddersMatchTheirOracle) {
  const double fractions[] = {-1.0, 0.0, 0.1, 0.25, 0.5, 1.0};  // -1: unset
  const double batches[] = {-1.0, 1.0, 2.0, 8.0, 64.0};
  size_t planned = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const FrequencyTable table = RandomTable(&rng);
    std::vector<DefenseParams> ladder =
        DefenseScheme::Find("suppression")->ParamSpace(table);
    for (int extra = 0; extra < 4; ++extra) {
      ladder.push_back(Point({{"tolerance", rng.UniformDouble()}}));
    }
    // Each point draws its own cap and batch, so the ladder walks
    // several trajectories, some shared by several tolerances.
    for (DefenseParams& params : ladder) {
      const double fraction = fractions[rng.UniformUint64(6)];
      const double batch = batches[rng.UniformUint64(5)];
      if (fraction >= 0.0) params.Set("max_suppressed_fraction", fraction);
      if (batch >= 0.0) params.Set("rerank_batch", batch);
    }
    AddMalformed({Point({{"tolerance", 0.0}}), Point({{"tolerance", 1.5}}),
                  Point({{"tolerance", kNaN}}),
                  Point({{"tolerance", 0.1}, {"max_suppressed_fraction", 2.0}}),
                  Point({{"tolerance", 0.1}, {"rerank_batch", 0.0}}),
                  Point({{"tolerance", 0.1}, {"bogus", 1.0}})},
                 &rng, &ladder);
    planned += ExpectLadderMatchesOracle("suppression", table, ladder);
  }
  EXPECT_GT(planned, 100u);
}

TEST(DefenseLadderTest, BisectingLaddersMatchTheirOracle) {
  const double iters[] = {-1.0, 0.0, 3.0, 24.0, 64.0};  // -1: unset
  size_t planned = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const FrequencyTable table = RandomTable(&rng);
    const double n = static_cast<double>(table.num_items());

    std::vector<DefenseParams> k_ladder =
        DefenseScheme::Find("k_anonymity")->ParamSpace(table);
    for (int extra = 0; extra < 4; ++extra) {
      k_ladder.push_back(
          Point({{"k", static_cast<double>(
                           1 + rng.UniformUint64(table.num_items()))}}));
    }
    std::vector<DefenseParams> merge_ladder =
        DefenseScheme::Find("group_merge")->ParamSpace(table);
    for (int extra = 0; extra < 6; ++extra) {
      DefenseParams params = Point({{"tolerance", rng.UniformDouble()}});
      if (extra % 2 == 1) params.Set("point_valued", 1.0);
      merge_ladder.push_back(std::move(params));
    }
    for (std::vector<DefenseParams>* ladder : {&k_ladder, &merge_ladder}) {
      for (DefenseParams& params : *ladder) {
        const double steps = iters[rng.UniformUint64(5)];
        if (steps >= 0.0 && params.Find("gap") == nullptr) {
          params.Set("iters", steps);
        }
      }
    }
    AddMalformed({Point({{"k", 0.0}}), Point({{"k", n + 1.0}}),
                  Point({{"k", 2.5}}), Point({{"k", 1.0}, {"iters", 65.0}}),
                  Point({})},
                 &rng, &k_ladder);
    AddMalformed({Point({{"gap", -1.0}}),
                  Point({{"gap", 0.1}, {"tolerance", 0.1}}),
                  Point({{"tolerance", 0.0}})},
                 &rng, &merge_ladder);
    planned += ExpectLadderMatchesOracle("k_anonymity", table, k_ladder);
    planned += ExpectLadderMatchesOracle("group_merge", table, merge_ladder);
  }
  EXPECT_GT(planned, 300u);
}

// An invalid tolerance inside a ladder fails that point alone.
TEST(DefenseLadderTest, MalformedPointFailsAlone) {
  const FrequencyTable table = Fixture();
  const DefenseScheme* s = DefenseScheme::Find("suppression");
  const std::vector<DefenseParams> ladder = {
      Point({{"tolerance", 0.3}}), Point({{"tolerance", -0.1}}),
      Point({{"tolerance", 0.5}})};
  const std::vector<Result<DefensePlan>> plans = s->PlanLadder(table, ladder);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_TRUE(plans[0].ok());
  EXPECT_EQ(plans[1].status().ToString(),
            "InvalidArgument: tolerance must lie in (0, 1]");
  EXPECT_TRUE(plans[2].ok());
  ExpectLadderMatchesOracle("suppression", table, ladder);
}

// One frequency group leaks one expected crack, within every rung's
// budget of at least 0.02·100: every rung is the identity plan.
TEST(DefenseLadderTest, AlreadySafeTablePlansIdentity) {
  const FrequencyTable table =
      *FrequencyTable::FromSupports(std::vector<SupportCount>(100, 7), 90);
  for (const char* scheme : {"suppression", "k_anonymity"}) {
    const std::vector<DefenseParams> ladder =
        DefenseScheme::Find(scheme)->ParamSpace(table);
    ASSERT_FALSE(ladder.empty());
    EXPECT_EQ(ExpectLadderMatchesOracle(scheme, table, ladder),
              ladder.size());
    for (const Result<DefensePlan>& plan :
         DefenseScheme::Find(scheme)->PlanLadder(table, ladder)) {
      ASSERT_TRUE(plan.ok());
      EXPECT_TRUE(plan->suppressed.empty());
      EXPECT_EQ(plan->merged_gap, 0.0);
    }
  }
}

// Ten frequency-unique items, no cap, and a budget below one crack: the
// trajectory suppresses every item and ends on an empty ranking.
TEST(DefenseLadderTest, TrajectoryEndsOnAnEmptyRanking) {
  std::vector<SupportCount> supports;
  for (SupportCount s = 0; s < 10; ++s) supports.push_back(10 + 7 * s);
  const FrequencyTable table = *FrequencyTable::FromSupports(supports, 200);
  std::vector<DefenseParams> ladder;
  for (double batch : {1.0, 3.0, 8.0}) {
    ladder.push_back(Point({{"tolerance", 0.05},
                            {"max_suppressed_fraction", 1.0},
                            {"rerank_batch", batch}}));
    ladder.push_back(Point({{"tolerance", 0.5},
                            {"max_suppressed_fraction", 1.0},
                            {"rerank_batch", batch}}));
  }
  EXPECT_EQ(ExpectLadderMatchesOracle("suppression", table, ladder), 6u);
  const std::vector<Result<DefensePlan>> plans =
      DefenseScheme::Find("suppression")->PlanLadder(table, ladder);
  for (size_t i = 0; i < plans.size(); i += 2) {
    ASSERT_TRUE(plans[i].ok());
    EXPECT_EQ(plans[i]->suppressed.size(), 10u);
    EXPECT_TRUE(plans[i]->residual_ranked.empty());
    EXPECT_EQ(plans[i]->oe_after, 0.0);
    ASSERT_TRUE(plans[i + 1].ok());
    EXPECT_LT(plans[i + 1]->suppressed.size(), 10u);
  }
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// The suppression ladder walks one trajectory: planning the sweep's whole
// ladder moves the group-build and propagation counters exactly as far as
// planning its farthest rung alone, while planning the rungs one by one
// moves them much further.
TEST(DefenseLadderTest, SuppressionLadderWalksOneTrajectory) {
  obs::SetMetricsEnabled(true);
  std::vector<SupportCount> supports;
  for (SupportCount s = 0; s < 60; ++s) supports.push_back(20 + 13 * s);
  const FrequencyTable table = *FrequencyTable::FromSupports(supports, 1000);
  const DefenseScheme* s = DefenseScheme::Find("suppression");
  const std::vector<DefenseParams> ladder = s->ParamSpace(table);
  constexpr const char* kCounters[] = {"anonsafe_group_builds_total",
                                       "anonsafe_propagation_passes_total"};
  for (const char* counter : kCounters) {
    SCOPED_TRACE(counter);
    uint64_t farthest = 0, one_by_one = 0;
    for (const DefenseParams& params : ladder) {
      const uint64_t before = CounterValue(counter);
      (void)s->Plan(table, params);
      farthest = std::max(farthest, CounterValue(counter) - before);
      one_by_one += CounterValue(counter) - before;
    }
    const uint64_t before = CounterValue(counter);
    const std::vector<Result<DefensePlan>> plans = s->PlanLadder(table, ladder);
    EXPECT_EQ(CounterValue(counter) - before, farthest);
    EXPECT_GT(one_by_one, 3 * farthest);
    // Several rungs walk past the first step; some stop at the cap.
    size_t capped = 0, walked = 0;
    for (const Result<DefensePlan>& plan : plans) {
      capped += plan.ok() ? 0 : 1;
      walked += plan.ok() && !plan->suppressed.empty() ? 1 : 0;
    }
    EXPECT_GT(capped, 0u);
    EXPECT_GT(walked, 1u);
  }
}

}  // namespace
}  // namespace anonsafe
