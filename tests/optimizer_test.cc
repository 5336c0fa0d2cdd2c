#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "belief/builders.h"
#include "data/database.h"
#include "data/frequency.h"
#include "defense/k_anonymity.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "defense/utility.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

using defense::CandidateScore;
using defense::DefenseFrontier;
using defense::DefenseScheme;
using defense::OptimizerOptions;
using defense::RecommendDefense;

// The fixed 12-transaction / 5-item release used by check_defense.sh:
// small enough for exact estimation, rich enough for a non-trivial
// frontier (three frequency groups, one rare item).
Database FixtureDb() {
  auto db = Database::FromTransactions(
      5, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 4}});
  EXPECT_TRUE(db.ok());
  return *db;
}

// Item i alone in 3(i+1) singleton transactions: every holder has size
// 1, so each merge that lowers a support fails in the realization walk
// ("cannot lower support of item N without emptying transactions"),
// while suppression empties transactions and shrinks m.
Database SingletonDb() {
  Database db(12);
  for (ItemId x = 0; x < 12; ++x) {
    for (size_t t = 0; t < 3 * (x + 1); ++t) db.AddTransactionUnchecked({x});
  }
  return db;
}

// Six items on which the four k-anonymity rungs and the group merge
// all give the one-group full merge, and the two coarsest suppression
// rungs release the same table. Under prefer_sampler at Ryser cutoff 2
// the release those two share has a sampler block.
Database SharedReleaseDb() {
  auto db = Database::FromTransactions(
      6, {{3}, {0, 2}, {3}, {1, 4, 5}, {4}, {2, 3, 5}, {1, 2, 3}, {1},
          {3, 4, 5}, {2, 3, 5}, {0, 2}, {0, 4, 5}, {2}});
  EXPECT_TRUE(db.ok());
  return *db;
}

Result<DefenseFrontier> Sweep(const Database& db, size_t threads,
                              uint64_t seed = 7,
                              const OptimizerOptions& options = {}) {
  exec::ExecOptions eo;
  eo.seed = seed;
  eo.threads = threads;
  exec::ExecContext ctx(eo);
  return RecommendDefense(db, options, &ctx);
}

TEST(OptimizerTest, SweepCoversEveryRegisteredScheme) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier->num_items, 5u);
  EXPECT_EQ(frontier->num_transactions, 12u);
  EXPECT_EQ(frontier->seed, 7u);
  EXPECT_GT(frontier->baseline_cracks, 0.0);
  EXPECT_GT(frontier->baseline_groups, 0u);

  // Every registered scheme contributed its whole grid, scheme-major,
  // indices dense in enumeration order.
  size_t expected = 0;
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  for (const DefenseScheme* s : DefenseScheme::All()) {
    expected += s->ParamSpace(*table).size();
  }
  ASSERT_EQ(frontier->candidates.size(), expected);
  for (size_t i = 0; i < frontier->candidates.size(); ++i) {
    EXPECT_EQ(frontier->candidates[i].index, i);
    EXPECT_NE(DefenseScheme::Find(frontier->candidates[i].scheme), nullptr);
  }
  EXPECT_FALSE(frontier->frontier.empty());
}

TEST(OptimizerTest, FrontierIsBitIdenticalAcrossThreadCounts) {
  for (const Database& db : {FixtureDb(), SingletonDb(), SharedReleaseDb()}) {
    auto t1 = Sweep(db, 1);
    ASSERT_TRUE(t1.ok());
    const std::string doc1 = t1->ToJson().Dump();
    for (size_t threads : {2, 3, 4, 8}) {
      auto tn = Sweep(db, threads);
      ASSERT_TRUE(tn.ok());
      EXPECT_EQ(doc1, tn->ToJson().Dump())
          << db.num_items() << " items, threads " << threads;
    }
  }
}

TEST(OptimizerTest, SeedChangesAreConfinedToSamplerStreams) {
  // The fixture is exact everywhere, so a different master seed must
  // still produce the identical frontier document apart from the
  // recorded seed itself.
  Database db = FixtureDb();
  auto a = Sweep(db, 2, 7);
  auto b = Sweep(db, 2, 1234);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->frontier, b->frontier);
  ASSERT_EQ(a->candidates.size(), b->candidates.size());
  for (size_t i = 0; i < a->candidates.size(); ++i) {
    EXPECT_EQ(a->candidates[i].expected_cracks,
              b->candidates[i].expected_cracks);
    EXPECT_EQ(a->candidates[i].utility.total_loss,
              b->candidates[i].utility.total_loss);
  }
}

TEST(OptimizerTest, FrontierIsExactlyTheNonDominatedSet) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  const auto& cs = frontier->candidates;

  // Recompute dominance from scratch and compare against the sweep.
  std::vector<size_t> expect;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (!cs[i].feasible) continue;
    bool dominated = false;
    for (size_t j = 0; j < cs.size() && !dominated; ++j) {
      if (i == j || !cs[j].feasible) continue;
      const bool no_worse =
          cs[j].expected_cracks <= cs[i].expected_cracks &&
          cs[j].utility.total_loss <= cs[i].utility.total_loss;
      const bool better =
          cs[j].expected_cracks < cs[i].expected_cracks ||
          cs[j].utility.total_loss < cs[i].utility.total_loss;
      dominated = no_worse && better;
    }
    if (!dominated) expect.push_back(i);
  }
  std::sort(expect.begin(), expect.end(), [&](size_t a, size_t b) {
    if (cs[a].expected_cracks != cs[b].expected_cracks) {
      return cs[a].expected_cracks < cs[b].expected_cracks;
    }
    if (cs[a].utility.total_loss != cs[b].utility.total_loss) {
      return cs[a].utility.total_loss < cs[b].utility.total_loss;
    }
    return a < b;
  });
  EXPECT_EQ(frontier->frontier, expect);

  // on_frontier flags agree with membership.
  for (size_t i = 0; i < cs.size(); ++i) {
    const bool member =
        std::find(expect.begin(), expect.end(), i) != expect.end();
    EXPECT_EQ(cs[i].on_frontier, member) << "candidate " << i;
  }
}

/// The sweep's risk score, rebuilt from public pieces: the release view
/// of `after` (items with support > 0) under the compliant interval
/// belief at its own δ_med, planned on the candidate's sampler stream.
struct Rescore {
  double expected_cracks = 0.0;
  size_t k_anonymity = 0;
};
Result<Rescore> RescoreRelease(const FrequencyTable& after,
                               uint64_t sampler_seed,
                               PlannerOptions planner = {}) {
  std::vector<SupportCount> alive;
  for (SupportCount s : after.supports()) {
    if (s > 0) alive.push_back(s);
  }
  Rescore out;
  if (alive.empty()) return out;
  ANONSAFE_ASSIGN_OR_RETURN(
      FrequencyTable release,
      FrequencyTable::FromSupports(alive, after.num_transactions()));
  FrequencyGroups groups = FrequencyGroups::Build(release);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(release, groups.MedianGap()));
  planner.block_sampler.exec.seed = sampler_seed;
  ANONSAFE_ASSIGN_OR_RETURN(CrackEstimate estimate,
                            PlanAndEstimate(groups, belief, planner));
  out.expected_cracks = estimate.expected_cracks;
  out.k_anonymity = FrequencyKAnonymity(groups);
  return out;
}

// Every candidate, feasible or not, replays from {scheme, params} and
// its RNG stream: the public Apply rebuilds a release whose recount
// gives the candidate's utility and rescoring gives its risk, and an
// infeasible candidate's reason is the error Plan, Apply or the
// recount reports.
TEST(OptimizerTest, EveryFrontierPointIsReplayable) {
  for (const Database& db : {FixtureDb(), SingletonDb()}) {
    auto frontier = Sweep(db, 1);
    ASSERT_TRUE(frontier.ok());
    auto table = FrequencyTable::Compute(db);
    ASSERT_TRUE(table.ok());
    size_t feasible = 0;
    size_t unrealizable = 0;
    for (const CandidateScore& c : frontier->candidates) {
      SCOPED_TRACE(c.scheme + " " + c.params.ToString());
      const DefenseScheme* s = DefenseScheme::Find(c.scheme);
      ASSERT_NE(s, nullptr);
      auto replay = s->Plan(*table, c.params);
      if (!replay.ok()) {
        EXPECT_FALSE(c.feasible);
        EXPECT_EQ(c.reason, replay.status().message());
        continue;
      }
      Rng rng(exec::SplitSeed(frontier->seed, 2 * c.index + 2));
      auto released = s->Apply(db, *replay, &rng);
      auto after = released.ok() ? FrequencyTable::Compute(*released)
                                 : Result<FrequencyTable>(released.status());
      if (!after.ok()) {
        EXPECT_FALSE(c.feasible);
        EXPECT_EQ(c.reason, after.status().message());
        unrealizable += released.ok() ? 0 : 1;
        continue;
      }
      ASSERT_TRUE(c.feasible) << c.reason;
      ++feasible;
      EXPECT_EQ(replay->ToJson().Dump(), c.plan.ToJson().Dump());
      EXPECT_EQ(defense::ComputeUtilityLoss(*table, *after).ToJson().Dump(),
                c.utility.ToJson().Dump());
      auto rescore = RescoreRelease(
          *after, exec::SplitSeed(frontier->seed, 2 * c.index + 3));
      ASSERT_TRUE(rescore.ok());
      EXPECT_EQ(rescore->expected_cracks, c.expected_cracks);
      EXPECT_EQ(rescore->k_anonymity, c.k_anonymity);
    }
    EXPECT_GT(feasible, 0u);
    if (db.num_items() == 12) {
      EXPECT_GT(unrealizable, 0u);  // the Apply-failure branch ran
    }
  }
}

/// The walk's skip bound, brute force over the transactions: a
/// transaction whose every item loses support is exposed to its largest
/// item, and a losing item must keep its target outside its exposed
/// holders.
bool BoundClears(const Database& db, const FrequencyTable& table,
                 const std::vector<SupportCount>& targets) {
  std::vector<SupportCount> exposed(db.num_items(), 0);
  for (const Transaction& txn : db.transactions()) {
    if (!txn.empty() &&
        std::all_of(txn.begin(), txn.end(), [&](ItemId x) {
          return targets[x] < table.support(x);
        })) {
      ++exposed[txn.back()];
    }
  }
  for (ItemId x = 0; x < db.num_items(); ++x) {
    if (targets[x] < exposed[x]) return false;
  }
  return true;
}

uint64_t WalkCount(const char* path) {
  return obs::MetricsRegistry::Global()
      .GetCounterWithLabels("anonsafe_defense_walks_total", {{"path", path}})
      ->value();
}

// The sweep walks exactly the support plans the bound cannot clear: on
// the dense fixture none of its five, on the singleton fixture (every
// holder has size 1) all eleven.
TEST(OptimizerTest, SweepWalksOnlyPlansTheBoundCannotClear) {
  obs::SetMetricsEnabled(true);
  for (const Database& db : {FixtureDb(), SingletonDb()}) {
    auto table = FrequencyTable::Compute(db);
    ASSERT_TRUE(table.ok());
    uint64_t walk = 0, skip = 0;
    for (const DefenseScheme* s : DefenseScheme::All()) {
      for (const defense::DefenseParams& params : s->ParamSpace(*table)) {
        auto plan = s->Plan(*table, params);
        if (!plan.ok() || plan->new_supports.empty()) continue;
        (BoundClears(db, *table, plan->new_supports) ? skip : walk) += 1;
      }
    }
    const uint64_t walked_before = WalkCount("walked");
    const uint64_t skipped_before = WalkCount("skipped");
    ASSERT_TRUE(Sweep(db, 2).ok());
    EXPECT_EQ(WalkCount("walked") - walked_before, walk);
    EXPECT_EQ(WalkCount("skipped") - skipped_before, skip);
    if (db.num_items() == 12) {
      EXPECT_EQ(walk, 11u);
      EXPECT_EQ(skip, 0u);
    } else {
      EXPECT_EQ(walk, 0u);
      EXPECT_EQ(skip, 5u);
    }
  }
}

uint64_t PlanCount() {
  return obs::MetricsRegistry::Global()
      .GetCounter("anonsafe_planner_plans_total")
      ->value();
}

// The sweep plans the baseline and each distinct after-table among the
// feasible candidates once, while every support plan is still walked or
// skipped on its own. A sampler estimate depends on its stream, so
// under prefer_sampler each follower of a leader that sampled is scored
// on its own stream: the document stays byte-identical at any thread
// count, and every candidate's risk replays from its own stream.
TEST(OptimizerTest, EachDistinctReleaseIsScoredOnce) {
  obs::SetMetricsEnabled(true);
  const Database db = SharedReleaseDb();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  uint64_t support_plans = 0;
  for (const DefenseScheme* s : DefenseScheme::All()) {
    for (const defense::DefenseParams& params : s->ParamSpace(*table)) {
      auto plan = s->Plan(*table, params);
      support_plans += plan.ok() && !plan->new_supports.empty() ? 1 : 0;
    }
  }
  OptimizerOptions sampler;
  sampler.planner.prefer_sampler = true;
  sampler.planner.ryser_cutoff = 2;
  for (const OptimizerOptions& options : {OptimizerOptions{}, sampler}) {
    const bool sampling = options.planner.prefer_sampler;
    SCOPED_TRACE(sampling ? "prefer_sampler" : "default options");
    std::vector<std::string> docs;
    size_t distinct = 0;
    size_t own = 0;  // followers of a leader that sampled
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const uint64_t plans_before = PlanCount();
      const uint64_t walks_before = WalkCount("walked") + WalkCount("skipped");
      auto frontier = Sweep(db, threads, 7, options);
      ASSERT_TRUE(frontier.ok());
      const uint64_t plans = PlanCount() - plans_before;
      EXPECT_EQ(WalkCount("walked") + WalkCount("skipped") - walks_before,
                support_plans);
      docs.push_back(frontier->ToJson().Dump());

      // Leaders replayed from the plans: the lowest feasible candidate
      // of each distinct after-table.
      std::map<std::pair<size_t, std::vector<SupportCount>>, size_t> leaders;
      own = 0;
      for (const CandidateScore& c : frontier->candidates) {
        if (!c.feasible) continue;
        SCOPED_TRACE(c.scheme + " " + c.params.ToString());
        Rng rng(exec::SplitSeed(frontier->seed, 2 * c.index + 2));
        auto released = DefenseScheme::Find(c.scheme)->Apply(db, c.plan, &rng);
        ASSERT_TRUE(released.ok());
        auto after = FrequencyTable::Compute(*released);
        ASSERT_TRUE(after.ok());
        auto [leader, first] = leaders.try_emplace(
            {after->num_transactions(), after->supports()}, c.index);
        // Only prefer_sampler sends a block to the sampler, and only a
        // sampler block leaves an estimate inexact under it.
        if (!first && sampling && !frontier->candidates[leader->second].exact) {
          ++own;
        }
        auto rescore =
            RescoreRelease(*after, exec::SplitSeed(frontier->seed,
                                                   2 * c.index + 3),
                           options.planner);
        ASSERT_TRUE(rescore.ok());
        EXPECT_EQ(rescore->expected_cracks, c.expected_cracks);
      }
      distinct = leaders.size();
      EXPECT_EQ(plans, 1 + distinct + own) << "threads " << threads;
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);
    // The fixture's point: 8 feasible candidates share 3 releases, and
    // under prefer_sampler one follower is scored on its own stream.
    EXPECT_EQ(distinct, 3u);
    EXPECT_EQ(own, sampling ? 1u : 0u);
  }
}

uint64_t PropagationPasses() {
  return obs::MetricsRegistry::Global()
      .GetCounter("anonsafe_propagation_passes_total")
      ->value();
}

// The sweep plans the suppression ladder once. Among its planning,
// walking and scoring only the suppression trajectory and the estimator
// planner propagate, so its propagation passes are one trajectory's plus
// one score of the baseline and of each distinct after-table. Planning
// the rungs one by one would replay the trajectory for every rung.
TEST(OptimizerTest, SweepRunsTheSuppressionTrajectoryOnce) {
  obs::SetMetricsEnabled(true);
  const DefenseScheme* suppression = DefenseScheme::Find("suppression");
  for (const Database& db : {FixtureDb(), SingletonDb(), SharedReleaseDb()}) {
    auto table = FrequencyTable::Compute(db);
    ASSERT_TRUE(table.ok());
    const std::vector<defense::DefenseParams> ladder =
        suppression->ParamSpace(*table);
    uint64_t before = PropagationPasses();
    (void)suppression->PlanLadder(*table, ladder);
    const uint64_t trajectory = PropagationPasses() - before;
    uint64_t one_by_one = 0;
    for (const defense::DefenseParams& params : ladder) {
      before = PropagationPasses();
      (void)suppression->Plan(*table, params);
      one_by_one += PropagationPasses() - before;
    }

    before = PropagationPasses();
    auto frontier = Sweep(db, 2);
    ASSERT_TRUE(frontier.ok());
    const uint64_t sweep = PropagationPasses() - before;

    // Rescore the baseline and each distinct after-table once, replayed
    // through Apply on each candidate's stream.
    before = PropagationPasses();
    ASSERT_TRUE(
        RescoreRelease(*table, exec::SplitSeed(frontier->seed, 1)).ok());
    std::set<std::pair<size_t, std::vector<SupportCount>>> releases;
    for (const CandidateScore& c : frontier->candidates) {
      if (!c.feasible) continue;
      Rng rng(exec::SplitSeed(frontier->seed, 2 * c.index + 2));
      auto released = DefenseScheme::Find(c.scheme)->Apply(db, c.plan, &rng);
      ASSERT_TRUE(released.ok());
      auto after = FrequencyTable::Compute(*released);
      ASSERT_TRUE(after.ok());
      if (!releases.insert({after->num_transactions(), after->supports()})
               .second) {
        continue;
      }
      ASSERT_TRUE(RescoreRelease(*after, exec::SplitSeed(frontier->seed,
                                                         2 * c.index + 3))
                      .ok());
    }
    const uint64_t scoring = PropagationPasses() - before;
    EXPECT_EQ(sweep, trajectory + scoring);
    if (db.num_items() == 12) {
      // Eight rungs replay a trajectory of several steps.
      EXPECT_GT(one_by_one, 4 * trajectory);
    }
  }
}

TEST(OptimizerTest, InfeasibleCandidatesCarryReasonsNotFailures) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  size_t infeasible = 0;
  for (const CandidateScore& c : frontier->candidates) {
    if (c.feasible) {
      EXPECT_TRUE(c.reason.empty());
    } else {
      ++infeasible;
      EXPECT_FALSE(c.reason.empty());
      EXPECT_FALSE(c.on_frontier);
    }
  }
  // The tight suppression tolerances are unreachable on this fixture.
  EXPECT_GT(infeasible, 0u);
}

TEST(OptimizerTest, CancellationPropagates) {
  Database db = FixtureDb();
  for (size_t threads : {1, 2, 4}) {
    exec::ExecOptions eo;
    eo.threads = threads;
    exec::ExecContext ctx(eo);
    ctx.RequestCancel();
    auto frontier = RecommendDefense(db, OptimizerOptions{}, &ctx);
    ASSERT_FALSE(frontier.ok());
    EXPECT_TRUE(frontier.status().IsCancelled()) << frontier.status();
  }
}

// The baseline is scored in the planning region, where nothing else can
// fail, so a sweep whose baseline fails returns the baseline's own error
// at any thread count. Here the baseline's largest sampler block graph
// exceeds the planner's edge budget by one.
TEST(OptimizerTest, BaselineFailureIsTheSweepsError) {
  const Database db = SharedReleaseDb();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  OptimizerOptions options;
  options.planner.prefer_sampler = true;
  options.planner.ryser_cutoff = 2;
  auto plan = PlanBlocks(groups, *belief, options.planner);
  ASSERT_TRUE(plan.ok());
  size_t edges = 0;
  for (const PlannedBlock& block : plan->blocks) {
    if (block.method == BlockMethod::kSampler) {
      edges = std::max(edges, block.num_edges);
    }
  }
  ASSERT_GT(edges, 0u);
  options.planner.max_edges = edges - 1;
  const std::string want = "OutOfRange: block graph would have " +
                           std::to_string(edges) + " edges, budget is " +
                           std::to_string(edges - 1);
  EXPECT_EQ(RescoreRelease(*table, exec::SplitSeed(7, 1), options.planner)
                .status()
                .ToString(),
            want);
  for (size_t threads : {1, 4}) {
    auto frontier = Sweep(db, threads, 7, options);
    ASSERT_FALSE(frontier.ok());
    EXPECT_EQ(frontier.status().ToString(), want) << "threads " << threads;
  }
}

uint64_t GroupBuilds() {
  return obs::MetricsRegistry::Global()
      .GetCounter("anonsafe_group_builds_total")
      ->value();
}

// The sweep's risk score groups the release view of the baseline and of
// each scored after-table once, and its utility score takes the
// entropies of those groups. So a sweep's group builds are its
// planning's (each scheme's ParamSpace and PlanLadder over the table)
// plus one per scored release, the baseline included: one per planner
// plan. Scoring utility through ComputeUtilityLoss(before, after), which
// regroups both release views, made 2 more per scored candidate, that is
// planning + plans + 2 (plans - 1).
TEST(OptimizerTest, UtilityReusesTheRiskScoresGroups) {
  obs::SetMetricsEnabled(true);
  for (const Database& db : {FixtureDb(), SingletonDb(), SharedReleaseDb()}) {
    auto data = CountedDatabase::Count(db);
    ASSERT_TRUE(data.ok());
    const FrequencyTable& table = data->table();
    uint64_t before = GroupBuilds();
    for (const DefenseScheme* s : DefenseScheme::All()) {
      (void)s->PlanLadder(table, s->ParamSpace(table));
    }
    const uint64_t planning = GroupBuilds() - before;

    before = GroupBuilds();
    const uint64_t plans_before = PlanCount();
    exec::ExecOptions eo;
    eo.threads = 2;
    exec::ExecContext ctx(eo);
    auto frontier = RecommendDefense(*data, OptimizerOptions{}, &ctx);
    ASSERT_TRUE(frontier.ok());
    const uint64_t plans = PlanCount() - plans_before;
    EXPECT_GT(plans, 1u);
    EXPECT_EQ(GroupBuilds() - before, planning + plans);

    before = GroupBuilds();
    (void)defense::ComputeUtilityLoss(table, table);
    EXPECT_EQ(GroupBuilds() - before, 2u);
  }
}

TEST(OptimizerTest, ToJsonDocumentShape) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  const std::string doc = frontier->ToJson().Dump();
  EXPECT_EQ(doc.find("{\"num_items\":"), 0u);
  EXPECT_NE(doc.find("\"baseline\":{\"expected_cracks\":"),
            std::string::npos);
  EXPECT_NE(doc.find("\"candidates\":["), std::string::npos);
  EXPECT_NE(doc.find("\"frontier\":["), std::string::npos);
  EXPECT_NE(doc.find("\"on_frontier\":true"), std::string::npos);
}

TEST(OptimizerTest, WorksWithoutContext) {
  // Null context: sequential sweep at the default exec options (seed 7).
  Database db = FixtureDb();
  auto a = RecommendDefense(db, OptimizerOptions{});
  auto b = Sweep(db, 1, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());
}

}  // namespace
}  // namespace anonsafe
