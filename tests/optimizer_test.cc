#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "belief/builders.h"
#include "data/database.h"
#include "defense/k_anonymity.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "defense/utility.h"
#include "estimator/planner.h"
#include "exec/exec.h"
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

Result<DefenseFrontier> Sweep(const Database& db, size_t threads,
                              uint64_t seed = 7) {
  exec::ExecOptions eo;
  eo.seed = seed;
  eo.threads = threads;
  exec::ExecContext ctx(eo);
  return RecommendDefense(db, OptimizerOptions{}, &ctx);
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
  Database db = FixtureDb();
  auto t1 = Sweep(db, 1);
  auto t4 = Sweep(db, 4);
  auto t8 = Sweep(db, 8);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(t8.ok());
  const std::string doc1 = t1->ToJson().Dump();
  EXPECT_EQ(doc1, t4->ToJson().Dump());
  EXPECT_EQ(doc1, t8->ToJson().Dump());
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
                               uint64_t sampler_seed) {
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
  PlannerOptions planner;
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
  exec::ExecOptions eo;
  eo.threads = 2;
  exec::ExecContext ctx(eo);
  ctx.RequestCancel();
  auto frontier = RecommendDefense(db, OptimizerOptions{}, &ctx);
  ASSERT_FALSE(frontier.ok());
  EXPECT_TRUE(frontier.status().IsCancelled());
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
