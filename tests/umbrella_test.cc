// Compile-level check of the umbrella header plus a miniature end-to-end
// flow touching one symbol from every exported module, so an include or
// link regression in any public header breaks this test first.

#include "anonsafe.h"

// The umbrella is the public surface and only the public surface:
// implementation machinery must not ride in transitively.
#ifdef ANONSAFE_CORE_ALPHA_SWEEP_H_
#error "anonsafe.h leaks core/alpha_sweep.h (recipe internals)"
#endif
#ifdef ANONSAFE_EXEC_SCRATCH_H_
#error "anonsafe.h leaks exec/scratch.h (scratch-pool internals)"
#endif
#ifdef ANONSAFE_OBS_HANDLE_CACHE_H_
#error "anonsafe.h leaks obs/handle_cache.h (metric-handle internals)"
#endif

#include <gtest/gtest.h>

#include <sstream>

namespace anonsafe {
namespace {

TEST(UmbrellaTest, WholeApiFlows) {
  Rng rng(1);

  // datagen + data
  auto profile = FrequencyProfile::Create(60, {{5, 3}, {20, 2}, {40, 1}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  // anonymize
  Anonymizer mapping = Anonymizer::Random(db->num_items(), &rng);
  auto released = mapping.AnonymizeDatabase(*db);
  ASSERT_TRUE(released.ok());

  // mining (+ rules)
  MiningOptions mining;
  mining.min_support = 0.05;
  auto patterns = MineFPGrowth(*db, mining);
  ASSERT_TRUE(patterns.ok());
  RuleOptions rule_options;
  rule_options.min_confidence = 0.3;
  auto rules = GenerateRules(*patterns, db->num_transactions(),
                             rule_options);
  ASSERT_TRUE(rules.ok());

  // belief + chain
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  ChainSpec chain;
  chain.n = {5, 3};
  chain.e = {3, 2};
  chain.s = {3};
  ASSERT_TRUE(ValidateChain(chain).ok());

  // graph stack
  auto graph = BipartiteGraph::Build(groups, *belief);
  ASSERT_TRUE(graph.ok());
  Matching matching = HopcroftKarp(*graph);
  EXPECT_TRUE(matching.IsPerfect());
  auto cover = ComputeMatchingCover(*graph);
  ASSERT_TRUE(cover.ok());
  auto permanent = CountPerfectMatchings(*graph);
  ASSERT_TRUE(permanent.ok());
  EXPECT_GE(*permanent, 1.0);

  // core estimators
  auto oe = ComputeOEstimate(groups, *belief);
  ASSERT_TRUE(oe.ok());
  auto refined = ComputeRefinedOEstimateOnGraph(*graph);
  ASSERT_TRUE(refined.ok());
  auto risk = ComputePerItemRisk(groups, *belief);
  ASSERT_TRUE(risk.ok());
  EXPECT_NEAR(risk->total_expected_cracks, oe->expected_cracks, 1e-9);
  RecipeOptions recipe;
  recipe.tolerance = 0.5;
  auto verdict = AssessRisk(*table, recipe);
  ASSERT_TRUE(verdict.ok());

  // relational
  auto population = GeneratePopulation({{"a", 3}, {"b", 4}}, 6, 0.5, &rng);
  ASSERT_TRUE(population.ok());
  RelationalKnowledge knowledge(6, 2);
  auto relational_graph = knowledge.BuildConsistencyGraph(*population);
  ASSERT_TRUE(relational_graph.ok());

  // powerset
  auto pair_supports = PairSupportMatrix::Compute(*db);
  ASSERT_TRUE(pair_supports.ok());
  PairBeliefFunction pair_belief(db->num_items());
  ASSERT_TRUE(pair_belief.Constrain(0, 1, {0.0, 1.0}).ok());

  // defense
  defense::DefenseParams merge_params;
  merge_params.Set("gap", 0.0);
  auto plan =
      defense::DefenseScheme::Find("group_merge")->Plan(*table, merge_params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->l1_distortion, 0u);

  // util output
  TablePrinter printer({"k", "v"});
  printer.AddRow({"oe", TablePrinter::Fmt(oe->expected_cracks, 3)});
  EXPECT_FALSE(printer.ToString().empty());

  // json + obs
  json::Value doc = json::Value::Object();
  doc.Set("oe", json::Value(oe->expected_cracks));
  EXPECT_TRUE(json::Value::Parse(doc.Dump()).ok());

  // serve (streams transport keeps this hermetic)
  serve::Server server;
  std::istringstream requests(
      "{\"schema_version\":1,\"verb\":\"metrics\"}\n"
      "{\"schema_version\":1,\"verb\":\"shutdown\"}\n");
  std::ostringstream responses;
  EXPECT_TRUE(serve::ServeStreams(server, requests, responses).ok());
  EXPECT_FALSE(responses.str().empty());

  // obs: the serve session above recorded request metrics.
  EXPECT_FALSE(obs::ExportPrometheus(obs::MetricsRegistry::Global())
                   .empty());
}

}  // namespace
}  // namespace anonsafe
