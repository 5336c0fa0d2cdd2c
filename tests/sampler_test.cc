#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "belief/builders.h"
#include "core/direct_method.h"
#include "core/simulated.h"
#include "data/frequency.h"
#include "datagen/quest.h"
#include "estimator/planner.h"
#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "graph/matching_sampler.h"
#include "graph/matching_walk.h"
#include "mining/miner.h"
#include "powerset/constrained_attack.h"
#include "powerset/itemset_belief.h"
#include "powerset/pair_attack.h"
#include "powerset/pair_belief.h"
#include "powerset/support_oracle.h"
#include "util/rng.h"
#include "util/stats.h"

namespace anonsafe {
namespace {

// ------------------------------------------------------------------ Seeds

TEST(SamplerTest, CompliantBeliefSeedsWithIdentity) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.05);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE(sampler->seed_is_perfect());
}

TEST(SamplerTest, NonCompliantBeliefUsesGreedySeed) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Item 0 guesses wrong (onto group of item 1), others exact: a perfect
  // matching still exists? No: items 0 and 1 both only like anon 1.
  auto beta = BeliefFunction::Create(
      {{0.18, 0.22}, {0.18, 0.22}, {0.28, 0.32}});
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  EXPECT_FALSE(sampler->seed_is_perfect());
  EXPECT_EQ(sampler->seed_size(), 2u);
}

TEST(SamplerTest, EmptyDomainFails) {
  auto table = FrequencyTable::FromSupports({}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create({});
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  EXPECT_TRUE(MatchingSampler::Create(groups, *beta, opt)
                  .status().IsInvalidArgument());
}

// ----------------------------------------------------- Statistical checks

/// Walks from `seed` and checks the state at the seed and after each of
/// 200 sweeps: item_of_anon and anon_of_item are inverse, every matched
/// pair passes the edge test, the matched count stays the seed's, and
/// `holds(anon_of_item)` (the policy's own consistency) is true.
template <typename Edges, typename Holds>
void ExpectSweepsStayConsistent(const Edges& edges,
                                const std::vector<ItemId>& seed,
                                const Holds& holds) {
  const size_t n = seed.size();
  size_t seed_size = 0;
  for (ItemId x : seed) seed_size += x != kInvalidItem ? 1 : 0;
  MatchingWalk<Edges> walk(edges, seed, /*stream_seed=*/17,
                           /*cycle_move_fraction=*/0.4);
  bool moved = false;
  for (size_t sweep = 0; sweep <= 200; ++sweep) {
    if (sweep > 0) walk.Sweep();
    const std::vector<ItemId>& item_of_anon = walk.item_of_anon();
    const std::vector<ItemId>& anon_of_item = walk.anon_of_item();
    size_t matched = 0;
    for (ItemId a = 0; a < n; ++a) {
      const ItemId x = item_of_anon[a];
      if (x == kInvalidItem) continue;
      ++matched;
      ASSERT_LT(x, n) << "sweep " << sweep;
      ASSERT_EQ(anon_of_item[x], a) << "sweep " << sweep;
      ASSERT_TRUE(edges.HasEdge(a, x))
          << "sweep " << sweep << ": anon " << a << " took item " << x;
    }
    for (ItemId x = 0; x < n; ++x) {
      const ItemId a = anon_of_item[x];
      if (a == kInvalidItem) continue;
      ASSERT_LT(a, n) << "sweep " << sweep;
      ASSERT_EQ(item_of_anon[a], x) << "sweep " << sweep;
    }
    ASSERT_EQ(matched, seed_size) << "sweep " << sweep;
    ASSERT_TRUE(holds(anon_of_item)) << "sweep " << sweep;
    moved = moved || item_of_anon != seed;
  }
  EXPECT_TRUE(moved) << "the walk never left its seed";
}

TEST(SamplerTest, SamplesStayConsistentMatchings) {
  const auto edges_only = [](const std::vector<ItemId>&) { return true; };

  // Interval edges from an imperfect greedy seed: 24 singleton groups,
  // each item believing its own frequency +-0.06, except items 0-3, which
  // all believe only anonymized item 10's 0.3. Three of them stay
  // unmatched, so replacements and transfers run beside swaps and
  // 3-cycles.
  std::vector<SupportCount> supports;
  std::vector<BeliefInterval> intervals;
  for (size_t i = 0; i < 24; ++i) {
    supports.push_back(10 + 5 * i);
    const double f = static_cast<double>(supports.back()) / 200.0;
    intervals.push_back(i < 4 ? BeliefInterval{0.29, 0.31}
                              : BeliefInterval{f - 0.06, f + 0.06});
  }
  auto table = FrequencyTable::FromSupports(supports, 200);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(beta.ok());
  auto sampler = MatchingSampler::Create(groups, *beta, SamplerOptions{});
  ASSERT_TRUE(sampler.ok());
  ASSERT_FALSE(sampler->seed_is_perfect());
  ExpectSweepsStayConsistent(sampler->edges(), sampler->seed_item_of_anon(),
                             edges_only);

  // A planner sampler block: three groups of four, every inner item
  // consistent with all of them, one block past a cutoff of 4.
  std::vector<SupportCount> block_supports;
  for (SupportCount s : {10, 20, 30}) {
    for (int i = 0; i < 4; ++i) block_supports.push_back(s);
  }
  auto block_table = FrequencyTable::FromSupports(block_supports, 100);
  ASSERT_TRUE(block_table.ok());
  FrequencyGroups block_groups = FrequencyGroups::Build(*block_table);
  std::vector<BeliefInterval> block_intervals(12, {0.1, 0.3});
  block_intervals[0] = {0.1, 0.1};
  block_intervals[11] = {0.3, 0.3};
  auto block_belief = BeliefFunction::Create(std::move(block_intervals));
  ASSERT_TRUE(block_belief.ok());
  PlannerOptions planner;
  planner.ryser_cutoff = 4;
  planner.prefer_sampler = true;
  auto plan = PlanBlocks(block_groups, *block_belief, planner);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 1u);
  ASSERT_EQ(plan->blocks[0].method, BlockMethod::kSampler);
  auto block = BlockGraph(*plan, 0);
  ASSERT_TRUE(block.ok());
  Matching block_seed = HopcroftKarp(*block);
  ASSERT_TRUE(block_seed.IsPerfect());
  ExpectSweepsStayConsistent(GraphEdges{&*block}, block_seed.item_of_anon,
                             edges_only);

  // The itemset-constrained fixture of itemset_belief_test: a Quest
  // database with its four most frequent itemsets known to +-0.05. The
  // constraints are compliant, so the walk starts at the identity.
  QuestParams params;
  params.num_items = 8;
  params.num_transactions = 60;
  params.avg_txn_size = 3.0;
  params.seed = 1;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());
  auto quest_table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(quest_table.ok());
  auto oracle = SupportOracle::Build(*db);
  ASSERT_TRUE(oracle.ok());
  auto item_belief = MakeCompliantIntervalBelief(*quest_table, 0.1);
  ASSERT_TRUE(item_belief.ok());
  auto item_graph = BipartiteGraph::Build(
      FrequencyGroups::Build(*quest_table), *item_belief);
  ASSERT_TRUE(item_graph.ok());
  MiningOptions mining;
  mining.min_support = 0.1;
  mining.max_itemset_size = 3;
  auto frequent = MineFPGrowth(*db, mining);
  ASSERT_TRUE(frequent.ok());
  auto itemsets = MakeCompliantItemsetBelief(*oracle, *frequent, 4, 0.05);
  ASSERT_TRUE(itemsets.ok());
  ASSERT_GT(itemsets->num_constraints(), 0u);
  std::vector<ItemId> identity(params.num_items);
  for (ItemId x = 0; x < identity.size(); ++x) identity[x] = x;
  ExpectSweepsStayConsistent(
      ItemsetConstrainedEdges{{&*item_graph}, &*itemsets, &*oracle}, identity,
      [&](const std::vector<ItemId>& anon_of_item) {
        return SatisfiesItemsetConstraints(*itemsets, *oracle, anon_of_item);
      });
}

TEST(SamplerTest, IgnorantBeliefMeanNearOne) {
  // Lemma 1: uniform perfect matchings of the complete graph crack one
  // item in expectation.
  std::vector<SupportCount> supports(12);
  for (size_t i = 0; i < 12; ++i) supports[i] = i + 1;
  auto table = FrequencyTable::FromSupports(supports, 50);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  SamplerOptions opt;
  opt.num_samples = 2000;
  opt.burn_in_sweeps = 50;
  opt.thinning_sweeps = 5;
  opt.exec.seed = 99;
  auto sampler =
      MatchingSampler::Create(groups, MakeIgnorantBelief(12), opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  double mean = 0.0;
  for (size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());
  EXPECT_NEAR(mean, 1.0, 0.15);
}

class SamplerVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerVsExactTest, MatchesPermanentExpectation) {
  // Random compliant interval beliefs on small domains: the sampler's
  // mean crack count must approach the exact permanent-based expectation.
  Rng rng(GetParam());
  const size_t n = 5 + rng.UniformUint64(4);
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(12);
  auto table = FrequencyTable::FromSupports(supports, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta =
      MakeCompliantIntervalBelief(*table, 0.05 + 0.2 * rng.UniformDouble());
  ASSERT_TRUE(beta.ok());

  auto exact = DirectExpectedCracks(groups, *beta);
  ASSERT_TRUE(exact.ok());

  SamplerOptions opt;
  opt.num_samples = 3000;
  opt.burn_in_sweeps = 60;
  opt.thinning_sweeps = 4;
  opt.exec.seed = GetParam() * 31 + 1;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  double mean = 0.0;
  for (size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());

  EXPECT_NEAR(mean, *exact, 0.25 + 0.1 * *exact) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerVsExactTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(SamplerTest, InterestMaskRestrictsCounts) {
  auto table = FrequencyTable::FromSupports({5, 5, 5, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  opt.num_samples = 200;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<bool> nobody(4, false);
  auto counts = sampler->SampleCrackCounts(nobody);
  ASSERT_TRUE(counts.ok());
  for (size_t c : *counts) EXPECT_EQ(c, 0u);
  std::vector<bool> wrong_size(3, true);
  EXPECT_TRUE(sampler->SampleCrackCounts(wrong_size)
                  .status().IsInvalidArgument());
}

TEST(SamplerTest, DeterministicAcrossRunsWithSameSeed) {
  auto table = FrequencyTable::FromSupports({2, 4, 6, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.3);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  opt.num_samples = 100;
  opt.exec.seed = 12345;
  auto s1 = MatchingSampler::Create(groups, *beta, opt);
  auto s2 = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->SampleCrackCounts(), s2->SampleCrackCounts());
}

TEST(SamplerTest, DistributionMatchesEnumerationOnTinyGraph) {
  // Beyond the mean: the sampled crack-count *distribution* must match
  // the exact distribution over all consistent matchings (total
  // variation distance small). Two groups of sizes 2 and 3, fully
  // point-valued: matchings factorize as S2 x S3.
  auto table = FrequencyTable::FromSupports({3, 3, 7, 7, 7}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());

  auto exact = DirectCrackDistribution(groups, *beta);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->num_matchings, 12u);  // 2! * 3!

  SamplerOptions opt;
  opt.num_samples = 6000;
  opt.burn_in_sweeps = 50;
  opt.thinning_sweeps = 3;
  opt.exec.seed = 77;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  std::vector<double> empirical(6, 0.0);
  for (size_t c : counts) empirical[c] += 1.0;
  for (double& p : empirical) p /= static_cast<double>(counts.size());

  double tv = 0.0;
  for (size_t c = 0; c < 6; ++c) {
    tv += std::abs(empirical[c] - exact->probability[c]);
  }
  tv /= 2.0;
  EXPECT_LT(tv, 0.04) << "total variation distance too large";
}

// ------------------------------------------------- Enumeration oracle

/// The crack distribution of `graph` by a loop over all n! assignments:
/// one counts when every item takes an anonymized item adjacent to it and
/// `holds(anon_of_item)`.
template <typename Holds>
CrackDistribution BruteForceDistribution(const BipartiteGraph& graph,
                                         const Holds& holds) {
  const size_t n = graph.num_items();
  std::vector<ItemId> anon_of_item(n);
  std::iota(anon_of_item.begin(), anon_of_item.end(), ItemId{0});
  std::vector<uint64_t> tally(n + 1, 0);
  CrackDistribution out;
  do {
    bool consistent = true;
    size_t cracks = 0;
    for (ItemId x = 0; x < n && consistent; ++x) {
      consistent = graph.HasEdge(anon_of_item[x], x);
      cracks += anon_of_item[x] == x ? 1 : 0;
    }
    if (!consistent || !holds(anon_of_item)) continue;
    ++out.num_matchings;
    ++tally[cracks];
  } while (std::next_permutation(anon_of_item.begin(), anon_of_item.end()));
  out.probability.assign(n + 1, 0.0);
  for (size_t c = 0; c <= n && out.num_matchings > 0; ++c) {
    out.probability[c] = static_cast<double>(tally[c]) /
                         static_cast<double>(out.num_matchings);
    out.expected += static_cast<double>(c) * out.probability[c];
  }
  return out;
}

void ExpectSameDistribution(const Result<CrackDistribution>& got,
                            const CrackDistribution& want, double tolerance,
                            const std::string& what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  EXPECT_EQ(got->num_matchings, want.num_matchings) << what;
  ASSERT_EQ(got->probability.size(), want.probability.size()) << what;
  for (size_t c = 0; c < want.probability.size(); ++c) {
    EXPECT_NEAR(got->probability[c], want.probability[c], tolerance)
        << what << ", " << c << " cracks";
  }
  EXPECT_NEAR(got->expected, want.expected, tolerance) << what;
}

TEST(EnumerationOracleTest, EveryPolicyMatchesBruteForce) {
  // Quest tables of 6-7 items. Each gets compliant item beliefs at two
  // widths and one shifted onto a random permutation's frequencies (a
  // perfect matching that need not use identity edges), and on each
  // graph every exact path is held against all n! assignments.
  size_t without_identity = 0;  // graphs missing an identity edge
  size_t pairs_binding = 0;     // pair beliefs that removed a matching
  size_t itemsets_binding = 0;  // itemset beliefs that removed one
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    QuestParams params;
    params.num_items = 6 + seed % 2;
    params.num_transactions = 50;
    params.avg_txn_size = 3.0;
    params.seed = seed;
    auto db = GenerateQuestDatabase(params);
    ASSERT_TRUE(db.ok());
    auto table = FrequencyTable::Compute(*db);
    ASSERT_TRUE(table.ok());
    const FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto oracle = SupportOracle::Build(*db);
    ASSERT_TRUE(oracle.ok());
    auto pairs = PairSupportMatrix::Compute(*db);
    ASSERT_TRUE(pairs.ok());
    const size_t n = params.num_items;
    Rng rng(seed);

    std::vector<BeliefFunction> beliefs;
    for (double delta : {0.02, 0.08}) {
      auto compliant = MakeCompliantIntervalBelief(*table, delta);
      ASSERT_TRUE(compliant.ok());
      beliefs.push_back(*std::move(compliant));
    }
    std::vector<ItemId> shift(n);
    std::iota(shift.begin(), shift.end(), ItemId{0});
    rng.Shuffle(&shift);
    std::vector<BeliefInterval> shifted(n);
    for (ItemId x = 0; x < n; ++x) {
      const double f = table->frequency(shift[x]);
      shifted[x] = {std::max(0.0, f - 0.03), std::min(1.0, f + 0.03)};
    }
    auto shifted_belief = BeliefFunction::Create(std::move(shifted));
    ASSERT_TRUE(shifted_belief.ok());
    beliefs.push_back(*std::move(shifted_belief));

    for (size_t b = 0; b < beliefs.size(); ++b) {
      const std::string what =
          "seed " + std::to_string(seed) + ", belief " + std::to_string(b);
      auto graph = BipartiteGraph::Build(groups, beliefs[b]);
      ASSERT_TRUE(graph.ok());
      const CrackDistribution plain = BruteForceDistribution(
          *graph, [](const std::vector<ItemId>&) { return true; });
      ASSERT_GT(plain.num_matchings, 0u) << what;  // identity or shift
      ExpectSameDistribution(EnumerateCrackDistribution(*graph), plain, 0.0,
                             what + ", plain");
      ExpectSameDistribution(PlannedCrackDistribution(groups, beliefs[b]),
                             plain, 1e-12, what + ", planned");
      PlannerOptions exact_planner;
      exact_planner.ryser_cutoff = kMaxPermanentN;
      exact_planner.require_exact = true;
      auto estimate = PlanAndEstimate(groups, beliefs[b], exact_planner);
      ASSERT_TRUE(estimate.ok()) << what << ": " << estimate.status();
      EXPECT_TRUE(estimate->exact) << what;
      EXPECT_NEAR(estimate->expected_cracks, plain.expected, 1e-12)
          << what << ", planned estimate";
      bool identity = true;
      for (ItemId x = 0; x < n; ++x) identity &= graph->HasEdge(x, x);
      if (!identity) ++without_identity;

      auto pair_belief = MakeRandomPairBelief(*pairs, 3, 0.02, 1, &rng);
      ASSERT_TRUE(pair_belief.ok());
      const std::vector<ItemPair> constrained = pair_belief->ConstrainedPairs();
      const CrackDistribution pair_oracle = BruteForceDistribution(
          *graph, [&](const std::vector<ItemId>& anon_of_item) {
            for (const ItemPair& p : constrained) {
              if (!pair_belief->interval(p.a, p.b).Contains(pairs->frequency(
                      anon_of_item[p.a], anon_of_item[p.b]))) {
                return false;
              }
            }
            return true;
          });
      ExpectSameDistribution(
          EnumerateConstrainedCrackDistribution(*graph, *pairs, *pair_belief),
          pair_oracle, 0.0, what + ", pairs");
      if (pair_oracle.num_matchings < plain.num_matchings) ++pairs_binding;

      // Two random triples: the first on its true frequency, the second
      // off it on every other belief.
      ItemsetBeliefFunction itemsets(n);
      for (int t = 0; t < 2; ++t) {
        std::vector<ItemId> items(n);
        std::iota(items.begin(), items.end(), ItemId{0});
        rng.Shuffle(&items);
        items.resize(3);
        std::sort(items.begin(), items.end());
        const double f = oracle->Frequency(items);
        BeliefInterval iv{std::max(0.0, f - 0.02), std::min(1.0, f + 0.02)};
        if (t == 1 && (seed + b) % 2 == 1) {
          iv = f + 0.15 <= 1.0 ? BeliefInterval{f + 0.05, f + 0.15}
                               : BeliefInterval{f - 0.15, f - 0.05};
        }
        ASSERT_TRUE(itemsets.Constrain(std::move(items), iv).ok());
      }
      const CrackDistribution itemset_oracle = BruteForceDistribution(
          *graph, [&](const std::vector<ItemId>& anon_of_item) {
            return SatisfiesItemsetConstraints(itemsets, *oracle,
                                               anon_of_item);
          });
      ExpectSameDistribution(
          EnumerateItemsetConstrainedDistribution(*graph, *oracle, itemsets),
          itemset_oracle, 0.0, what + ", itemsets");
      if (itemset_oracle.num_matchings < plain.num_matchings) {
        ++itemsets_binding;
      }
    }
  }
  EXPECT_GT(without_identity, 0u);
  EXPECT_GT(pairs_binding, 0u);
  EXPECT_GT(itemsets_binding, 0u);
}

class GreedySeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedySeedTest, GreedyIntervalSeedIsMaximum) {
  // The sampler's exchange-greedy seed for interval structures must match
  // the Hopcroft-Karp maximum on the explicit graph — including under
  // non-compliant beliefs where the matching is not perfect.
  Rng rng(GetParam() * 271 + 9);
  const size_t n = 4 + rng.UniformUint64(20);
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(30);
  auto table = FrequencyTable::FromSupports(supports, 40);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Wild intervals: arbitrary, frequently non-compliant.
  std::vector<BeliefInterval> intervals(n);
  for (size_t x = 0; x < n; ++x) {
    double a = rng.UniformDouble(), b = rng.UniformDouble();
    intervals[x] = {std::min(a, b), std::max(a, b)};
  }
  auto beta = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(beta.ok());

  SamplerOptions opt;
  opt.num_samples = 1;
  opt.burn_in_sweeps = 0;
  opt.burn_in_scale = 0.0;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());

  auto graph = BipartiteGraph::Build(groups, *beta);
  ASSERT_TRUE(graph.ok());
  Matching hk = HopcroftKarp(*graph);
  EXPECT_EQ(sampler->seed_size(), hk.size) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedySeedTest,
                         ::testing::Range<uint64_t>(1, 21));

// --------------------------------------------------- SimulateExpectedCracks

TEST(SimulatedTest, MeanAndStdDevAcrossRuns) {
  auto table = FrequencyTable::FromSupports({2, 3, 5, 5, 7, 7}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.15);
  ASSERT_TRUE(beta.ok());

  SimulationOptions opt;
  opt.exec.runs = 5;
  opt.sampler.num_samples = 400;
  opt.sampler.burn_in_sweeps = 40;
  opt.sampler.thinning_sweeps = 3;
  auto sim = SimulateExpectedCracks(groups, *beta, opt);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->run_means.size(), 5u);
  EXPECT_TRUE(sim->seed_was_perfect);

  auto exact = DirectExpectedCracks(groups, *beta);
  ASSERT_TRUE(exact.ok());
  // Within one-ish standard deviation plus slack (the paper's Figure 10
  // criterion).
  EXPECT_NEAR(sim->mean, *exact, std::max(0.2, 3.0 * sim->stddev));
}

TEST(SimulatedTest, ZeroRunsRejected) {
  auto table = FrequencyTable::FromSupports({2, 3}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  SimulationOptions opt;
  opt.exec.runs = 0;
  EXPECT_TRUE(SimulateExpectedCracks(groups, MakeIgnorantBelief(2), opt)
                  .status().IsInvalidArgument());
}

}  // namespace
}  // namespace anonsafe
