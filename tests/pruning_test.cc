#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "belief/builders.h"
#include "core/direct_method.h"
#include "core/graph_oestimate.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "graph/edge_pruning.h"
#include "graph/hopcroft_karp.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

// ------------------------------------------------------------ the oracle

/// The matching cover as it was first written: an iterative Tarjan that
/// copies each frame's successors into a vector of its own, and a
/// rebuild of the kept edges through `FromAdjacency`. It is kept as the
/// reference `ComputeMatchingCover` must match field for field.
///
/// Vertices 0..n-1 are anonymized items, n..2n-1 are original items.
/// Arcs: for each edge (a, x): if M(a) == x then x -> a, else a -> x.
class SccSolver {
 public:
  SccSolver(const BipartiteGraph& graph, const Matching& matching)
      : graph_(graph),
        matching_(matching),
        n_(graph.num_items()),
        index_(2 * n_, kUnvisited),
        lowlink_(2 * n_, 0),
        on_stack_(2 * n_, false),
        component_(2 * n_, 0) {}

  void Run() {
    for (size_t v = 0; v < 2 * n_; ++v) {
      if (index_[v] == kUnvisited) Visit(v);
    }
  }

  size_t component(size_t v) const { return component_[v]; }
  size_t num_components() const { return num_components_; }

 private:
  static constexpr size_t kUnvisited = static_cast<size_t>(-1);

  std::vector<size_t> Successors(size_t v) const {
    std::vector<size_t> succ;
    if (v < n_) {
      const auto a = static_cast<ItemId>(v);
      for (ItemId x : graph_.items_of_anon(a)) {
        if (matching_.item_of_anon[a] != x) succ.push_back(n_ + x);
      }
    } else {
      ItemId a = matching_.anon_of_item[v - n_];
      if (a != kInvalidItem) succ.push_back(a);
    }
    return succ;
  }

  void Visit(size_t root) {
    struct Frame {
      size_t v;
      std::vector<size_t> succ;
      size_t cursor = 0;
    };
    std::vector<Frame> stack;
    auto push = [&](size_t v) {
      index_[v] = lowlink_[v] = next_index_++;
      scc_stack_.push_back(v);
      on_stack_[v] = true;
      stack.push_back(Frame{v, Successors(v)});
    };
    push(root);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.cursor < frame.succ.size()) {
        size_t w = frame.succ[frame.cursor++];
        if (index_[w] == kUnvisited) {
          push(w);
        } else if (on_stack_[w]) {
          lowlink_[frame.v] = std::min(lowlink_[frame.v], index_[w]);
        }
        continue;
      }
      size_t v = frame.v;
      if (lowlink_[v] == index_[v]) {
        for (;;) {
          size_t w = scc_stack_.back();
          scc_stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = num_components_;
          if (w == v) break;
        }
        ++num_components_;
      }
      stack.pop_back();
      if (!stack.empty()) {
        size_t parent = stack.back().v;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const BipartiteGraph& graph_;
  const Matching& matching_;
  const size_t n_;
  std::vector<size_t> index_, lowlink_;
  std::vector<bool> on_stack_;
  std::vector<size_t> component_;
  std::vector<size_t> scc_stack_;
  size_t next_index_ = 0;
  size_t num_components_ = 0;
};

Result<MatchingCover> OracleMatchingCover(const BipartiteGraph& graph) {
  const size_t n = graph.num_items();
  Matching matching = HopcroftKarp(graph);
  if (!matching.IsPerfect()) {
    return Status::FailedPrecondition(
        "graph has no perfect matching; the matching cover is empty");
  }
  SccSolver scc(graph, matching);
  scc.Run();
  std::vector<size_t> remap(scc.num_components(), static_cast<size_t>(-1));
  size_t next_id = 0;
  auto map_id = [&](size_t raw) {
    if (remap[raw] == static_cast<size_t>(-1)) remap[raw] = next_id++;
    return remap[raw];
  };
  std::vector<size_t> component_of_anon(n), component_of_item(n);
  for (size_t a = 0; a < n; ++a) component_of_anon[a] = map_id(scc.component(a));
  for (size_t x = 0; x < n; ++x) {
    component_of_item[x] = map_id(scc.component(n + x));
  }
  std::vector<std::vector<ItemId>> kept(n);
  size_t kept_edges = 0;
  for (size_t a = 0; a < n; ++a) {
    for (ItemId x : graph.items_of_anon(static_cast<ItemId>(a))) {
      if (matching.item_of_anon[a] == x ||
          component_of_anon[a] == component_of_item[x]) {
        kept[a].push_back(x);
        ++kept_edges;
      }
    }
  }
  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph pruned,
                            BipartiteGraph::FromAdjacency(n, std::move(kept)));
  return MatchingCover{.graph = std::move(pruned),
                       .component_of_anon = std::move(component_of_anon),
                       .component_of_item = std::move(component_of_item),
                       .num_components = next_id,
                       .pruned_edges = graph.num_edges() - kept_edges};
}

/// Every field of `got` equals the oracle's: both CSR sides row by row,
/// the edge tests and row masks (n <= 64), the pruned-edge count and the
/// component ids.
void ExpectSameCover(const BipartiteGraph& graph, const std::string& label) {
  SCOPED_TRACE(label);
  auto got = ComputeMatchingCover(graph);
  auto want = OracleMatchingCover(graph);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  const size_t n = graph.num_items();
  const BipartiteGraph& g = got->graph;
  const BipartiteGraph& w = want->graph;
  ASSERT_EQ(g.num_items(), n);
  ASSERT_EQ(g.num_edges(), w.num_edges());
  for (ItemId v = 0; v < n; ++v) {
    auto g_row = g.items_of_anon(v);
    auto w_row = w.items_of_anon(v);
    ASSERT_TRUE(std::equal(g_row.begin(), g_row.end(), w_row.begin(),
                           w_row.end()))
        << "anon row " << v;
    auto g_col = g.anons_of_item(v);
    auto w_col = w.anons_of_item(v);
    ASSERT_TRUE(std::equal(g_col.begin(), g_col.end(), w_col.begin(),
                           w_col.end()))
        << "item row " << v;
  }
  ASSERT_EQ(g.has_row_masks(), w.has_row_masks());
  if (n <= 64) {
    EXPECT_EQ(*g.ToRowMasks(), *w.ToRowMasks());
    for (ItemId a = 0; a < n; ++a) {
      for (ItemId x = 0; x < n; ++x) {
        ASSERT_EQ(g.HasEdge(a, x), w.HasEdge(a, x)) << a << "," << x;
      }
    }
  }
  EXPECT_EQ(got->pruned_edges, want->pruned_edges);
  EXPECT_EQ(got->component_of_anon, want->component_of_anon);
  EXPECT_EQ(got->component_of_item, want->component_of_item);
  EXPECT_EQ(got->num_components, want->num_components);
}

/// A random graph on n vertices: each (a, x) with probability p, plus the
/// edges of a random permutation unless `matchable` is false.
BipartiteGraph RandomGraph(Rng* rng, size_t n, double p, bool matchable) {
  std::vector<ItemId> perm(n);
  std::iota(perm.begin(), perm.end(), ItemId{0});
  rng->Shuffle(&perm);
  std::vector<std::vector<ItemId>> adj(n);
  for (size_t a = 0; a < n; ++a) {
    if (matchable) adj[a].push_back(perm[a]);
    for (size_t x = 0; x < n; ++x) {
      if (rng->Bernoulli(p)) adj[a].push_back(static_cast<ItemId>(x));
    }
  }
  return *BipartiteGraph::FromAdjacency(n, std::move(adj));
}

/// Figure 6(b): four singleton frequency groups; items 1 and 2 cover
/// groups {0,1}, item 3 covers {1,2,3}, item 4 covers {2,3}. Every
/// perfect matching maps {1',2'} onto {1,2} and {3',4'} onto {3,4}; the
/// edge (2', 3) is irrelevant.
Result<BipartiteGraph> Figure6b() {
  return BipartiteGraph::FromAdjacency(
      4, {{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}});
}

// ----------------------------------------------------------- MatchingCover

TEST(MatchingCoverTest, Figure6bPrunesIrrelevantEdge) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto cover = ComputeMatchingCover(*g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->pruned_edges, 1u);
  EXPECT_FALSE(cover->graph.HasEdge(1, 2));  // the paper's (2', 3)
  // All other edges survive.
  EXPECT_EQ(cover->graph.num_edges(), 8u);
  // Two identification components: {1,2} side and {3,4} side.
  EXPECT_EQ(cover->component_of_item[0], cover->component_of_item[1]);
  EXPECT_EQ(cover->component_of_item[2], cover->component_of_item[3]);
  EXPECT_NE(cover->component_of_item[0], cover->component_of_item[2]);
}

TEST(MatchingCoverTest, CompleteGraphKeepsEverything) {
  std::vector<std::vector<ItemId>> adj(4);
  for (size_t a = 0; a < 4; ++a) {
    for (size_t x = 0; x < 4; ++x) adj[a].push_back(static_cast<ItemId>(x));
  }
  auto g = BipartiteGraph::FromAdjacency(4, std::move(adj));
  ASSERT_TRUE(g.ok());
  auto cover = ComputeMatchingCover(*g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->pruned_edges, 0u);
  // A complete graph is one big identification component.
  for (size_t x = 1; x < 4; ++x) {
    EXPECT_EQ(cover->component_of_item[0], cover->component_of_item[x]);
  }
}

TEST(MatchingCoverTest, NoPerfectMatchingFails) {
  auto g = BipartiteGraph::FromAdjacency(2, {{0}, {0}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(ComputeMatchingCover(*g).status().IsFailedPrecondition());
}

TEST(MatchingCoverTest, PrunedEdgesAreExactlyUnusableOnes) {
  // Property check against enumeration: an edge survives iff some
  // perfect matching uses it.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.UniformUint64(6);
    std::vector<std::vector<ItemId>> adj(n);
    for (size_t a = 0; a < n; ++a) {
      adj[a].push_back(static_cast<ItemId>(a));  // ensure perfect matching
      for (size_t x = 0; x < n; ++x) {
        if (rng.Bernoulli(0.4)) adj[a].push_back(static_cast<ItemId>(x));
      }
    }
    auto g = BipartiteGraph::FromAdjacency(n, std::move(adj));
    ASSERT_TRUE(g.ok());
    auto cover = ComputeMatchingCover(*g);
    ASSERT_TRUE(cover.ok());

    for (size_t a = 0; a < n; ++a) {
      for (ItemId x : g->items_of_anon(static_cast<ItemId>(a))) {
        // Count matchings through (a, x): force the edge by removing all
        // alternatives, then count perfect matchings of the rest.
        std::vector<std::vector<ItemId>> forced(n);
        for (size_t b = 0; b < n; ++b) {
          if (b == a) {
            forced[b] = {x};
            continue;
          }
          for (ItemId y : g->items_of_anon(static_cast<ItemId>(b))) {
            if (y != x) forced[b].push_back(y);
          }
        }
        auto fg = BipartiteGraph::FromAdjacency(n, std::move(forced));
        ASSERT_TRUE(fg.ok());
        auto count = CountPerfectMatchings(*fg);
        ASSERT_TRUE(count.ok());
        bool usable = *count > 0.0;
        EXPECT_EQ(cover->graph.HasEdge(static_cast<ItemId>(a), x), usable)
            << "trial " << trial << " edge (" << a << "," << x << ")";
      }
    }
  }
}

// ------------------------------------------- MatchingCover vs the oracle

TEST(MatchingCoverOracleTest, RandomGraphsSparseToComplete) {
  Rng rng(101);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = 1 + rng.UniformUint64(200);
    const double densities[] = {0.0, 1.0 / n, 3.0 / n, 0.1, 0.5, 1.0};
    const double p = densities[trial % 6];
    ExpectSameCover(RandomGraph(&rng, n, p, /*matchable=*/true),
                    "trial " + std::to_string(trial) + " n=" +
                        std::to_string(n) + " p=" + std::to_string(p));
  }
}

TEST(MatchingCoverOracleTest, GraphsWithoutPerfectMatchingFailAlike) {
  Rng rng(102);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.UniformUint64(60);
    ExpectSameCover(RandomGraph(&rng, n, 1.0 / n, /*matchable=*/false),
                    "trial " + std::to_string(trial));
  }
}

/// Disjoint blocks of up to 8 vertices on shuffled labels, each a random
/// graph around its own matching (a block of one is a forced pair), plus
/// edges from each block to later blocks only. No perfect matching uses
/// such an edge, so the cover prunes all of them and the pruned graph
/// falls apart into the blocks.
BipartiteGraph BlockGraphWithCrossEdges(Rng* rng, size_t n, double p,
                                        double cross) {
  std::vector<ItemId> anon(n), item(n);
  std::iota(anon.begin(), anon.end(), ItemId{0});
  std::iota(item.begin(), item.end(), ItemId{0});
  rng->Shuffle(&anon);
  rng->Shuffle(&item);
  std::vector<std::vector<ItemId>> adj(n);
  for (size_t start = 0; start < n;) {
    const size_t end =
        start + 1 + rng->UniformUint64(std::min<size_t>(n - start, 8));
    for (size_t i = start; i < end; ++i) {
      adj[anon[i]].push_back(item[i]);
      for (size_t j = start; j < n; ++j) {
        if (rng->Bernoulli(j < end ? p : cross)) {
          adj[anon[i]].push_back(item[j]);
        }
      }
    }
    start = end;
  }
  return *BipartiteGraph::FromAdjacency(n, std::move(adj));
}

TEST(MatchingCoverOracleTest, DisconnectedGraphsWithForcedPairs) {
  Rng rng(103);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.UniformUint64(200);
    const double p = 0.2 * static_cast<double>(trial % 5);
    const double cross = trial % 2 == 0 ? 0.0 : 4.0 / n;
    ExpectSameCover(BlockGraphWithCrossEdges(&rng, n, p, cross),
                    "trial " + std::to_string(trial) + " n=" +
                        std::to_string(n));
  }
}

TEST(MatchingCoverOracleTest, StaircasesPruneAllButTheirMatching) {
  // Anonymized item a may map to items a..a+w (Figure 6(a) when w spans
  // the graph): the diagonal is the one perfect matching, so the cover
  // keeps n edges and prunes every other one.
  for (size_t n : {1, 2, 17, 64, 65, 200}) {
    for (size_t w : {size_t{1}, size_t{8}, n}) {
      std::vector<std::vector<ItemId>> adj(n);
      for (size_t a = 0; a < n; ++a) {
        for (size_t x = a; x < std::min(n, a + w + 1); ++x) {
          adj[a].push_back(static_cast<ItemId>(x));
        }
      }
      auto g = BipartiteGraph::FromAdjacency(n, std::move(adj));
      ASSERT_TRUE(g.ok());
      ExpectSameCover(*g, "n=" + std::to_string(n) + " w=" +
                              std::to_string(w));
      auto cover = ComputeMatchingCover(*g);
      ASSERT_TRUE(cover.ok());
      EXPECT_EQ(cover->graph.num_edges(), n);
      EXPECT_EQ(cover->num_components, 2 * n);
    }
  }
}

TEST(MatchingCoverOracleTest, ConsistencyGraphsOfRandomTables) {
  Rng rng(104);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.UniformUint64(199);
    const size_t m = 20 + rng.UniformUint64(200);
    // Few distinct supports on even trials: large equal-support groups.
    const size_t levels = trial % 2 == 0 ? 1 + rng.UniformUint64(6) : m;
    std::vector<SupportCount> supports(n);
    for (SupportCount& s : supports) {
      s = 1 + static_cast<SupportCount>(rng.UniformUint64(levels) *
                                        (m - 1) / levels);
    }
    auto table = FrequencyTable::FromSupports(supports, m);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    for (double delta : {0.0, 0.01, 0.05, 0.2}) {
      auto beta = MakeCompliantIntervalBelief(*table, delta);
      ASSERT_TRUE(beta.ok());
      auto g = BipartiteGraph::Build(groups, *beta);
      ASSERT_TRUE(g.ok());
      ExpectSameCover(*g, "trial " + std::to_string(trial) + " n=" +
                              std::to_string(n) +
                              " delta=" + std::to_string(delta));
    }
  }
}

// ----------------------------------------------------------- SetDisclosure

TEST(SetDisclosureTest, Figure6bIdentifiesBothPairs) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g, /*small_set_threshold=*/2);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->identified_sets.size(), 2u);
  EXPECT_EQ(sets->identified_sets[0], (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(sets->identified_sets[1], (std::vector<ItemId>{2, 3}));
  EXPECT_EQ(sets->certain_cracks, 0u);
  EXPECT_EQ(sets->small_sets, 2u);
  EXPECT_EQ(sets->items_in_small_sets, 4u);
}

TEST(SetDisclosureTest, StaircaseIsAllCertainCracks) {
  // Figure 6(a): propagation cracks everything; every set is a singleton.
  auto g = BipartiteGraph::FromAdjacency(
      4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->identified_sets.size(), 4u);
  EXPECT_EQ(sets->certain_cracks, 4u);
}

TEST(SetDisclosureTest, CompleteGraphIsOneBigSet) {
  std::vector<std::vector<ItemId>> adj(5);
  for (size_t a = 0; a < 5; ++a) {
    for (size_t x = 0; x < 5; ++x) adj[a].push_back(static_cast<ItemId>(x));
  }
  auto g = BipartiteGraph::FromAdjacency(5, std::move(adj));
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->identified_sets.size(), 1u);
  EXPECT_EQ(sets->identified_sets[0].size(), 5u);
  EXPECT_EQ(sets->certain_cracks, 0u);
  EXPECT_EQ(sets->small_sets, 0u);
}

// ------------------------------------------------------- Graph O-estimates

TEST(GraphOEstimateTest, MatchesGroupFormOnIntervalBeliefs) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + rng.UniformUint64(30);
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(40);
    auto table = FrequencyTable::FromSupports(supports, 50);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto beta = MakeCompliantIntervalBelief(
        *table, 0.1 * rng.UniformDouble());
    ASSERT_TRUE(beta.ok());
    auto g = BipartiteGraph::Build(groups, *beta);
    ASSERT_TRUE(g.ok());

    for (bool propagate : {false, true}) {
      OEstimateOptions opt;
      opt.propagate = propagate;
      auto group_form = ComputeOEstimate(groups, *beta, opt);
      auto graph_form = ComputeOEstimateOnGraph(*g, opt);
      ASSERT_TRUE(group_form.ok());
      ASSERT_TRUE(graph_form.ok());
      EXPECT_NEAR(group_form->expected_cracks, graph_form->expected_cracks,
                  1e-9)
          << "trial " << trial << " propagate " << propagate;
    }
  }
}

TEST(GraphOEstimateTest, Figure6aPropagationOnExplicitGraph) {
  auto g = BipartiteGraph::FromAdjacency(
      4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
  ASSERT_TRUE(g.ok());
  OEstimateOptions raw;
  raw.propagate = false;
  auto naive = ComputeOEstimateOnGraph(*g, raw);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(naive->expected_cracks, 25.0 / 12.0, 1e-12);
  auto propagated = ComputeOEstimateOnGraph(*g);
  ASSERT_TRUE(propagated.ok());
  EXPECT_NEAR(propagated->expected_cracks, 4.0, 1e-12);
  EXPECT_EQ(propagated->forced_items, 4u);
}

TEST(RefinedOEstimateTest, ExactOnFigure6b) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto refined = ComputeRefinedOEstimateOnGraph(*g);
  ASSERT_TRUE(refined.ok());
  // Exact E(X) = 2 (four matchings with 4, 2, 2, 0 cracks).
  EXPECT_NEAR(refined->expected_cracks, 2.0, 1e-12);
  // Plain propagation cannot reach it.
  auto propagated = ComputeOEstimateOnGraph(*g);
  ASSERT_TRUE(propagated.ok());
  EXPECT_LT(propagated->expected_cracks, 2.0);
}

TEST(RefinedOEstimateTest, DominanceChainOnRandomInstances) {
  // naive <= propagated <= refined <= exact, on random compliant graphs.
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 3 + rng.UniformUint64(6);
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(10);
    auto table = FrequencyTable::FromSupports(supports, 20);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto beta = MakeCompliantIntervalBelief(
        *table, 0.25 * rng.UniformDouble());
    ASSERT_TRUE(beta.ok());
    auto g = BipartiteGraph::Build(groups, *beta);
    ASSERT_TRUE(g.ok());

    OEstimateOptions raw;
    raw.propagate = false;
    auto naive = ComputeOEstimateOnGraph(*g, raw);
    auto propagated = ComputeOEstimateOnGraph(*g);
    auto refined = ComputeRefinedOEstimateOnGraph(*g);
    auto exact = ExactExpectedCracksByPermanent(*g);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(propagated.ok());
    ASSERT_TRUE(refined.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(naive->expected_cracks,
              propagated->expected_cracks + 1e-9);
    EXPECT_LE(propagated->expected_cracks,
              refined->expected_cracks + 1e-9);
    EXPECT_LE(refined->expected_cracks, *exact + 1e-6) << "trial " << trial;
  }
}

TEST(RefinedOEstimateTest, GroupFormConvenienceOverload) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  auto refined = ComputeRefinedOEstimate(groups, *beta);
  ASSERT_TRUE(refined.ok());
  // Point-valued components are complete bipartite per group: refined
  // equals the exact g = 3 (Lemma 3).
  EXPECT_NEAR(refined->expected_cracks, 3.0, 1e-12);
}

}  // namespace
}  // namespace anonsafe
