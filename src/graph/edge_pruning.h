#ifndef ANONSAFE_GRAPH_EDGE_PRUNING_H_
#define ANONSAFE_GRAPH_EDGE_PRUNING_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Result of restricting a consistency graph to its *matching
/// cover* — the edges that participate in at least one perfect matching.
///
/// This is the full generalization of the paper's degree-1 propagation
/// (Fig. 7): Section 5.2 observes that in Figure 6(b) the edge (2', 3) is
/// "irrelevant" — no perfect matching uses it — yet the O-estimate keeps
/// counting it. Degree-1 propagation only catches the special case where
/// a vertex has a single candidate. The complete criterion is classical
/// (Dulmage–Mendelsohn): fix any perfect matching M and orient the graph
/// (matched edges item→anon, unmatched anon→item); an edge is used by
/// some perfect matching iff it is in M or its endpoints lie in the same
/// strongly connected component. Pruning to that edge set yields the
/// *refined* outdegrees and, through them, the refined O-estimate
/// (`ComputeRefinedOEstimate` in core/), which is exact whenever every
/// component is complete bipartite — e.g. it returns the exact 2 for
/// Figure 6(b) where the plain O-estimate cannot.
struct MatchingCover {
  /// The pruned graph: same vertices, only matching-usable edges.
  BipartiteGraph graph;

  /// Component id per anonymized item / per item. Two vertices share an
  /// id iff they lie in the same SCC of the alternating-structure
  /// digraph. Components are numbered contiguously from 0.
  std::vector<size_t> component_of_anon;
  std::vector<size_t> component_of_item;
  size_t num_components = 0;

  /// Edges removed from the input graph.
  size_t pruned_edges = 0;
};

/// \brief Computes the matching cover of `graph`.
///
/// Fails with FailedPrecondition when the graph admits no perfect
/// matching (every edge would be vacuously unusable; the α-compliant
/// analyses handle that case separately).
Result<MatchingCover> ComputeMatchingCover(const BipartiteGraph& graph);

/// \brief Set-level disclosure (the paper's Section 8.2 "ongoing work"):
/// even when individual items are protected, a *set* of items can be
/// identified with certainty — in Figure 6(b) the itemset {1', 2'}
/// indisputably maps to {1, 2}.
///
/// The certainly-identified sets are exactly the matching-cover
/// components: every perfect matching maps a component's anonymized items
/// onto precisely its original items. Components of size 1 are individual
/// certain cracks (what Fig. 7 propagation finds); small components leak
/// almost as much.
struct SetDisclosure {
  /// Original items of each certainly-identified set, ascending by id;
  /// sets ordered by their smallest member.
  std::vector<std::vector<ItemId>> identified_sets;

  /// Number of sets of size 1 (certain individual cracks).
  size_t certain_cracks = 0;

  /// Number of sets of size <= threshold given to the analysis.
  size_t small_sets = 0;

  /// Items living in sets of size <= threshold; the owner should treat
  /// these as effectively disclosed.
  size_t items_in_small_sets = 0;
};

/// \brief Runs set-level disclosure analysis on a consistency graph.
/// `small_set_threshold` defines which set sizes count as "effectively
/// disclosed" (the paper's example has size 2).
Result<SetDisclosure> AnalyzeSetDisclosure(const BipartiteGraph& graph,
                                           size_t small_set_threshold = 2);

}  // namespace anonsafe

#endif  // ANONSAFE_GRAPH_EDGE_PRUNING_H_
