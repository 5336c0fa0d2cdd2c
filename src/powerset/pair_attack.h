#ifndef ANONSAFE_POWERSET_PAIR_ATTACK_H_
#define ANONSAFE_POWERSET_PAIR_ATTACK_H_

#include "graph/bipartite_graph.h"
#include "graph/permanent.h"
#include "powerset/pair_belief.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Result of refining an item-level consistency graph with
/// itemset-level knowledge.
struct PairPrunedGraph {
  BipartiteGraph graph{*BipartiteGraph::FromAdjacency(0, {})};
  size_t pruned_edges = 0;
  size_t revision_rounds = 0;  ///< AC-3 fixpoint iterations
};

/// \brief Arc-consistency pruning with pair beliefs (the attack that
/// Section 8.2's "ongoing work" enables).
///
/// A consistent crack mapping C must now also respect co-occurrence: if
/// C(a) = x and C(b) = y and the hacker constrains the pair {x, y}, the
/// observed pair frequency of {a, b} must fall inside β({x, y}).
/// Projected to single edges this is an arc-consistency condition: edge
/// (a, x) can only participate if for every constrained partner y of x
/// there exists a distinct candidate b of y with F({a, b}) ∈ β({x, y}).
/// The function iterates revisions (AC-3) to a fixpoint.
///
/// `observed_pairs` carries the anonymized co-occurrence counts; under
/// the identity-surrogate convention it is the pair-support matrix of the
/// original database. Sound: every mapping consistent with both levels
/// survives (tested against constrained enumeration); cracked items can
/// only increase — pair knowledge breaks the frequency-group camouflage
/// that protects same-frequency items at the item level.
Result<PairPrunedGraph> PruneWithPairBeliefs(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief);

/// \brief Exact crack distribution over mappings consistent with BOTH the
/// item-level graph and all pair constraints: `EnumerateMatchings` with a
/// pair check on every assignment. Tiny instances only.
Result<CrackDistribution> EnumerateConstrainedCrackDistribution(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief,
    uint64_t max_matchings = 5'000'000);

}  // namespace anonsafe

#endif  // ANONSAFE_POWERSET_PAIR_ATTACK_H_
