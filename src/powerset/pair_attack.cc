#include "powerset/pair_attack.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <vector>

#include "graph/matching_walk.h"

namespace anonsafe {
namespace {

Status CheckDomains(const BipartiteGraph& graph,
                    const PairSupportMatrix& observed_pairs,
                    const PairBeliefFunction& pair_belief) {
  if (graph.num_items() != observed_pairs.num_items() ||
      graph.num_items() != pair_belief.num_items()) {
    return Status::InvalidArgument(
        "graph, pair supports and pair belief must share one domain");
  }
  return Status::OK();
}

/// Constraint adjacency: for each item, its constrained partners.
std::vector<std::vector<ItemId>> PairPartners(
    const PairBeliefFunction& pair_belief) {
  std::vector<std::vector<ItemId>> partners(pair_belief.num_items());
  for (const ItemPair& pair : pair_belief.ConstrainedPairs()) {
    partners[pair.a].push_back(pair.b);
    partners[pair.b].push_back(pair.a);
  }
  return partners;
}

/// Pair constraints as a consistency policy: each moved item's assigned
/// constrained partners must co-occur, under the assignment, at a
/// frequency inside the pair's belief interval.
struct PairConstrainedEdges : GraphEdges {
  const PairSupportMatrix* observed_pairs;
  const PairBeliefFunction* pair_belief;
  const std::vector<std::vector<ItemId>>* partners;

  bool Accepts(const std::vector<ItemId>& anon_of_item,
               std::initializer_list<ItemId> moved) const {
    for (ItemId x : moved) {
      for (ItemId y : (*partners)[x]) {
        const ItemId b = anon_of_item[y];
        if (b != kInvalidItem &&
            !pair_belief->interval(x, y).Contains(
                observed_pairs->frequency(anon_of_item[x], b))) {
          return false;
        }
      }
    }
    return true;
  }
};

}  // namespace

Result<PairPrunedGraph> PruneWithPairBeliefs(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, observed_pairs, pair_belief));
  const size_t n = graph.num_items();

  // Mutable domains: candidate anonymized items per original item.
  std::vector<std::vector<ItemId>> domain(n);
  for (ItemId x = 0; x < n; ++x) {
    BipartiteGraph::AdjacencyRow row = graph.anons_of_item(x);
    domain[x].assign(row.begin(), row.end());
  }

  const std::vector<std::vector<ItemId>> partners = PairPartners(pair_belief);

  PairPrunedGraph out;

  // AC-3 over the pair constraints: revise x's domain against partner y.
  std::deque<std::pair<ItemId, ItemId>> queue;  // (x, y): revise x wrt y
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y : partners[x]) queue.emplace_back(x, y);
  }
  size_t safety = 0;
  // Each successful revision deletes >= 1 of the <= n^2 domain values and
  // enqueues <= n arcs, so pops are bounded by n^3 + initial arcs.
  const size_t max_revisions = n * n * n + 2 * n * n + 64;
  while (!queue.empty()) {
    if (++safety > max_revisions) {
      return Status::Internal("AC-3 failed to reach a fixpoint");
    }
    auto [x, y] = queue.front();
    queue.pop_front();
    const BeliefInterval iv = pair_belief.interval(x, y);
    bool revised = false;
    auto supported = [&](ItemId a) {
      for (ItemId b : domain[y]) {
        if (b == a) continue;  // 1-1 mapping: x and y need distinct anons
        if (iv.Contains(observed_pairs.frequency(a, b))) return true;
      }
      return false;
    };
    auto& dom = domain[x];
    size_t before = dom.size();
    dom.erase(std::remove_if(dom.begin(), dom.end(),
                             [&](ItemId a) { return !supported(a); }),
              dom.end());
    if (dom.size() != before) {
      revised = true;
      out.pruned_edges += before - dom.size();
    }
    if (revised) {
      ++out.revision_rounds;
      // Everything constrained with x may have relied on x's removed
      // values; re-revise those arcs.
      for (ItemId z : partners[x]) queue.emplace_back(z, x);
    }
  }

  // Rebuild an explicit graph from the surviving domains.
  std::vector<std::vector<ItemId>> items_of_anon(n);
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId a : domain[x]) {
      items_of_anon[a].push_back(x);
    }
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      out.graph, BipartiteGraph::FromAdjacency(n, std::move(items_of_anon)));
  return out;
}

Result<CrackDistribution> EnumerateConstrainedCrackDistribution(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief, uint64_t max_matchings) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, observed_pairs, pair_belief));
  const std::vector<std::vector<ItemId>> partners = PairPartners(pair_belief);
  return EnumerateMatchings(
      PairConstrainedEdges{{&graph}, &observed_pairs, &pair_belief, &partners},
      [](ItemId x, ItemId a) { return x == a; }, max_matchings);
}

}  // namespace anonsafe
