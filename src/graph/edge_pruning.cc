#include "graph/edge_pruning.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// Strongly connected components of the alternating-structure digraph
/// by an iterative Tarjan; `component[v]` gets v's SCC, numbered in the
/// order the SCCs close. Returns the number of SCCs.
///
/// Vertices 0..n-1 are anonymized items, n..2n-1 are original items.
/// Arcs: for each edge (a, x): if M(a) == x then x -> a, else a -> x.
/// (Any consistent orientation convention works; this one makes each
/// alternating cycle a directed cycle.) So anon a's successors are its
/// CSR row without M(a), in row order, and item x's one successor is
/// M(x). Each DFS frame keeps a cursor into its vertex's successors
/// instead of a copy of them, so a call allocates only arrays of 2n.
size_t StronglyConnectedComponents(const BipartiteGraph& graph,
                                   const Matching& matching,
                                   std::vector<size_t>* component) {
  const size_t n = graph.num_items();
  std::vector<size_t> index(2 * n, kNone);
  std::vector<size_t> lowlink(2 * n, 0);
  // A visited vertex sits on the SCC stack until its SCC closes, so
  // "on the stack" is "visited, component not yet set".
  component->assign(2 * n, kNone);
  std::vector<size_t> scc_stack;
  scc_stack.reserve(2 * n);
  struct Frame {
    size_t v;
    size_t cursor;  ///< anon: next row position; item: arcs taken
  };
  std::vector<Frame> dfs;
  dfs.reserve(2 * n);
  size_t next_index = 0;
  size_t num_components = 0;

  // The frame's next successor, or kNone when it has none left.
  auto next_successor = [&](Frame& f) -> size_t {
    if (f.v < n) {
      const auto a = static_cast<ItemId>(f.v);
      const BipartiteGraph::AdjacencyRow row = graph.items_of_anon(a);
      while (f.cursor < row.size()) {
        const ItemId x = row[f.cursor++];
        if (x != matching.item_of_anon[a]) return n + x;
      }
      return kNone;
    }
    if (f.cursor++ > 0) return kNone;
    const ItemId a = matching.anon_of_item[f.v - n];
    return a != kInvalidItem ? static_cast<size_t>(a) : kNone;
  };
  auto push = [&](size_t v) {
    index[v] = lowlink[v] = next_index++;
    scc_stack.push_back(v);
    dfs.push_back({v, 0});
  };

  for (size_t root = 0; root < 2 * n; ++root) {
    if (index[root] != kNone) continue;
    push(root);
    while (!dfs.empty()) {
      const size_t v = dfs.back().v;
      const size_t w = next_successor(dfs.back());
      if (w != kNone) {
        if (index[w] == kNone) {
          push(w);
        } else if ((*component)[w] == kNone) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        // v is an SCC root: pop its component.
        size_t u;
        do {
          u = scc_stack.back();
          scc_stack.pop_back();
          (*component)[u] = num_components;
        } while (u != v);
        ++num_components;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const size_t parent = dfs.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return num_components;
}

}  // namespace

Result<MatchingCover> ComputeMatchingCover(const BipartiteGraph& graph) {
  obs::ScopedTimer timer("graph.matching_cover");
  const size_t n = graph.num_items();
  Matching matching = HopcroftKarp(graph);
  if (!matching.IsPerfect()) {
    return Status::FailedPrecondition(
        "graph has no perfect matching; the matching cover is empty");
  }

  std::vector<size_t> scc;
  const size_t num_scc = StronglyConnectedComponents(graph, matching, &scc);

  // Compact component ids to a contiguous range over used ids.
  std::vector<size_t> remap(num_scc, kNone);
  size_t next_id = 0;
  auto map_id = [&](size_t raw) {
    if (remap[raw] == kNone) remap[raw] = next_id++;
    return remap[raw];
  };
  std::vector<size_t> component_of_anon(n);
  std::vector<size_t> component_of_item(n);
  for (size_t a = 0; a < n; ++a) component_of_anon[a] = map_id(scc[a]);
  for (size_t x = 0; x < n; ++x) component_of_item[x] = map_id(scc[n + x]);

  // Keep an edge iff it is matched or joins vertices of one SCC.
  BipartiteGraph pruned = graph.Subgraph([&](ItemId a, ItemId x) {
    return matching.item_of_anon[a] == x ||
           component_of_anon[a] == component_of_item[x];
  });
  const size_t pruned_edges = graph.num_edges() - pruned.num_edges();
  obs::CountIf("anonsafe_pruned_edges_total", pruned_edges);
  if (timer.tracing()) {
    timer.Annotate("pruned_edges", std::to_string(pruned_edges));
    timer.Annotate("components", std::to_string(next_id));
  }
  return MatchingCover{.graph = std::move(pruned),
                       .component_of_anon = std::move(component_of_anon),
                       .component_of_item = std::move(component_of_item),
                       .num_components = next_id,
                       .pruned_edges = pruned_edges};
}

Result<SetDisclosure> AnalyzeSetDisclosure(const BipartiteGraph& graph,
                                           size_t small_set_threshold) {
  ANONSAFE_ASSIGN_OR_RETURN(MatchingCover cover, ComputeMatchingCover(graph));
  const size_t n = graph.num_items();

  std::vector<std::vector<ItemId>> sets(cover.num_components);
  for (ItemId x = 0; x < n; ++x) {
    sets[cover.component_of_item[x]].push_back(x);
  }
  // Matched pairs put every anon item in the same component as some item,
  // so no component is item-empty; still, drop empties defensively.
  sets.erase(std::remove_if(sets.begin(), sets.end(),
                            [](const std::vector<ItemId>& s) {
                              return s.empty();
                            }),
             sets.end());
  std::sort(sets.begin(), sets.end(),
            [](const std::vector<ItemId>& a, const std::vector<ItemId>& b) {
              return a.front() < b.front();
            });

  SetDisclosure out;
  for (const auto& s : sets) {
    if (s.size() == 1) ++out.certain_cracks;
    if (s.size() <= small_set_threshold) {
      ++out.small_sets;
      out.items_in_small_sets += s.size();
    }
  }
  out.identified_sets = std::move(sets);
  return out;
}

}  // namespace anonsafe
