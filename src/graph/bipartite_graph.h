#ifndef ANONSAFE_GRAPH_BIPARTITE_GRAPH_H_
#define ANONSAFE_GRAPH_BIPARTITE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "data/types.h"
#include "util/result.h"

namespace anonsafe {

/// \brief The explicit consistency graph G = (J ∪ I, E) of Section 2.3.
///
/// Left vertices are anonymized items, right vertices are original items;
/// the edge (a, x) means "the hacker may map anonymized item a to item x",
/// i.e. the observed frequency of a lies inside β(x). Throughout the
/// library the *identity surrogate* convention is used: anonymized item a
/// truly corresponds to original item a, so a crack of a matching M is a
/// fixed point M(a) = a. Every risk metric is invariant under the real
/// permutation (see `Anonymizer`), which makes this WLOG.
///
/// Memory layout: both adjacency sides are stored in *CSR form* — one
/// offsets array plus one flat, per-row-sorted `ItemId` array — so a
/// traversal is a linear scan over contiguous memory rather than a
/// pointer chase through `vector<vector>`. For n <= 64 the adjacency is
/// additionally mirrored as per-row bitmasks at build time, giving the
/// exact methods (permanent, edge tests) an O(1) fast path.
///
/// The explicit representation materializes all edges and is meant for
/// small-to-medium n (exact methods, tests, sampling on explicit graphs).
/// The compressed `ConsistencyStructure` is the large-n path.
class BipartiteGraph {
 public:
  /// \brief Non-owning view over one adjacency row of the flat CSR
  /// arrays; iterable and indexable like a `const vector<ItemId>&`.
  class AdjacencyRow {
   public:
    const ItemId* begin() const { return begin_; }
    const ItemId* end() const { return end_; }
    const ItemId* data() const { return begin_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    ItemId operator[](size_t i) const { return begin_[i]; }
    ItemId front() const { return *begin_; }
    ItemId back() const { return *(end_ - 1); }

   private:
    friend class BipartiteGraph;
    AdjacencyRow(const ItemId* b, const ItemId* e) : begin_(b), end_(e) {}
    const ItemId* begin_;
    const ItemId* end_;
  };

  /// \brief Default edge budget for `Build` (64M edges ≈ 256 MB).
  static constexpr size_t kDefaultMaxEdges = 64u * 1024 * 1024;

  /// \brief Builds the graph from observed frequency groups and a belief
  /// function. Fails with InvalidArgument on domain mismatch and with
  /// OutOfRange when the edge count would exceed `max_edges`.
  static Result<BipartiteGraph> Build(const FrequencyGroups& observed,
                                      const BeliefFunction& belief,
                                      size_t max_edges = kDefaultMaxEdges);

  /// \brief Builds from explicit adjacency: `items_of_anon[a]` lists the
  /// original items that anonymized item `a` may map to. Lists are sorted
  /// and deduplicated; out-of-domain entries fail.
  static Result<BipartiteGraph> FromAdjacency(
      size_t num_items, std::vector<std::vector<ItemId>> items_of_anon);

  /// \brief The subgraph on the same vertices that keeps each edge
  /// (a, x) for which `keep(a, x)` holds, filtered straight into CSR
  /// (rows keep their order, so they stay sorted). `keep` is called
  /// twice per edge and must answer the same both times. When it keeps
  /// every edge the result is a copy of this graph.
  template <typename Keep>
  BipartiteGraph Subgraph(const Keep& keep) const {
    BipartiteGraph g;
    g.num_items_ = num_items_;
    g.anon_offsets_.assign(num_items_ + 1, 0);
    for (ItemId a = 0; a < num_items_; ++a) {
      size_t kept = 0;
      for (ItemId x : items_of_anon(a)) kept += keep(a, x) ? 1 : 0;
      g.anon_offsets_[a + 1] = g.anon_offsets_[a] + kept;
    }
    g.num_edges_ = g.anon_offsets_[num_items_];
    if (g.num_edges_ == num_edges_) return *this;
    g.items_flat_.reserve(g.num_edges_);
    for (ItemId a = 0; a < num_items_; ++a) {
      for (ItemId x : items_of_anon(a)) {
        if (keep(a, x)) g.items_flat_.push_back(x);
      }
    }
    g.BuildItemSideAndMasks();
    return g;
  }

  size_t num_items() const { return num_items_; }
  size_t num_edges() const { return num_edges_; }

  /// \brief Original items adjacent to anonymized item `a`, sorted.
  AdjacencyRow items_of_anon(ItemId a) const {
    return {items_flat_.data() + anon_offsets_[a],
            items_flat_.data() + anon_offsets_[a + 1]};
  }

  /// \brief Anonymized items adjacent to original item `x`, sorted.
  /// The size of this list is the paper's outdegree O_x.
  AdjacencyRow anons_of_item(ItemId x) const {
    return {anons_flat_.data() + item_offsets_[x],
            anons_flat_.data() + item_offsets_[x + 1]};
  }

  size_t item_outdegree(ItemId x) const {
    return item_offsets_[x + 1] - item_offsets_[x];
  }
  size_t anon_degree(ItemId a) const {
    return anon_offsets_[a + 1] - anon_offsets_[a];
  }

  bool HasEdge(ItemId a, ItemId x) const;

  /// \brief True when the n <= 64 bitmask mirror is available.
  bool has_row_masks() const { return !row_masks_.empty() || num_items_ == 0; }

  /// \brief Adjacency as row bitmasks: bit x of row a is set iff edge
  /// (a, x) exists. Only valid for n <= 64 (the exact-method regime);
  /// fails with OutOfRange otherwise. O(1): masks are built once at
  /// construction.
  Result<std::vector<uint64_t>> ToRowMasks() const;

 private:
  BipartiteGraph() = default;

  /// Builds the item-side CSR (offsets + flat array, rows sorted) from a
  /// finished anon side, plus the n <= 64 bitmask mirror.
  void BuildItemSideAndMasks();

  size_t num_items_ = 0;
  size_t num_edges_ = 0;

  // CSR adjacency, anon side: row a = items_flat_[anon_offsets_[a] ..
  // anon_offsets_[a+1]), ascending.
  std::vector<size_t> anon_offsets_;
  std::vector<ItemId> items_flat_;

  // CSR adjacency, item side: row x = anons_flat_[item_offsets_[x] ..
  // item_offsets_[x+1]), ascending.
  std::vector<size_t> item_offsets_;
  std::vector<ItemId> anons_flat_;

  // Bitmask mirror, filled iff num_items_ <= 64.
  std::vector<uint64_t> row_masks_;
};

}  // namespace anonsafe

#endif  // ANONSAFE_GRAPH_BIPARTITE_GRAPH_H_
