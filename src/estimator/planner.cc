#include "estimator/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "estimator/closed_forms.h"
#include "exec/exec.h"
#include "graph/hopcroft_karp.h"
#include "graph/matching_walk.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

constexpr size_t kNoBlock = static_cast<size_t>(-1);
constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

constexpr char kNoPerfectMatching[] =
    "graph has no perfect matching; the matching cover is empty";

using ClassPair = std::pair<uint32_t, uint32_t>;

/// Counter names carry the method as an embedded Prometheus label, since
/// the registry keys plain strings (see docs/ESTIMATORS.md for the
/// exporter caveat this implies).
const char* CounterNameForMethod(BlockMethod method) {
  switch (method) {
    case BlockMethod::kSingleton:
      return "anonsafe_planner_blocks_total{method=\"singleton\"}";
    case BlockMethod::kCompleteBipartite:
      return "anonsafe_planner_blocks_total{method=\"complete_bipartite\"}";
    case BlockMethod::kChain:
      return "anonsafe_planner_blocks_total{method=\"chain\"}";
    case BlockMethod::kPermanent:
      return "anonsafe_planner_blocks_total{method=\"permanent\"}";
    case BlockMethod::kOEstimate:
      return "anonsafe_planner_blocks_total{method=\"oestimate\"}";
    case BlockMethod::kSampler:
      return "anonsafe_planner_blocks_total{method=\"sampler\"}";
  }
  return "anonsafe_planner_blocks_total{method=\"unknown\"}";
}

/// Index of `id` in the ascending vector `ids`, or kNoBlock.
size_t LocalIndex(const std::vector<ItemId>& ids, ItemId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return kNoBlock;
  return static_cast<size_t>(it - ids.begin());
}

/// The consistency graph on its group quotient (§5 of the paper). An
/// item's candidates are a contiguous range of the sorted frequency
/// groups, so the items with one stab range (a belief group, Fig. 3(b))
/// have the same neighbours, and so do the anonymized items of one
/// frequency group. The quotient pairs each belief group with every
/// frequency group of its range; a pair stands for all the edges between
/// their members.
struct GroupQuotient {
  std::vector<uint32_t> lo, hi;  ///< per belief group: its range of groups
  std::vector<size_t> first;     ///< belief group bg's items are
  std::vector<ItemId> members;   ///< members[first[bg] .. first[bg + 1])
  std::vector<uint32_t> belief_of_item;
  /// Pair (bg, fg) is number pair_base[bg] + fg - lo[bg].
  std::vector<size_t> pair_base;
  /// The belief groups whose range holds group fg, ascending:
  /// cover[cover_first[fg] .. cover_first[fg + 1]).
  std::vector<size_t> cover_first;
  std::vector<uint32_t> cover;
  std::vector<uint32_t> flow;  ///< per pair: edges one perfect matching uses
  std::vector<uint8_t> kept;   ///< per pair: in the matching cover

  size_t num_beliefs() const { return lo.size(); }
  size_t belief_size(size_t bg) const { return first[bg + 1] - first[bg]; }
  size_t pair(size_t bg, size_t fg) const {
    return pair_base[bg] + fg - lo[bg];
  }
};

/// Stabs each item once and groups the items by stab range into belief
/// groups, ordered by range, members ascending. An item whose interval
/// stabs no group has no candidate, so no perfect matching exists.
Result<GroupQuotient> BuildGroupQuotient(const FrequencyGroups& observed,
                                         const BeliefFunction& belief) {
  const size_t n = observed.num_items();
  const size_t g = observed.num_groups();
  std::vector<uint32_t> item_lo(n), item_hi(n);
  for (ItemId x = 0; x < n; ++x) {
    const BeliefInterval& iv = belief.interval(x);
    size_t lo = 0, hi = 0;
    if (!observed.StabRange(iv.lo, iv.hi, &lo, &hi)) {
      return Status::FailedPrecondition(kNoPerfectMatching);
    }
    item_lo[x] = static_cast<uint32_t>(lo);
    item_hi[x] = static_cast<uint32_t>(hi);
  }

  // Two stable counting passes, by range end and then by range start,
  // order the items by (lo, hi, id).
  std::vector<size_t> count(g + 1);
  auto stable_by = [&](const std::vector<uint32_t>& key,
                       const std::vector<ItemId>& in,
                       std::vector<ItemId>* out) {
    std::fill(count.begin(), count.end(), 0);
    for (ItemId x : in) ++count[key[x] + 1];
    std::partial_sum(count.begin(), count.end(), count.begin());
    for (ItemId x : in) (*out)[count[key[x]]++] = x;
  };
  std::vector<ItemId> ids(n), by_hi(n);
  std::iota(ids.begin(), ids.end(), ItemId{0});
  stable_by(item_hi, ids, &by_hi);
  stable_by(item_lo, by_hi, &ids);

  GroupQuotient q;
  q.lo.reserve(n);
  q.hi.reserve(n);
  q.first.reserve(n + 1);
  q.belief_of_item.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ItemId x = ids[i];
    if (i == 0 || item_lo[x] != q.lo.back() || item_hi[x] != q.hi.back()) {
      q.lo.push_back(item_lo[x]);
      q.hi.push_back(item_hi[x]);
      q.first.push_back(i);
    }
    q.belief_of_item[x] = static_cast<uint32_t>(q.lo.size() - 1);
  }
  q.first.push_back(n);
  q.members = std::move(ids);

  const size_t nb = q.num_beliefs();
  q.pair_base.assign(nb + 1, 0);
  q.cover_first.assign(g + 1, 0);
  for (size_t bg = 0; bg < nb; ++bg) {
    q.pair_base[bg + 1] = q.pair_base[bg] + (q.hi[bg] - q.lo[bg] + 1);
    for (size_t fg = q.lo[bg]; fg <= q.hi[bg]; ++fg) ++q.cover_first[fg + 1];
  }
  std::partial_sum(q.cover_first.begin(), q.cover_first.end(),
                   q.cover_first.begin());
  const size_t num_pairs = q.pair_base[nb];
  q.cover.resize(num_pairs);
  std::copy(q.cover_first.begin(), q.cover_first.end(), count.begin());
  for (size_t bg = 0; bg < nb; ++bg) {
    for (size_t fg = q.lo[bg]; fg <= q.hi[bg]; ++fg) {
      q.cover[count[fg]++] = static_cast<uint32_t>(bg);
    }
  }
  q.flow.assign(num_pairs, 0);
  q.kept.assign(num_pairs, 0);
  return q;
}

/// A maximum b-matching of the quotient, greedily by range end (Glover's
/// rule for convex bipartite graphs, one unit per anonymized item): the
/// frequency groups in ascending order hand their units to the open
/// belief groups with the smallest range end. When a side stays
/// unsaturated the consistency graph has no perfect matching.
Status MatchGroups(const FrequencyGroups& observed, GroupQuotient* q) {
  const size_t nb = q->num_beliefs();
  std::vector<size_t> need(nb);
  for (size_t bg = 0; bg < nb; ++bg) need[bg] = q->belief_size(bg);
  // A min-heap of the open belief groups by (range end, index).
  std::vector<ClassPair> open;
  const std::greater<ClassPair> later;
  size_t next = 0;
  for (size_t fg = 0; fg < observed.num_groups(); ++fg) {
    for (; next < nb && q->lo[next] == fg; ++next) {
      open.emplace_back(q->hi[next], static_cast<uint32_t>(next));
      std::push_heap(open.begin(), open.end(), later);
    }
    for (size_t units = observed.group_size(fg); units > 0;) {
      if (open.empty() || open.front().first < fg) {
        return Status::FailedPrecondition(kNoPerfectMatching);
      }
      const uint32_t bg = open.front().second;
      const size_t give = std::min(units, need[bg]);
      q->flow[q->pair(bg, fg)] = static_cast<uint32_t>(give);
      need[bg] -= give;
      units -= give;
      if (need[bg] == 0) {
        std::pop_heap(open.begin(), open.end(), later);
        open.pop_back();
      }
    }
  }
  if (!open.empty()) return Status::FailedPrecondition(kNoPerfectMatching);
  return Status::OK();
}

/// Marks the pairs of the matching cover. The quotient is oriented as
/// `ComputeMatchingCover` orients the explicit graph: belief group bg →
/// group fg where the pair carries flow (an item to its matched
/// anonymized item), fg → bg where it keeps an unmatched edge. Two twins
/// lie on a common alternating cycle, so the members of a node lie in one
/// strongly connected component of the explicit digraph, and its
/// components are the members of this one's. A pair is kept when it
/// carries flow or joins one component. Nodes 0..nb-1 are the belief
/// groups and nb + fg the frequency groups; the Tarjan is the explicit
/// cover's, with a cursor per frame.
void KeepCoverPairs(const FrequencyGroups& observed, GroupQuotient* q) {
  const size_t nb = q->num_beliefs();
  const size_t num_nodes = nb + observed.num_groups();
  std::vector<uint32_t> index(num_nodes, kNoNode);
  std::vector<uint32_t> lowlink(num_nodes, 0);
  // A visited node sits on the SCC stack until its SCC closes, so "on
  // the stack" is "visited, component not yet set".
  std::vector<uint32_t> component(num_nodes, kNoNode);
  std::vector<uint32_t> scc_stack;
  scc_stack.reserve(num_nodes);
  struct Frame {
    uint32_t v;
    size_t cursor;  ///< pairs or cover entries taken
  };
  std::vector<Frame> dfs;
  dfs.reserve(num_nodes);
  uint32_t next_index = 0;
  uint32_t num_components = 0;

  // The frame's next successor, or kNoNode when it has none left.
  auto next_successor = [&](Frame& f) -> uint32_t {
    if (f.v < nb) {
      const size_t bg = f.v;
      while (q->lo[bg] + f.cursor <= q->hi[bg]) {
        const size_t fg = q->lo[bg] + f.cursor++;
        if (q->flow[q->pair(bg, fg)] > 0) {
          return static_cast<uint32_t>(nb + fg);
        }
      }
      return kNoNode;
    }
    const size_t fg = f.v - nb;
    const size_t size = observed.group_size(fg);
    while (q->cover_first[fg] + f.cursor < q->cover_first[fg + 1]) {
      const uint32_t bg = q->cover[q->cover_first[fg] + f.cursor++];
      if (q->flow[q->pair(bg, fg)] < q->belief_size(bg) * size) return bg;
    }
    return kNoNode;
  };
  auto push = [&](uint32_t v) {
    index[v] = lowlink[v] = next_index++;
    scc_stack.push_back(v);
    dfs.push_back({v, 0});
  };

  for (uint32_t root = 0; root < num_nodes; ++root) {
    if (index[root] != kNoNode) continue;
    push(root);
    while (!dfs.empty()) {
      const uint32_t v = dfs.back().v;
      const uint32_t w = next_successor(dfs.back());
      if (w != kNoNode) {
        if (index[w] == kNoNode) {
          push(w);
        } else if (component[w] == kNoNode) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        uint32_t u;
        do {
          u = scc_stack.back();
          scc_stack.pop_back();
          component[u] = num_components;
        } while (u != v);
        ++num_components;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const uint32_t parent = dfs.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }

  for (size_t bg = 0; bg < nb; ++bg) {
    for (size_t fg = q->lo[bg]; fg <= q->hi[bg]; ++fg) {
      const size_t p = q->pair(bg, fg);
      q->kept[p] = q->flow[p] > 0 || component[bg] == component[nb + fg];
    }
  }
}

/// One block as the quotient holds it: its belief groups and frequency
/// groups, each ascending, and its kept pairs (group, belief group),
/// ascending.
struct QuotientBlock {
  size_t index = 0;
  std::span<const uint32_t> beliefs;
  std::span<const uint32_t> groups;
  std::span<const ClassPair> pairs;
};

/// What the classification reads off a block's kept pairs, by global
/// node: each frequency group's block and rank among its block's groups,
/// and each belief group's degree O_x and the ranks of its first and last
/// kept group. Filled one block at a time.
struct BlockShape {
  std::vector<size_t> block_of_group;
  std::vector<uint32_t> rank;
  std::vector<size_t> degree;
  std::vector<uint32_t> lo, hi;
};

/// Chain detection and closed-form evaluation (Lemmas 5–6, generalized
/// to any block whose items are each consistent with exactly one whole
/// frequency group or two whole consecutive groups). Kept pairs join
/// whole groups, so a belief group's first and last kept rank classify
/// all its items. On success fills method/cost/contrib and returns true;
/// any structural mismatch returns false and leaves the block for the
/// heavier methods.
bool TryChainBlock(const FrequencyGroups& observed, const GroupQuotient& q,
                   const QuotientBlock& qb, const BlockShape& shape,
                   PlannedBlock* block) {
  const std::vector<ItemId>& items = block->items;
  const size_t k = items.size();
  // The block's frequency groups, ascending (group ids ascend with
  // group frequency, so consecutive ranks are chain neighbours).
  const size_t g = qb.groups.size();
  if (g < 2) return false;  // one group and not complete: no chain shape
  std::vector<size_t> group_count(g);  // n_j: block anons per group
  for (size_t j = 0; j < g; ++j) {
    group_count[j] = observed.group_size(qb.groups[j]);
  }

  // Classify every belief group: exclusive to one group, or shared
  // between two consecutive groups.
  std::vector<size_t> exclusive(g, 0);   // e_j
  std::vector<size_t> shared(g - 1, 0);  // s_j: items on seam (j, j+1)
  for (uint32_t bg : qb.beliefs) {
    const size_t lo = shape.lo[bg], hi = shape.hi[bg];
    if (lo == hi) {
      exclusive[lo] += q.belief_size(bg);
    } else if (hi == lo + 1) {
      shared[lo] += q.belief_size(bg);
    } else {
      return false;
    }
  }

  // The forced flow of Lemma 5: L_j seam-j items must match left into
  // group j, the rest match right. Infeasible counts mean the block is
  // not actually chain-shaped (cannot happen after pruning, but guard).
  std::vector<size_t> left(g - 1, 0), right(g - 1, 0);
  size_t carry = 0;  // R_{j-1}: seam items arriving from the left
  for (size_t j = 0; j + 1 < g; ++j) {
    const size_t taken = exclusive[j] + carry;
    if (taken > group_count[j]) return false;
    const size_t l = group_count[j] - taken;
    if (l > shared[j]) return false;
    left[j] = l;
    right[j] = shared[j] - l;
    carry = right[j];
  }
  if (exclusive[g - 1] + carry != group_count[g - 1]) return false;

  // Per-item crack probabilities. Each is one correctly-rounded division
  // of exact integers, which is the same rational — hence the same
  // double — as the direct method's perm(minor)/perm(block) leaf.
  block->contrib.assign(k, 0.0);
  for (size_t lx = 0; lx < k; ++lx) {
    const ItemId x = items[lx];
    const size_t own = observed.group_of_item(x);
    if (shape.block_of_group[own] != qb.index) continue;  // no identity anon
    const size_t ag = shape.rank[own];
    const uint32_t bg = q.belief_of_item[x];
    const size_t lo = shape.lo[bg];
    if (shape.hi[bg] == lo) {
      if (ag == lo) {
        block->contrib[lx] = 1.0 / static_cast<double>(group_count[ag]);
      }
    } else if (ag == lo) {
      block->contrib[lx] = static_cast<double>(left[lo]) /
                           static_cast<double>(shared[lo] * group_count[ag]);
    } else if (ag == lo + 1) {
      block->contrib[lx] = static_cast<double>(right[lo]) /
                           static_cast<double>(shared[lo] * group_count[ag]);
    }
  }
  block->method = BlockMethod::kChain;
  block->exact = true;
  block->cost = static_cast<double>(k);
  return true;
}

/// OutOfRange when a block graph of `edges` edges would exceed the
/// `max_edges` budget.
Status CheckBlockEdges(size_t edges, size_t max_edges) {
  if (edges <= max_edges) return Status::OK();
  return Status::OutOfRange("block graph would have " +
                            std::to_string(edges) + " edges, budget is " +
                            std::to_string(max_edges));
}

/// Cost-model estimate for the per-block sampler: total sweeps × block
/// size moves per sweep.
double SamplerCost(const SamplerOptions& so, size_t k) {
  const double sweeps =
      static_cast<double>(so.EffectiveBurnIn(k)) +
      static_cast<double>(so.num_samples) *
          static_cast<double>(so.thinning_sweeps);
  return sweeps * static_cast<double>(k);
}

/// Chooses the method for one block (singleton → complete-bipartite →
/// chain → Ryser → O-estimate/sampler, cheapest exact method first). The
/// edge count, the complete and chain tests and the O-estimate's refined
/// outdegrees all come from the kept pairs.
Status ClassifyBlock(const FrequencyGroups& observed, const GroupQuotient& q,
                     const QuotientBlock& qb, const PlannerOptions& options,
                     BlockShape* shape, PlannedBlock* block) {
  for (size_t j = 0; j < qb.groups.size(); ++j) {
    shape->rank[qb.groups[j]] = static_cast<uint32_t>(j);
  }
  for (uint32_t bg : qb.beliefs) {
    shape->degree[bg] = 0;
    shape->lo[bg] = kNoNode;
    shape->hi[bg] = 0;
  }
  size_t edges = 0;
  for (const auto& [fg, bg] : qb.pairs) {
    const size_t size = observed.group_size(fg);
    shape->degree[bg] += size;
    shape->lo[bg] = std::min(shape->lo[bg], shape->rank[fg]);
    shape->hi[bg] = std::max(shape->hi[bg], shape->rank[fg]);
    edges += q.belief_size(bg) * size;
  }
  const size_t k = block->items.size();
  block->num_edges = edges;

  if (k == 1) {
    block->method = BlockMethod::kSingleton;
    block->exact = true;
    block->cost = 1.0;
    block->contrib.assign(
        1, block->anons[0] == block->items[0] ? 1.0 : 0.0);
    return Status::OK();
  }
  if (edges == k * k) {
    // Complete bipartite: the Lemma 1/3 closed form, per item.
    block->method = BlockMethod::kCompleteBipartite;
    block->exact = true;
    block->cost = static_cast<double>(k);
    block->contrib.assign(k, 0.0);
    for (size_t lx = 0; lx < k; ++lx) {
      const size_t own = observed.group_of_item(block->items[lx]);
      if (shape->block_of_group[own] == qb.index) {
        block->contrib[lx] = CompleteBipartiteExpectedCracks(1, k);
      }
    }
    return Status::OK();
  }
  if (TryChainBlock(observed, q, qb, *shape, block)) return Status::OK();
  if (k <= options.ryser_cutoff) {
    block->method = BlockMethod::kPermanent;
    block->exact = true;
    // One Ryser per diagonal item plus the block total: ~2^k · k each.
    block->cost = std::ldexp(static_cast<double>(k) *
                                 static_cast<double>(k + 1),
                             static_cast<int>(k));
    return Status::OK();
  }
  if (options.require_exact) {
    return Status::OutOfRange(
        "estimator=exact: block of size " + std::to_string(k) +
        " exceeds the Ryser cutoff (" + std::to_string(options.ryser_cutoff) +
        ")");
  }
  if (options.prefer_sampler) {
    // A sampler block walks a graph of its own, so it alone is held to
    // the edge budget, here rather than after other blocks ran.
    ANONSAFE_RETURN_IF_ERROR(CheckBlockEdges(edges, options.max_edges));
    block->method = BlockMethod::kSampler;
    block->cost = SamplerCost(options.block_sampler, k);
  } else {
    // Refined O-estimate: 1/degree on the pruned block (degree-1
    // propagation is subsumed — a post-prune degree-1 vertex is a
    // singleton block).
    block->method = BlockMethod::kOEstimate;
    block->cost = static_cast<double>(edges);
    block->contrib.resize(k);
    for (size_t lx = 0; lx < k; ++lx) {
      block->contrib[lx] =
          1.0 / static_cast<double>(
                    shape->degree[q.belief_of_item[block->items[lx]]]);
    }
  }
  block->exact = false;
  return Status::OK();
}

/// Block b's kept class pairs, ascending.
std::span<const ClassPair> BlockPairs(const BlockPlan& plan, size_t b) {
  return std::span<const ClassPair>(plan.pairs)
      .subspan(plan.pair_offsets[b],
               plan.pair_offsets[b + 1] - plan.pair_offsets[b]);
}

/// The kept pairs of anon class `ac` among a block's pairs.
std::span<const ClassPair> PairsOfAnonClass(std::span<const ClassPair> pairs,
                                            uint32_t ac) {
  auto first = std::lower_bound(pairs.begin(), pairs.end(), ClassPair{ac, 0});
  auto last = std::lower_bound(first, pairs.end(), ClassPair{ac + 1, 0});
  return {first, last};
}

/// Block b's local items by item class, as (class, local item) ascending.
std::vector<std::pair<uint32_t, ItemId>> LocalItemsByClass(
    const BlockPlan& plan, const PlannedBlock& block) {
  std::vector<std::pair<uint32_t, ItemId>> out;
  out.reserve(block.items.size());
  for (size_t lx = 0; lx < block.items.size(); ++lx) {
    out.emplace_back(plan.item_class[block.items[lx]],
                     static_cast<ItemId>(lx));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Row bitmasks of block b in local indices (k <= kMaxPermanentN <= 64):
/// row la holds the items of every item class its anon class keeps.
std::vector<uint64_t> BlockRowMasks(const BlockPlan& plan, size_t b) {
  const PlannedBlock& block = plan.blocks[b];
  const std::vector<std::pair<uint32_t, ItemId>> by_class =
      LocalItemsByClass(plan, block);
  const std::span<const ClassPair> pairs = BlockPairs(plan, b);
  std::vector<uint64_t> rows(block.anons.size(), 0);
  for (size_t la = 0; la < rows.size(); ++la) {
    for (const auto& [ac, ic] :
         PairsOfAnonClass(pairs, plan.anon_class[block.anons[la]])) {
      for (auto it = std::lower_bound(by_class.begin(), by_class.end(),
                                      std::pair<uint32_t, ItemId>{ic, 0});
           it != by_class.end() && it->first == ic; ++it) {
        rows[la] |= uint64_t{1} << it->second;
      }
    }
  }
  return rows;
}

/// Exact masked Ryser on one block: per diagonal item, the ratio of the
/// block minor's permanent to the block permanent — the same integers
/// the whole-graph direct method divides, just with the other blocks'
/// common factor cancelled. The block matrix and all its diagonal minors
/// evaluate as one PermanentBatch call (index 0 = the block, then one
/// minor per present diagonal item), sharing a single kernel resolution
/// and scratch plan across the batch.
Status EvalPermanentBlock(const BlockPlan& plan, size_t b,
                          std::vector<double>* contrib) {
  const PlannedBlock& block = plan.blocks[b];
  const size_t k = block.items.size();
  std::vector<std::vector<uint64_t>> matrices;
  matrices.reserve(k + 1);
  matrices.push_back(BlockRowMasks(plan, b));
  const std::vector<uint64_t>& rows = matrices.front();
  std::vector<size_t> minor_item;  // global item id per minor, batch order
  minor_item.reserve(k);
  for (size_t lx = 0; lx < k; ++lx) {
    const size_t la = LocalIndex(block.anons, block.items[lx]);
    if (la == kNoBlock) continue;  // identity anon lives elsewhere
    if (!(rows[la] & (uint64_t{1} << lx))) continue;  // diagonal absent
    std::vector<uint64_t> minor;
    minor.reserve(k - 1);
    const uint64_t low_mask = (uint64_t{1} << lx) - 1;
    for (size_t i = 0; i < k; ++i) {
      if (i == la) continue;
      const uint64_t row = rows[i];
      minor.push_back((row & low_mask) | ((row >> (lx + 1)) << lx));
    }
    matrices.push_back(std::move(minor));
    minor_item.push_back(block.items[lx]);
  }
  ANONSAFE_ASSIGN_OR_RETURN(std::vector<double> perms,
                            PermanentBatch(matrices));
  const double total = perms.front();
  if (total <= 0.0) {
    return Status::FailedPrecondition(
        "planner block has no perfect matching after pruning");
  }
  for (size_t idx = 0; idx < minor_item.size(); ++idx) {
    (*contrib)[minor_item[idx]] = perms[idx + 1] / total;
  }
  return Status::OK();
}

/// A block's local crack map: entry la is the local item that carries
/// local anon la's global id, so anon la cracks when matched to it
/// (kInvalidItem when that item lies in another block).
std::vector<ItemId> LocalCrackItems(const PlannedBlock& block) {
  std::vector<ItemId> crack_item_of_anon(block.anons.size(), kInvalidItem);
  for (size_t lx = 0; lx < block.items.size(); ++lx) {
    const size_t la = LocalIndex(block.anons, block.items[lx]);
    if (la != kNoBlock) crack_item_of_anon[la] = static_cast<ItemId>(lx);
  }
  return crack_item_of_anon;
}

/// Per-block MCMC fallback: the matching walk over the block graph's
/// perfect matchings, from a Hopcroft–Karp seed. Its chains split off
/// SplitSeed(seed, block index), so the estimate is deterministic and
/// independent of evaluation order. The chains run on the caller: blocks
/// already run in parallel.
Status EvalSamplerBlock(const BlockPlan& plan, size_t b,
                        const PlannerOptions& options,
                        std::vector<double>* contrib) {
  const PlannedBlock& block = plan.blocks[b];
  const SamplerOptions& so = options.block_sampler;
  const size_t k = block.items.size();
  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph local,
                            BlockGraph(plan, b, options.max_edges));
  Matching matching = HopcroftKarp(local);
  if (!matching.IsPerfect()) {
    return Status::FailedPrecondition(
        "planner block has no perfect matching after pruning");
  }

  const std::vector<ItemId> crack_item_of_anon = LocalCrackItems(block);
  std::vector<uint64_t> crack_counts(k, 0);
  SampleMatchingChains(
      GraphEdges{&local}, matching.item_of_anon, so,
      exec::SplitSeed(so.exec.seed, b), /*ctx=*/nullptr,
      [&](const std::vector<ItemId>& item_of_anon, size_t /*slot*/) {
        for (size_t la = 0; la < k; ++la) {
          if (item_of_anon[la] == crack_item_of_anon[la]) {
            ++crack_counts[item_of_anon[la]];
          }
        }
      });
  for (size_t lx = 0; lx < k; ++lx) {
    (*contrib)[block.items[lx]] =
        static_cast<double>(crack_counts[lx]) /
        static_cast<double>(so.num_samples);
  }
  return Status::OK();
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a != 0 && b > std::numeric_limits<uint64_t>::max() / a) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

}  // namespace

Result<BipartiteGraph> BlockGraph(const BlockPlan& plan, size_t b,
                                  size_t max_edges) {
  const PlannedBlock& block = plan.blocks[b];
  ANONSAFE_RETURN_IF_ERROR(CheckBlockEdges(block.num_edges, max_edges));
  const std::vector<std::pair<uint32_t, ItemId>> by_class =
      LocalItemsByClass(plan, block);
  const std::span<const ClassPair> pairs = BlockPairs(plan, b);
  std::vector<std::vector<ItemId>> adjacency(block.anons.size());
  for (size_t la = 0; la < adjacency.size(); ++la) {
    for (const auto& [ac, ic] :
         PairsOfAnonClass(pairs, plan.anon_class[block.anons[la]])) {
      for (auto it = std::lower_bound(by_class.begin(), by_class.end(),
                                      std::pair<uint32_t, ItemId>{ic, 0});
           it != by_class.end() && it->first == ic; ++it) {
        adjacency[la].push_back(it->second);
      }
    }
  }
  return BipartiteGraph::FromAdjacency(block.items.size(),
                                       std::move(adjacency));
}

Status ValidatePlannerOptions(const PlannerOptions& options) {
  if (options.ryser_cutoff == 0 || options.ryser_cutoff > kMaxPermanentN) {
    return Status::InvalidArgument(
        "planner ryser_cutoff must be in [1, " +
        std::to_string(kMaxPermanentN) + "]");
  }
  if (options.max_edges == 0) {
    return Status::InvalidArgument("planner max_edges must be positive");
  }
  if (options.block_sampler.num_samples == 0) {
    return Status::InvalidArgument(
        "planner block_sampler.num_samples must be positive");
  }
  return ValidateSamplerOptions(options.block_sampler);
}

Result<BlockPlan> PlanBlocks(const FrequencyGroups& observed,
                             const BeliefFunction& belief,
                             const PlannerOptions& options) {
  if (observed.num_items() != belief.num_items()) {
    return Status::InvalidArgument(
        "observed data covers " + std::to_string(observed.num_items()) +
        " items, belief function " + std::to_string(belief.num_items()));
  }
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options));
  obs::ScopedTimer timer("estimator.plan");
  ANONSAFE_ASSIGN_OR_RETURN(GroupQuotient q,
                            BuildGroupQuotient(observed, belief));
  ANONSAFE_RETURN_IF_ERROR(MatchGroups(observed, &q));
  KeepCoverPairs(observed, &q);

  const size_t n = observed.num_items();
  const size_t g = observed.num_groups();
  const size_t nb = q.num_beliefs();
  const size_t num_nodes = nb + g;

  // Blocks are the *connected components* of the kept pairs — not the
  // cover's SCCs, which split a forced pair into two singleton SCCs
  // joined only by its matched edge. Connectivity is the relation over
  // which the permanent factorizes.
  std::vector<uint32_t> parent(num_nodes);
  std::iota(parent.begin(), parent.end(), uint32_t{0});
  auto find = [&](uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  size_t total_edges = 0, kept_edges = 0;
  for (size_t bg = 0; bg < nb; ++bg) {
    total_edges +=
        q.belief_size(bg) * observed.RangeItemCount(q.lo[bg], q.hi[bg]);
    for (size_t fg = q.lo[bg]; fg <= q.hi[bg]; ++fg) {
      if (!q.kept[q.pair(bg, fg)]) continue;
      kept_edges += q.belief_size(bg) * observed.group_size(fg);
      const uint32_t r = find(static_cast<uint32_t>(bg));
      parent[r] = find(static_cast<uint32_t>(nb + fg));
    }
  }
  BlockPlan plan;
  plan.pruned_edges = total_edges - kept_edges;
  obs::CountIf("anonsafe_pruned_edges_total", plan.pruned_edges);

  // Blocks in order of their smallest item; every block holds a belief
  // group, since every frequency group carries flow.
  std::vector<std::pair<ItemId, uint32_t>> roots;
  {
    std::vector<ItemId> smallest(num_nodes, kInvalidItem);
    for (size_t bg = 0; bg < nb; ++bg) {
      ItemId& s = smallest[find(static_cast<uint32_t>(bg))];
      s = std::min(s, q.members[q.first[bg]]);
    }
    for (uint32_t v = 0; v < num_nodes; ++v) {
      if (parent[v] == v) roots.emplace_back(smallest[v], v);
    }
  }
  std::sort(roots.begin(), roots.end());
  const size_t num_blocks = roots.size();
  std::vector<uint32_t> block_of_root(num_nodes);
  for (size_t b = 0; b < num_blocks; ++b) {
    block_of_root[roots[b].second] = static_cast<uint32_t>(b);
  }
  std::vector<uint32_t> node_block(num_nodes);
  for (uint32_t v = 0; v < num_nodes; ++v) {
    node_block[v] = block_of_root[find(v)];
  }

  // The belief groups, groups and kept pairs of each block, by counting
  // sort on the block.
  std::vector<size_t> belief_first(num_blocks + 1, 0);
  std::vector<size_t> group_first(num_blocks + 1, 0);
  plan.pair_offsets.assign(num_blocks + 1, 0);
  for (size_t bg = 0; bg < nb; ++bg) ++belief_first[node_block[bg] + 1];
  for (size_t fg = 0; fg < g; ++fg) {
    const size_t b = node_block[nb + fg];
    ++group_first[b + 1];
    for (size_t c = q.cover_first[fg]; c < q.cover_first[fg + 1]; ++c) {
      plan.pair_offsets[b + 1] += q.kept[q.pair(q.cover[c], fg)];
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    belief_first[b + 1] += belief_first[b];
    group_first[b + 1] += group_first[b];
    plan.pair_offsets[b + 1] += plan.pair_offsets[b];
  }
  // Filled from the back, so each block's entries stay ascending and its
  // offsets end where they started.
  std::vector<uint32_t> beliefs(nb), groups(g);
  plan.pairs.resize(plan.pair_offsets[num_blocks]);
  std::copy(belief_first.begin() + 1, belief_first.end(),
            belief_first.begin());
  std::copy(group_first.begin() + 1, group_first.end(), group_first.begin());
  std::copy(plan.pair_offsets.begin() + 1, plan.pair_offsets.end(),
            plan.pair_offsets.begin());
  for (uint32_t bg = static_cast<uint32_t>(nb); bg-- > 0;) {
    beliefs[--belief_first[node_block[bg]]] = bg;
  }
  for (uint32_t fg = static_cast<uint32_t>(g); fg-- > 0;) {
    const size_t b = node_block[nb + fg];
    groups[--group_first[b]] = fg;
    for (size_t c = q.cover_first[fg + 1]; c-- > q.cover_first[fg];) {
      if (q.kept[q.pair(q.cover[c], fg)]) {
        plan.pairs[--plan.pair_offsets[b]] = {fg, q.cover[c]};
      }
    }
  }

  BlockShape shape;
  shape.block_of_group.resize(g);
  for (size_t fg = 0; fg < g; ++fg) {
    shape.block_of_group[fg] = node_block[nb + fg];
  }
  shape.rank.resize(g);
  shape.degree.resize(nb);
  shape.lo.resize(nb);
  shape.hi.resize(nb);
  plan.blocks.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    QuotientBlock qb;
    qb.index = b;
    qb.beliefs = std::span<const uint32_t>(beliefs).subspan(
        belief_first[b], belief_first[b + 1] - belief_first[b]);
    qb.groups = std::span<const uint32_t>(groups).subspan(
        group_first[b], group_first[b + 1] - group_first[b]);
    qb.pairs = BlockPairs(plan, b);
    PlannedBlock& block = plan.blocks[b];
    size_t k = 0;
    for (uint32_t bg : qb.beliefs) k += q.belief_size(bg);
    block.items.reserve(k);
    block.anons.reserve(k);
    for (uint32_t bg : qb.beliefs) {
      block.items.insert(block.items.end(), q.members.begin() + q.first[bg],
                         q.members.begin() + q.first[bg + 1]);
    }
    for (uint32_t fg : qb.groups) {
      const std::vector<ItemId>& anons = observed.group_items(fg);
      block.anons.insert(block.anons.end(), anons.begin(), anons.end());
    }
    // One group's members are already ascending.
    if (qb.beliefs.size() > 1) {
      std::sort(block.items.begin(), block.items.end());
    }
    if (qb.groups.size() > 1) {
      std::sort(block.anons.begin(), block.anons.end());
    }
    if (block.anons.size() != block.items.size()) {
      return Status::Internal(
          "planner block with unequal sides — matching cover inconsistent");
    }
    ANONSAFE_RETURN_IF_ERROR(
        ClassifyBlock(observed, q, qb, options, &shape, &block));
  }
  plan.item_class = std::move(q.belief_of_item);
  plan.anon_class.resize(n);
  for (ItemId a = 0; a < n; ++a) {
    plan.anon_class[a] = static_cast<uint32_t>(observed.group_of_item(a));
  }
  obs::CountIf("anonsafe_planner_plans_total", 1);
  if (timer.tracing()) {
    timer.Annotate("blocks", std::to_string(plan.blocks.size()));
    timer.Annotate("pruned_edges", std::to_string(plan.pruned_edges));
  }
  return plan;
}

Result<CrackEstimate> EstimatePlanned(const BlockPlan& plan,
                                      const PlannerOptions& options,
                                      exec::ExecContext* ctx) {
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options));
  ANONSAFE_SCOPED_TIMER("estimator.evaluate");
  const size_t n = plan.item_class.size();
  const size_t num_blocks = plan.blocks.size();

  CrackEstimate out;
  out.num_components = num_blocks;
  out.pruned_edges = plan.pruned_edges;
  out.blocks.resize(num_blocks);
  std::vector<double> contrib(n, 0.0);

  // Blocks evaluate in parallel; each writes a disjoint contribution
  // slice plus its own provenance slot, so the fill is race-free and
  // order-independent.
  ANONSAFE_RETURN_IF_ERROR(exec::ParallelForChunks(
      ctx, num_blocks, /*grain=*/1,
      [&](size_t b, size_t /*end*/) -> Status {
        obs::ScopedTimer block_timer("estimator.block");
        const PlannedBlock& block = plan.blocks[b];
        BlockProvenance& prov = out.blocks[b];
        prov.block = b;
        prov.size = block.items.size();
        prov.num_edges = block.num_edges;
        prov.method = block.method;
        prov.cost = block.cost;
        prov.exact = block.exact;
        switch (block.method) {
          case BlockMethod::kSingleton:
          case BlockMethod::kCompleteBipartite:
          case BlockMethod::kChain:
          case BlockMethod::kOEstimate:
            for (size_t lx = 0; lx < block.items.size(); ++lx) {
              contrib[block.items[lx]] = block.contrib[lx];
            }
            break;
          case BlockMethod::kPermanent:
            ANONSAFE_RETURN_IF_ERROR(EvalPermanentBlock(plan, b, &contrib));
            break;
          case BlockMethod::kSampler:
            ANONSAFE_RETURN_IF_ERROR(
                EvalSamplerBlock(plan, b, options, &contrib));
            break;
        }
        double block_sum = 0.0;
        for (ItemId x : block.items) block_sum += contrib[x];
        prov.expected_cracks = block_sum;
        if (block_timer.tracing()) {
          block_timer.Annotate("method", BlockMethodName(block.method));
          block_timer.Annotate("size", std::to_string(block.items.size()));
        }
        return Status::OK();
      }));
  if (ctx != nullptr && ctx->cancelled()) {
    return Status::Cancelled("planner evaluation cancelled");
  }

  out.exact = true;
  for (const BlockProvenance& prov : out.blocks) {
    out.exact = out.exact && prov.exact;
    obs::CountIf(CounterNameForMethod(prov.method), 1);
  }

  // The pairwise tree the direct method's one-item-grain reduction
  // builds over the same per-item leaves, folded without a fan-out.
  out.expected_cracks = exec::PairwiseSum(contrib);
  return out;
}

Result<CrackEstimate> PlanAndEstimate(const FrequencyGroups& observed,
                                      const BeliefFunction& belief,
                                      const PlannerOptions& options,
                                      exec::ExecContext* ctx) {
  ANONSAFE_ASSIGN_OR_RETURN(BlockPlan plan,
                            PlanBlocks(observed, belief, options));
  return EstimatePlanned(plan, options, ctx);
}

Result<CrackDistribution> PlannedCrackDistribution(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    uint64_t max_matchings, const PlannerOptions& options) {
  if (max_matchings == 0) {
    return Status::InvalidArgument("max_matchings must be positive");
  }
  ANONSAFE_ASSIGN_OR_RETURN(BlockPlan plan,
                            PlanBlocks(observed, belief, options));
  return PlannedCrackDistribution(plan, max_matchings, options);
}

Result<CrackDistribution> PlannedCrackDistribution(
    const BlockPlan& plan, uint64_t max_matchings,
    const PlannerOptions& options) {
  if (max_matchings == 0) {
    return Status::InvalidArgument("max_matchings must be positive");
  }
  CrackDistribution out;
  out.probability = {1.0};
  out.num_matchings = 1;
  for (size_t b = 0; b < plan.blocks.size(); ++b) {
    ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph local,
                              BlockGraph(plan, b, options.max_edges));
    const std::vector<ItemId> crack_item_of_anon =
        LocalCrackItems(plan.blocks[b]);
    ANONSAFE_ASSIGN_OR_RETURN(
        CrackDistribution enumerated,
        EnumerateMatchings(
            GraphEdges{&local},
            [&](ItemId lx, ItemId la) { return crack_item_of_anon[la] == lx; },
            max_matchings));
    const uint64_t block_matchings = enumerated.num_matchings;
    const std::vector<double>& block_probability = enumerated.probability;
    if (block_matchings == 0) {
      return Status::FailedPrecondition(
          "planner block has no perfect matching after pruning");
    }
    // Convolve: cracks add across independent blocks.
    std::vector<double> convolved(
        out.probability.size() + block_probability.size() - 1, 0.0);
    for (size_t i = 0; i < out.probability.size(); ++i) {
      if (out.probability[i] == 0.0) continue;
      for (size_t j = 0; j < block_probability.size(); ++j) {
        convolved[i + j] += out.probability[i] * block_probability[j];
      }
    }
    out.probability = std::move(convolved);
    out.num_matchings = SaturatingMul(out.num_matchings, block_matchings);
  }
  out.probability.resize(plan.item_class.size() + 1, 0.0);
  out.expected = 0.0;
  for (size_t c = 0; c < out.probability.size(); ++c) {
    out.expected += static_cast<double>(c) * out.probability[c];
  }
  return out;
}

}  // namespace anonsafe
