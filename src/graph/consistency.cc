#include "graph/consistency.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "exec/exec.h"
#include "exec/scratch.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

// Fenwick tree helpers over 1-based internal indexing.
void FenwickAdd(std::vector<int64_t>* tree, size_t i, int64_t delta) {
  for (size_t p = i + 1; p < tree->size(); p += p & (~p + 1)) {
    (*tree)[p] += delta;
  }
}

int64_t FenwickPrefix(const std::vector<int64_t>& tree, size_t count) {
  int64_t sum = 0;
  for (size_t p = count; p > 0; p -= p & (~p + 1)) {
    sum += tree[p];
  }
  return sum;
}

}  // namespace

Result<ConsistencyStructure> ConsistencyStructure::Build(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    exec::ExecContext* ctx) {
  ANONSAFE_SCOPED_TIMER("graph.consistency_build");
  if (observed.num_items() != belief.num_items()) {
    return Status::InvalidArgument(
        "observed data covers " + std::to_string(observed.num_items()) +
        " items, belief function " + std::to_string(belief.num_items()));
  }
  const size_t n = observed.num_items();

  // Phase 1 (parallel): stab every item's interval against the sorted
  // groups; each chunk writes disjoint slots of the scratch buffer.
  // Phase 2 (sequential, item order): apply the Fenwick range updates,
  // which share tree nodes and must not race. The split keeps the output
  // bit-identical for any thread count. The stab buffer comes from the
  // thread-local scratch pool — recipe runs rebuild this structure per
  // probe, so the allocation is recycled rather than repeated.
  exec::ScratchVec<ItemStabRange> stabs(n);
  const size_t grain = ctx != nullptr ? 2048 : n;
  Status st = exec::ParallelForChunks(
      ctx, n, grain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const BeliefInterval& iv = belief.interval(static_cast<ItemId>(i));
          stabs[i] = observed.Stab(iv.lo, iv.hi);
        }
        return Status::OK();
      });
  ANONSAFE_RETURN_IF_ERROR(st);
  return InitFromRanges(observed, stabs.data(), n);
}

Result<ConsistencyStructure> ConsistencyStructure::BuildFromRanges(
    const FrequencyGroups& observed,
    const std::vector<ItemStabRange>& ranges) {
  if (ranges.size() != observed.num_items()) {
    return Status::InvalidArgument(
        "ranges cover " + std::to_string(ranges.size()) +
        " items, observed data " + std::to_string(observed.num_items()));
  }
  const size_t k = observed.num_groups();
  for (const ItemStabRange& r : ranges) {
    if (r.has && (r.lo > r.hi || r.hi >= k)) {
      return Status::InvalidArgument("stab range outside the group domain");
    }
  }
  return InitFromRanges(observed, ranges.data(), ranges.size());
}

ConsistencyStructure ConsistencyStructure::InitFromRanges(
    const FrequencyGroups& observed, const ItemStabRange* ranges, size_t n) {
  const size_t k = observed.num_groups();
  ConsistencyStructure cs;
  cs.item_state_.assign(n, ItemState::kAlive);
  cs.item_lo_.assign(n, 0);
  cs.item_hi_.assign(n, 0);
  cs.group_remaining_.resize(k);
  cs.size_tree_.assign(k + 1, 0);
  cs.cover_tree_.assign(k + 2, 0);
  for (size_t g = 0; g < k; ++g) {
    cs.group_remaining_[g] = observed.group_size(g);
    FenwickAdd(&cs.size_tree_, g,
               static_cast<int64_t>(observed.group_size(g)));
  }
  for (ItemId x = 0; x < n; ++x) {
    const ItemStabRange& r = ranges[x];
    if (r.has) {
      cs.item_lo_[x] = r.lo;
      cs.item_hi_[x] = r.hi;
      cs.AddCover(r.lo, r.hi, +1);
    } else {
      cs.item_state_[x] = ItemState::kDead;
      ++cs.num_dead_;
    }
  }
  // An item without candidates certifies that no perfect consistent
  // matching exists (the paper's Section 2.3 example).
  cs.contradiction_ = cs.num_dead_ > 0;
  return cs;
}

size_t ConsistencyStructure::RangeRemaining(size_t lo, size_t hi) const {
  return static_cast<size_t>(FenwickPrefix(size_tree_, hi + 1) -
                             FenwickPrefix(size_tree_, lo));
}

size_t ConsistencyStructure::CoverCount(size_t g) const {
  return static_cast<size_t>(FenwickPrefix(cover_tree_, g + 1));
}

void ConsistencyStructure::AddCover(size_t lo, size_t hi, int delta) {
  FenwickAdd(&cover_tree_, lo, delta);
  FenwickAdd(&cover_tree_, hi + 1, -delta);
}

size_t ConsistencyStructure::FindFirstNonEmptyGroup(size_t lo,
                                                    size_t hi) const {
  // Binary descent over the Fenwick tree: the answer is the first group
  // whose cumulative remaining size exceeds prefix(lo) — the largest pos
  // with prefix(pos) <= prefix(lo). O(log k) regardless of how long the
  // run of emptied groups inside [lo, hi] has grown, where the old linear
  // scan degraded to O(k) per forcing during long cascades.
  int64_t rem = FenwickPrefix(size_tree_, lo);
  size_t pos = 0;
  for (size_t pw = std::bit_floor(size_tree_.size() - 1); pw > 0; pw >>= 1) {
    const size_t next = pos + pw;
    if (next < size_tree_.size() && size_tree_[next] <= rem) {
      pos = next;
      rem -= size_tree_[next];
    }
  }
  assert(pos >= lo && pos <= hi && group_remaining_[pos] > 0);
  (void)hi;
  return pos;
}

size_t ConsistencyStructure::outdegree(ItemId x) const {
  switch (item_state_[x]) {
    case ItemState::kDead:
      return 0;
    case ItemState::kForced:
      return 1;
    case ItemState::kAlive:
      return RangeRemaining(item_lo_[x], item_hi_[x]);
  }
  return 0;
}

ConsistencyStructure::PropagationStats
ConsistencyStructure::PropagateDegreeOne() {
  obs::ScopedTimer timer("graph.propagate_degree1");
  PropagationStats stats;
  propagated_ = true;

  const size_t n = num_items();
  const size_t k = num_groups();

  // Degree-1 locate index: items sorted by ascending (lo, id) under a
  // max-hi segment tree. When the anonymized side forces (cover == 1) the
  // unique alive item covering g is the leftmost alive entry with
  // hi >= g: any earlier alive entry with hi >= g would have lo <= g too
  // (entries are lo-sorted) and hence also cover g, contradicting
  // cover == 1. Replaces the old O(n) locate-by-scan per forcing.
  const size_t leaves = std::bit_ceil(std::max<size_t>(n, 1));
  std::vector<ItemId> by_lo(n);
  for (size_t i = 0; i < n; ++i) by_lo[i] = static_cast<ItemId>(i);
  std::sort(by_lo.begin(), by_lo.end(), [&](ItemId a, ItemId b) {
    if (item_lo_[a] != item_lo_[b]) return item_lo_[a] < item_lo_[b];
    return a < b;
  });
  std::vector<size_t> pos_of_item(n);
  std::vector<int64_t> max_hi(2 * leaves, -1);
  for (size_t p = 0; p < n; ++p) {
    const ItemId x = by_lo[p];
    pos_of_item[x] = p;
    if (item_state_[x] == ItemState::kAlive) {
      max_hi[leaves + p] = static_cast<int64_t>(item_hi_[x]);
    }
  }
  for (size_t node = leaves - 1; node >= 1; --node) {
    max_hi[node] = std::max(max_hi[2 * node], max_hi[2 * node + 1]);
  }
  auto retire = [&](ItemId x) {
    size_t node = leaves + pos_of_item[x];
    max_hi[node] = -1;
    for (node >>= 1; node >= 1; node >>= 1) {
      max_hi[node] = std::max(max_hi[2 * node], max_hi[2 * node + 1]);
    }
  };
  auto locate_covering = [&](size_t g) -> ItemId {
    if (max_hi[1] < static_cast<int64_t>(g)) return kInvalidItem;
    size_t node = 1;
    while (node < leaves) {
      node = 2 * node;
      if (max_hi[node] < static_cast<int64_t>(g)) ++node;
    }
    const ItemId x = by_lo[node - leaves];
    return item_lo_[x] <= g ? x : kInvalidItem;
  };

  auto force_item = [&](ItemId x, size_t g) {
    assert(item_state_[x] == ItemState::kAlive);
    assert(group_remaining_[g] == 1);
    AddCover(item_lo_[x], item_hi_[x], -1);
    item_state_[x] = ItemState::kForced;
    retire(x);
    group_remaining_[g] -= 1;
    FenwickAdd(&size_tree_, g, -1);
    ++stats.forced_pairs;
  };

  // Best-effort fixpoint: under a compliant belief every step below is the
  // sound degree-1 rule of Figure 7. Under non-compliant beliefs a perfect
  // matching may not exist; then the rules model what a hacker (who
  // cannot tell) would still deduce, inconsistencies are flagged via
  // `contradiction` and affected items become dead instead of aborting.
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.passes;

    // Anonymized side: degree of every anonymized item in group g is the
    // number of alive items covering g.
    for (size_t g = 0; g < k; ++g) {
      size_t remaining = group_remaining_[g];
      if (remaining == 0) continue;
      size_t cover = CoverCount(g);
      if (cover < remaining) {
        stats.contradiction = true;  // Hall violation; no forcing possible
        continue;
      }
      if (remaining == 1 && cover == 1) {
        // The unique covering item is forced onto this group's sole
        // remaining anonymized item.
        const ItemId x = locate_covering(g);
        if (x != kInvalidItem) {
          force_item(x, g);
          changed = true;
        }
      }
    }

    // Item side: an alive item with exactly one remaining candidate is
    // forced; one with none left becomes dead.
    for (ItemId x = 0; x < n; ++x) {
      if (item_state_[x] != ItemState::kAlive) continue;
      size_t rr = RangeRemaining(item_lo_[x], item_hi_[x]);
      if (rr == 0) {
        AddCover(item_lo_[x], item_hi_[x], -1);
        item_state_[x] = ItemState::kDead;
        retire(x);
        ++num_dead_;
        stats.contradiction = true;
        changed = true;
      } else if (rr == 1) {
        size_t g = FindFirstNonEmptyGroup(item_lo_[x], item_hi_[x]);
        force_item(x, g);
        changed = true;
      }
    }
  }

  stats.contradiction = stats.contradiction || contradiction_;
  contradiction_ = stats.contradiction;
  obs::CountIf("anonsafe_propagation_forced_pairs_total", stats.forced_pairs);
  obs::CountIf("anonsafe_propagation_passes_total", stats.passes);
  if (timer.tracing()) {
    timer.Annotate("forced_pairs", std::to_string(stats.forced_pairs));
    timer.Annotate("passes", std::to_string(stats.passes));
  }
  return stats;
}

std::vector<std::vector<ItemId>> ConsistencyStructure::BeliefGroups() const {
  const size_t n = num_items();
  // Sort the non-dead items by (lo, hi, id) and group linearly — same
  // output as a map keyed on the range (ranges ascend lexicographically,
  // ids ascend within a range via the tie-break) without the per-node
  // tree allocations.
  std::vector<ItemId> order;
  std::vector<ItemId> dead;
  order.reserve(n);
  for (ItemId x = 0; x < n; ++x) {
    (item_state_[x] == ItemState::kDead ? dead : order).push_back(x);
  }
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (item_lo_[a] != item_lo_[b]) return item_lo_[a] < item_lo_[b];
    if (item_hi_[a] != item_hi_[b]) return item_hi_[a] < item_hi_[b];
    return a < b;
  });
  std::vector<std::vector<ItemId>> out;
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j < order.size() && item_lo_[order[j]] == item_lo_[order[i]] &&
           item_hi_[order[j]] == item_hi_[order[i]]) {
      ++j;
    }
    out.emplace_back(order.begin() + static_cast<ptrdiff_t>(i),
                     order.begin() + static_cast<ptrdiff_t>(j));
    i = j;
  }
  if (!dead.empty()) out.push_back(std::move(dead));
  return out;
}

}  // namespace anonsafe
