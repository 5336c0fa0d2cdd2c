#include "estimator/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "estimator/closed_forms.h"
#include "exec/exec.h"
#include "graph/edge_pruning.h"
#include "graph/hopcroft_karp.h"
#include "graph/matching_walk.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

constexpr size_t kNoBlock = static_cast<size_t>(-1);

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

/// Chain detection and closed-form evaluation (Lemmas 5–6, generalized
/// to any block whose items are each consistent with exactly one whole
/// frequency group or two whole consecutive groups). On success fills
/// method/cost/contrib and returns true; any structural mismatch returns
/// false and leaves the block for the heavier methods.
bool TryChainBlock(const BipartiteGraph& pruned,
                   const FrequencyGroups& observed, PlannedBlock* block) {
  const std::vector<ItemId>& anons = block->anons;
  const std::vector<ItemId>& items = block->items;
  const size_t k = items.size();

  // The block's frequency groups, ascending (group ids ascend with
  // group frequency, so consecutive local indices are chain neighbours).
  std::vector<size_t> group_ids;
  group_ids.reserve(k);
  for (ItemId a : anons) group_ids.push_back(observed.group_of_item(a));
  std::sort(group_ids.begin(), group_ids.end());
  group_ids.erase(std::unique(group_ids.begin(), group_ids.end()),
                  group_ids.end());
  const size_t g = group_ids.size();
  if (g < 2) return false;  // one group and not complete: no chain shape

  auto local_group = [&](size_t gid) {
    return static_cast<size_t>(
        std::lower_bound(group_ids.begin(), group_ids.end(), gid) -
        group_ids.begin());
  };
  std::vector<size_t> group_count(g, 0);  // n_j: block anons per group
  for (ItemId a : anons) ++group_count[local_group(observed.group_of_item(a))];

  // Classify every item: exclusive to one whole group, or shared between
  // two whole consecutive groups. Whole-group coverage follows from the
  // degree count because the groups seen span [lo, hi].
  std::vector<size_t> exclusive(g, 0);   // e_j
  std::vector<size_t> shared(g - 1, 0);  // s_j: items on seam (j, j+1)
  struct ItemClass {
    bool is_shared = false;
    size_t index = 0;  // group index, or seam index when shared
  };
  std::vector<ItemClass> item_class(k);
  for (size_t lx = 0; lx < k; ++lx) {
    size_t lo = g, hi = 0, degree = 0;
    for (ItemId a : pruned.anons_of_item(items[lx])) {
      size_t j = local_group(observed.group_of_item(a));
      lo = std::min(lo, j);
      hi = std::max(hi, j);
      ++degree;
    }
    if (degree == 0) return false;
    if (lo == hi) {
      if (degree != group_count[lo]) return false;
      item_class[lx] = {false, lo};
      ++exclusive[lo];
    } else if (hi == lo + 1) {
      if (degree != group_count[lo] + group_count[hi]) return false;
      item_class[lx] = {true, lo};
      ++shared[lo];
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
    if (LocalIndex(anons, x) == kNoBlock) continue;  // no identity anon
    const size_t ag = local_group(observed.group_of_item(x));
    const ItemClass& cls = item_class[lx];
    if (!cls.is_shared) {
      if (ag == cls.index) {
        block->contrib[lx] = 1.0 / static_cast<double>(group_count[ag]);
      }
    } else if (ag == cls.index) {
      block->contrib[lx] =
          static_cast<double>(left[cls.index]) /
          static_cast<double>(shared[cls.index] * group_count[ag]);
    } else if (ag == cls.index + 1) {
      block->contrib[lx] =
          static_cast<double>(right[cls.index]) /
          static_cast<double>(shared[cls.index] * group_count[ag]);
    }
  }
  block->method = BlockMethod::kChain;
  block->exact = true;
  block->cost = static_cast<double>(k);
  return true;
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
/// chain → Ryser → O-estimate/sampler, cheapest exact method first).
Status ClassifyBlock(const BipartiteGraph& pruned,
                     const FrequencyGroups& observed,
                     const PlannerOptions& options, PlannedBlock* block) {
  const size_t k = block->items.size();
  size_t edges = 0;
  for (ItemId a : block->anons) edges += pruned.anon_degree(a);
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
      if (LocalIndex(block->anons, block->items[lx]) != kNoBlock) {
        block->contrib[lx] = CompleteBipartiteExpectedCracks(1, k);
      }
    }
    return Status::OK();
  }
  if (TryChainBlock(pruned, observed, block)) return Status::OK();
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
    block->method = BlockMethod::kSampler;
    block->cost = SamplerCost(options.block_sampler, k);
  } else {
    block->method = BlockMethod::kOEstimate;
    block->cost = static_cast<double>(edges);
  }
  block->exact = false;
  return Status::OK();
}

/// Row bitmasks of a block in local indices (k <= kMaxPermanentN <= 64).
std::vector<uint64_t> BlockRowMasks(const BipartiteGraph& pruned,
                                    const PlannedBlock& block) {
  const size_t k = block.items.size();
  std::vector<uint64_t> rows(k, 0);
  for (size_t la = 0; la < k; ++la) {
    for (ItemId x : pruned.items_of_anon(block.anons[la])) {
      rows[la] |= uint64_t{1} << LocalIndex(block.items, x);
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
Status EvalPermanentBlock(const BipartiteGraph& pruned,
                          const PlannedBlock& block,
                          std::vector<double>* contrib) {
  const size_t k = block.items.size();
  std::vector<std::vector<uint64_t>> matrices;
  matrices.reserve(k + 1);
  matrices.push_back(BlockRowMasks(pruned, block));
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
Status EvalSamplerBlock(const BipartiteGraph& pruned,
                        const PlannedBlock& block, const SamplerOptions& so,
                        size_t block_index, std::vector<double>* contrib) {
  const size_t k = block.items.size();
  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph local, BlockGraph(pruned, block));
  Matching matching = HopcroftKarp(local);
  if (!matching.IsPerfect()) {
    return Status::FailedPrecondition(
        "planner block has no perfect matching after pruning");
  }

  const std::vector<ItemId> crack_item_of_anon = LocalCrackItems(block);
  std::vector<uint64_t> crack_counts(k, 0);
  SampleMatchingChains(
      GraphEdges{&local}, matching.item_of_anon, so,
      exec::SplitSeed(so.exec.seed, block_index), /*ctx=*/nullptr,
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

Result<BipartiteGraph> BlockGraph(const BipartiteGraph& pruned,
                                  const PlannedBlock& block) {
  const size_t k = block.items.size();
  std::vector<std::vector<ItemId>> adjacency(k);
  for (size_t la = 0; la < k; ++la) {
    for (ItemId x : pruned.items_of_anon(block.anons[la])) {
      adjacency[la].push_back(
          static_cast<ItemId>(LocalIndex(block.items, x)));
    }
  }
  return BipartiteGraph::FromAdjacency(k, std::move(adjacency));
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

Result<BlockPlan> PlanBlocks(const BipartiteGraph& graph,
                             const FrequencyGroups& observed,
                             const PlannerOptions& options) {
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options));
  obs::ScopedTimer timer("estimator.plan");
  ANONSAFE_ASSIGN_OR_RETURN(MatchingCover cover, ComputeMatchingCover(graph));

  BlockPlan plan(std::move(cover.graph));
  plan.pruned_edges = cover.pruned_edges;
  const size_t n = plan.pruned.num_items();

  // Blocks are the *connected components* of the pruned graph — not the
  // matching cover's SCC ids, which split forced pairs into two
  // singleton SCCs joined only by their matched edge. Connectivity is
  // the relation over which the permanent factorizes.
  std::vector<size_t> item_block(n, kNoBlock);
  std::vector<size_t> anon_block(n, kNoBlock);
  std::vector<std::pair<bool, ItemId>> frontier;  // (is_item, id)
  for (ItemId x0 = 0; x0 < n; ++x0) {
    if (item_block[x0] != kNoBlock) continue;
    const size_t b = plan.blocks.size();
    plan.blocks.emplace_back();
    PlannedBlock& block = plan.blocks.back();
    item_block[x0] = b;
    frontier.clear();
    frontier.emplace_back(true, x0);
    block.items.push_back(x0);
    while (!frontier.empty()) {
      auto [is_item, v] = frontier.back();
      frontier.pop_back();
      if (is_item) {
        for (ItemId a : plan.pruned.anons_of_item(v)) {
          if (anon_block[a] != kNoBlock) continue;
          anon_block[a] = b;
          block.anons.push_back(a);
          frontier.emplace_back(false, a);
        }
      } else {
        for (ItemId x : plan.pruned.items_of_anon(v)) {
          if (item_block[x] != kNoBlock) continue;
          item_block[x] = b;
          block.items.push_back(x);
          frontier.emplace_back(true, x);
        }
      }
    }
    std::sort(block.anons.begin(), block.anons.end());
    std::sort(block.items.begin(), block.items.end());
    if (block.anons.size() != block.items.size()) {
      return Status::Internal(
          "planner block with unequal sides — pruned graph inconsistent");
    }
  }
  for (PlannedBlock& block : plan.blocks) {
    ANONSAFE_RETURN_IF_ERROR(
        ClassifyBlock(plan.pruned, observed, options, &block));
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
  const size_t n = plan.pruned.num_items();
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
            for (size_t lx = 0; lx < block.items.size(); ++lx) {
              contrib[block.items[lx]] = block.contrib[lx];
            }
            break;
          case BlockMethod::kPermanent:
            ANONSAFE_RETURN_IF_ERROR(
                EvalPermanentBlock(plan.pruned, block, &contrib));
            break;
          case BlockMethod::kOEstimate:
            // Refined O-estimate: 1/degree on the pruned block (degree-1
            // propagation is subsumed — a post-prune degree-1 vertex is a
            // singleton block).
            for (ItemId x : block.items) {
              contrib[x] =
                  1.0 / static_cast<double>(plan.pruned.item_outdegree(x));
            }
            break;
          case BlockMethod::kSampler:
            ANONSAFE_RETURN_IF_ERROR(EvalSamplerBlock(
                plan.pruned, block, options.block_sampler, b, &contrib));
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
  ANONSAFE_ASSIGN_OR_RETURN(
      BipartiteGraph graph,
      BipartiteGraph::Build(observed, belief, options.max_edges));
  ANONSAFE_ASSIGN_OR_RETURN(BlockPlan plan,
                            PlanBlocks(graph, observed, options));
  return EstimatePlanned(plan, options, ctx);
}

Result<CrackDistribution> PlannedCrackDistribution(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    uint64_t max_matchings, const PlannerOptions& options) {
  if (max_matchings == 0) {
    return Status::InvalidArgument("max_matchings must be positive");
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      BipartiteGraph graph,
      BipartiteGraph::Build(observed, belief, options.max_edges));
  ANONSAFE_ASSIGN_OR_RETURN(BlockPlan plan,
                            PlanBlocks(graph, observed, options));

  CrackDistribution out;
  out.probability = {1.0};
  out.num_matchings = 1;
  for (const PlannedBlock& block : plan.blocks) {
    ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph local,
                              BlockGraph(plan.pruned, block));
    const std::vector<ItemId> crack_item_of_anon = LocalCrackItems(block);
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
  out.probability.resize(plan.pruned.num_items() + 1, 0.0);
  out.expected = 0.0;
  for (size_t c = 0; c < out.probability.size(); ++c) {
    out.expected += static_cast<double>(c) * out.probability[c];
  }
  return out;
}

}  // namespace anonsafe
