#ifndef ANONSAFE_ESTIMATOR_PLANNER_H_
#define ANONSAFE_ESTIMATOR_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "data/types.h"
#include "estimator/estimator.h"
#include "graph/bipartite_graph.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec

/// \brief Knobs for the block-decomposed planner (docs/ESTIMATORS.md).
struct PlannerOptions {
  /// Exact masked Ryser is applied to blocks up to this many items per
  /// side (the cost model's 2^k·k wall). Must be in [1, kMaxPermanentN].
  /// The default moved 20 → 22 with the SIMD lane kernels: the ~4x
  /// per-subset speedup buys two extra doublings at the same wall-clock
  /// budget, so more blocks stay exact.
  size_t ryser_cutoff = 22;

  /// Oversized blocks fall back to the per-block MCMC matching sampler
  /// instead of the refined O-estimate.
  bool prefer_sampler = false;

  /// Knobs for the per-block sampler fallback. Block b's chains split
  /// off SplitSeed(block_sampler.exec.seed, b), so results are
  /// deterministic and independent of evaluation order.
  SamplerOptions block_sampler;

  /// Edge cap on a materialized block graph: a sampler block's (checked
  /// at planning), or any block's under `PlannedCrackDistribution`.
  /// Planning itself runs on the group quotient and materializes no edge.
  size_t max_edges = BipartiteGraph::kDefaultMaxEdges;

  /// Refuse to approximate: planning fails with OutOfRange when any
  /// block would need an inexact method (the `estimator=exact` contract).
  bool require_exact = false;
};

/// \brief InvalidArgument when an option is out of range.
Status ValidatePlannerOptions(const PlannerOptions& options);

/// \brief One matching-cover block and the method chosen for it.
///
/// `anons`/`items` hold ascending *global* ids; blocks are ordered by
/// their smallest item id. For the closed-form methods (singleton,
/// complete-bipartite, chain) `contrib` carries the per-item crack
/// probabilities P(M(x) = x), aligned with `items`, and for the
/// O-estimate the refined 1/O_x; both are computed at plan time. The
/// permanent and sampler methods fill contributions at evaluation time.
struct PlannedBlock {
  BlockMethod method = BlockMethod::kOEstimate;
  bool exact = true;
  double cost = 0.0;  ///< cost-model estimate (abstract work units)
  size_t num_edges = 0;
  std::vector<ItemId> anons;
  std::vector<ItemId> items;
  std::vector<double> contrib;  ///< closed forms and O-estimate only
};

/// \brief The full block plan. The pruned graph is held on a quotient:
/// the original items of one item class have the same pruned neighbours,
/// and so do the anonymized items of one anon class. The pruned graph has
/// the edge (a, x) iff the pair (anon_class[a], item_class[x]) is kept;
/// block b's kept pairs are `pairs[pair_offsets[b] .. pair_offsets[b+1])`,
/// ascending. `PlanBlocks`' classes are the frequency groups and the
/// belief groups, so a plan holds no edge.
struct BlockPlan {
  std::vector<PlannedBlock> blocks;
  size_t pruned_edges = 0;  ///< edges the matching cover removed
  std::vector<uint32_t> item_class;  ///< per original item
  std::vector<uint32_t> anon_class;  ///< per anonymized item
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  ///< (anon, item) class
  std::vector<size_t> pair_offsets;  ///< blocks.size() + 1 entries
};

/// \brief Block b as a graph of its own: local anonymized item `la` and
/// local item `lx` stand for `anons[la]` and `items[lx]` of the block.
/// The planner's sampler blocks walk over it. OutOfRange when the block
/// has more than `max_edges` edges.
Result<BipartiteGraph> BlockGraph(
    const BlockPlan& plan, size_t b,
    size_t max_edges = BipartiteGraph::kDefaultMaxEdges);

/// \brief Splits the consistency graph of `observed` under `belief` into
/// the connected blocks of its matching cover, and classifies each block
/// (singleton → complete-bipartite → chain → Ryser permanent →
/// O-estimate/sampler, in cost order) without evaluating anything heavy.
/// This is what the `anonsafe plan` verb prints.
///
/// The cover runs on the group quotient (docs/ESTIMATORS.md): a maximum
/// b-matching of belief groups to frequency groups, greedily by range
/// end, and a Tarjan over its residual digraph. Its cost does not depend
/// on the number of edges.
///
/// Fails with InvalidArgument on a domain mismatch, with
/// FailedPrecondition when the graph has no perfect matching, and with
/// OutOfRange when `require_exact` is set but some block exceeds the
/// Ryser cutoff or when a sampler block has more than `max_edges` edges.
Result<BlockPlan> PlanBlocks(const FrequencyGroups& observed,
                             const BeliefFunction& belief,
                             const PlannerOptions& options = {});

/// \brief Evaluates a plan: blocks run in parallel on the exec pool,
/// per-item contributions land in fixed slots, and the total folds with
/// the same fixed-shape pairwise reduction the direct method uses — so
/// the result is bit-identical to `ExactExpectedCracksByPermanent`
/// whenever every block is exact and the whole-graph permanents are
/// exactly representable, and bit-identical across thread counts always.
Result<CrackEstimate> EstimatePlanned(const BlockPlan& plan,
                                      const PlannerOptions& options = {},
                                      exec::ExecContext* ctx = nullptr);

/// \brief Plan + evaluate in one call (the `auto` estimator).
Result<CrackEstimate> PlanAndEstimate(const FrequencyGroups& observed,
                                      const BeliefFunction& belief,
                                      const PlannerOptions& options = {},
                                      exec::ExecContext* ctx = nullptr);

/// \brief Exact crack distribution by per-block enumeration + discrete
/// convolution: each block's matchings are enumerated independently and
/// the block distributions convolve, so the work is the *sum* of the
/// per-block matching counts where whole-graph enumeration pays their
/// *product*. `num_matchings` is that product, saturating at UINT64_MAX.
///
/// `max_matchings` bounds each block's enumeration (OutOfRange beyond
/// it); InvalidArgument when it is 0.
Result<CrackDistribution> PlannedCrackDistribution(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    uint64_t max_matchings = 20'000'000, const PlannerOptions& options = {});

/// \brief The same distribution over the blocks of `plan`.
Result<CrackDistribution> PlannedCrackDistribution(
    const BlockPlan& plan, uint64_t max_matchings,
    const PlannerOptions& options = {});

}  // namespace anonsafe

#endif  // ANONSAFE_ESTIMATOR_PLANNER_H_
