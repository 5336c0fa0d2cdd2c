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

  /// Edge cap forwarded to the consistency-graph build.
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
/// probabilities P(M(x) = x), aligned with `items`, computed at plan
/// time; the heavy methods fill contributions at evaluation time.
struct PlannedBlock {
  BlockMethod method = BlockMethod::kOEstimate;
  bool exact = true;
  double cost = 0.0;  ///< cost-model estimate (abstract work units)
  size_t num_edges = 0;
  std::vector<ItemId> anons;
  std::vector<ItemId> items;
  std::vector<double> contrib;  ///< closed-form methods only
};

/// \brief The full block plan over the pruned consistency graph.
struct BlockPlan {
  explicit BlockPlan(BipartiteGraph pruned_graph)
      : pruned(std::move(pruned_graph)) {}

  BipartiteGraph pruned;  ///< the matching-cover graph (all kept edges)
  std::vector<PlannedBlock> blocks;
  size_t pruned_edges = 0;  ///< edges the matching cover removed
};

/// \brief The block as a graph of its own: local anonymized item `la` and
/// local item `lx` stand for `block.anons[la]` and `block.items[lx]` of
/// `pruned`. The planner's sampler blocks walk over it.
Result<BipartiteGraph> BlockGraph(const BipartiteGraph& pruned,
                                  const PlannedBlock& block);

/// \brief Prunes `graph` with the matching cover, splits it into
/// connected blocks, and classifies each block (singleton →
/// complete-bipartite → chain → Ryser permanent → O-estimate/sampler, in
/// cost order) without evaluating anything heavy. This is what the
/// `anonsafe plan` verb prints.
///
/// Fails with FailedPrecondition when the graph has no perfect matching
/// and with OutOfRange when `require_exact` is set but some block
/// exceeds the Ryser cutoff.
Result<BlockPlan> PlanBlocks(const BipartiteGraph& graph,
                             const FrequencyGroups& observed,
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

/// \brief Build + plan + evaluate in one call (the `auto` estimator).
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

}  // namespace anonsafe

#endif  // ANONSAFE_ESTIMATOR_PLANNER_H_
