#ifndef ANONSAFE_ESTIMATOR_ESTIMATOR_H_
#define ANONSAFE_ESTIMATOR_ESTIMATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/result.h"

namespace anonsafe {

/// \brief Which crack-estimation engine a caller wants (the
/// `RecipeOptions::estimator` knob, the CLI `--estimator` flag, and the
/// server's `estimator` request field all parse into this).
///
///  - kOe: the paper's O-estimate with degree-1 propagation (Fig. 5–7).
///    Linear-time, approximate, and the historical default — the Fig. 8
///    recipe is specified in terms of it.
///  - kAuto: the block-decomposed planner. Exact closed forms / permanents
///    per matching-cover block where affordable, refined O-estimate on the
///    rest; `CrackEstimate::exact` reports whether every block was exact.
///  - kExact: the planner with approximation forbidden — fails with
///    OutOfRange when any block exceeds the Ryser cutoff instead of
///    degrading to an estimate.
///  - kSampler: the whole-instance MCMC matching sampler (Section 7.1).
enum class EstimatorKind {
  kAuto,
  kOe,
  kExact,
  kSampler,
};

/// \brief Canonical lowercase name ("auto", "oe", "exact", "sampler").
const char* EstimatorKindName(EstimatorKind kind);

/// \brief Parses a canonical name; InvalidArgument on anything else.
Result<EstimatorKind> ParseEstimatorKind(const std::string& name);

/// \brief How the planner evaluated one matching-cover block.
enum class BlockMethod {
  kSingleton,          ///< 1x1 block: the matching is forced.
  kCompleteBipartite,  ///< complete block: Lemma 1/3 closed form.
  kChain,              ///< chain-structured block: Lemma 5–6 flow form.
  kPermanent,          ///< exact masked Ryser on the block.
  kOEstimate,          ///< refined O-estimate (sum of 1/degree) fallback.
  kSampler,            ///< per-block MCMC matching sampler fallback.
};

/// \brief Canonical name ("singleton", "complete_bipartite", "chain",
/// "permanent", "oestimate", "sampler").
const char* BlockMethodName(BlockMethod method);

/// \brief Parses a canonical method name; InvalidArgument otherwise.
Result<BlockMethod> ParseBlockMethod(const std::string& name);

/// \brief Per-block provenance: which method produced which share of the
/// expected cracks, and what the cost model predicted for it.
struct BlockProvenance {
  size_t block = 0;      ///< index in plan order (by smallest item id)
  size_t size = 0;       ///< items per side of the block
  size_t num_edges = 0;  ///< edges of the pruned block
  BlockMethod method = BlockMethod::kOEstimate;
  double cost = 0.0;     ///< cost-model estimate (arbitrary work units)
  double expected_cracks = 0.0;
  bool exact = true;     ///< method yields the exact expectation
};

/// \brief A crack estimate with provenance. `exact` is true only when
/// every contributing method is exact (closed form or permanent).
struct CrackEstimate {
  double expected_cracks = 0.0;
  bool exact = false;
  size_t num_components = 0;  ///< matching-cover blocks (0: whole-graph)
  size_t pruned_edges = 0;    ///< edges removed by the matching cover
  std::vector<BlockProvenance> blocks;  ///< planner runs only
};

}  // namespace anonsafe

#endif  // ANONSAFE_ESTIMATOR_ESTIMATOR_H_
