#ifndef ANONSAFE_DEFENSE_OPTIMIZER_H_
#define ANONSAFE_DEFENSE_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/frequency.h"
#include "defense/scheme.h"
#include "defense/utility.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "util/json.h"
#include "util/result.h"

namespace anonsafe {
namespace defense {

/// \brief Knobs of the defense sweep.
struct OptimizerOptions {
  /// Risk-scoring knobs forwarded to the estimator planner. The sampler
  /// seed inside is overridden per candidate (SplitSeed stream 2i+3) so
  /// fallback estimates are independent of evaluation order.
  PlannerOptions planner;
};

/// \brief One scored point of the sweep: a scheme at one parameter
/// setting, the plan it produced, and its {risk, utility} pair — the
/// paired result struct of the sbdprivacylib pattern.
///
/// Every candidate is replayable from `{scheme, params}` alone:
/// `DefenseScheme::Find(scheme)->Plan(table, params)` rebuilds the
/// identical plan, and `Apply` on stream `SplitSeed(seed, 2·index+2)`
/// rebuilds a release whose recount is the table the sweep scored (or
/// fails with `reason`), so the estimator layer rescores it
/// bit-for-bit.
struct CandidateScore {
  size_t index = 0;        ///< enumeration order (scheme-major)
  std::string scheme;      ///< registry name
  DefenseParams params;

  /// False when Plan or the realization walk reported the setting
  /// unreachable (FailedPrecondition etc.), or the walk emptied the
  /// release; `reason` carries the message.
  bool feasible = false;
  std::string reason;

  DefensePlan plan;  ///< valid when feasible

  /// \name Risk (expected cracks of the defended release)
  /// @{
  double expected_cracks = 0.0;
  bool exact = false;        ///< every estimator block was exact
  size_t num_components = 0; ///< matching-cover blocks scored
  size_t k_anonymity = 0;    ///< min frequency-group size after defense
  /// @}

  UtilityLoss utility;  ///< information loss vs. the original release

  bool on_frontier = false;

  json::Value ToJson() const;
};

/// \brief The sweep result: every candidate plus the non-dominated
/// risk–utility frontier. Candidate A dominates B when A is no worse on
/// both axes (expected_cracks, total_loss) and strictly better on one;
/// ties on both axes keep both points.
struct DefenseFrontier {
  size_t num_items = 0;
  size_t num_transactions = 0;
  uint64_t seed = 0;  ///< the master seed the sweep actually used

  /// Risk of releasing the original data unchanged (the "not to do"
  /// reference point of the frontier).
  double baseline_cracks = 0.0;
  bool baseline_exact = false;
  size_t baseline_groups = 0;

  std::vector<CandidateScore> candidates;  ///< enumeration order
  /// Indices into `candidates`, sorted by (expected_cracks asc,
  /// total_loss asc, index asc).
  std::vector<size_t> frontier;

  /// The full document, byte-identical between the CLI (`--json`) and
  /// the serve verb for the same dataset/seed/threads.
  json::Value ToJson() const;
};

/// \brief The sweep: enumerates every registered scheme's `ParamSpace`
/// over `data`'s table, plans each candidate, realizes it on transaction
/// sizes alone (the walk `Apply` runs, over one holder index of the
/// database that every candidate shares), scores each distinct
/// after-table once (expected cracks via the estimator planner,
/// information loss via `ComputeUtilityLoss`), and extracts the Pareto
/// frontier. Candidates with the same after-table share its score,
/// except that a sampled estimate is redone on each candidate's own
/// stream. Candidates evaluate in parallel on `ctx`, whose seed is the
/// sweep's master seed (a null context means `exec::ExecOptions{}`:
/// sequential, default seed); the frontier is bit-identical at any
/// thread count. Returns Cancelled when `ctx` is cancelled mid-sweep.
Result<DefenseFrontier> RecommendDefense(const CountedDatabase& data,
                                         const OptimizerOptions& options = {},
                                         exec::ExecContext* ctx = nullptr);

/// \brief Counts a copy of `db` once, then runs the same sweep.
Result<DefenseFrontier> RecommendDefense(const Database& db,
                                         const OptimizerOptions& options = {},
                                         exec::ExecContext* ctx = nullptr);

}  // namespace defense
}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_OPTIMIZER_H_
