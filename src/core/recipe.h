#ifndef ANONSAFE_CORE_RECIPE_H_
#define ANONSAFE_CORE_RECIPE_H_

#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/oestimate.h"
#include "data/database.h"
#include "data/frequency.h"
#include "estimator/estimator.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Options of the Assess-Risk recipe (Figure 8).
struct RecipeOptions {
  /// Degree of tolerance τ: the fraction of items the owner can tolerate
  /// being cracked. Must lie in (0, 1].
  double tolerance = 0.1;

  /// Bisection steps of the α search; resolution is 2^-iterations.
  size_t binary_search_iterations = 12;

  /// O-estimate configuration (propagation on by default).
  OEstimateOptions oestimate;

  /// Engine for the interval risk check (steps 6-7), which `AssessRisk`
  /// calls directly: `kOe` the historical O-estimate on the bound model
  /// (default, bit-identical to prior releases), `kAuto`/`kExact` the
  /// block-decomposed planner (`PlanAndEstimate`, with `require_exact`
  /// set by the kind), `kSampler` the MCMC matching sampler (the mean
  /// crack count over its chains).
  ///
  /// Only the step 6-7 check dispatches: the α bisection (steps 8-9)
  /// always runs on the O-estimate machinery, because §5.3 defines the
  /// α-compliant estimate on the OE and partially-compliant beliefs need
  /// no perfect matching (which the planner's matching cover requires).
  /// See docs/ESTIMATORS.md.
  EstimatorKind estimator = EstimatorKind::kOe;

  /// Planner knobs, read when `estimator` is kAuto or kExact
  /// (`require_exact` is overridden by the kind).
  PlannerOptions planner;

  /// Attacker model: a registry name from `adversary::Adversary::All()`
  /// plus its parameters. The default, "interval", is the paper's
  /// interval-valued belief and reproduces the historical pipeline
  /// bit-for-bit. Weighted adversaries (e.g. "probabilistic") are only
  /// valid with `estimator == kOe`; `CheckEstimatorForAdversary` refuses
  /// any other engine with Unimplemented instead of silently dropping
  /// the weights.
  std::string adversary = "interval";
  adversary::AdversaryParams adversary_params;

  /// Shared execution knobs: master seed (default 7), α-probe runs
  /// (default 5, the paper's value), worker threads (default 1).
  exec::ExecOptions exec;
};

/// \brief Checks RecipeOptions invariants (tolerance in (0, 1], at least
/// one α run, at least one bisection step, valid planner knobs for the
/// planner kinds, a registered adversary with valid params that the
/// estimator supports) with a descriptive error. Called by every
/// AssessRisk entry point before any work happens.
Status ValidateRecipeOptions(const RecipeOptions& options);

/// \brief Unimplemented when `estimator` cannot evaluate the models
/// `adversary` binds: weighted models run only on the O-estimate. The
/// one home of that refusal, shared by ValidateRecipeOptions and the
/// CLI `plan` preview.
Status CheckEstimatorForAdversary(EstimatorKind estimator,
                                  const adversary::Adversary& adversary);

/// \brief Which stopping rule of Figure 8 fired.
enum class RecipeDecision {
  /// Step 2: even the point-valued worst case g is within tolerance —
  /// disclose.
  kDiscloseAtPointValued,
  /// Step 7: the δ_med compliant-interval O-estimate is within tolerance —
  /// disclose.
  kDiscloseAtInterval,
  /// Steps 8–10: full compliance exceeds tolerance; α_max reports how
  /// much of the domain the hacker must guess right before the owner's
  /// tolerance is breached. The owner decides whether that is comfortable.
  kAlphaBound,
};

const char* ToString(RecipeDecision decision);

/// \brief Inverse of ToString; false when `text` names no decision.
bool RecipeDecisionFromString(const std::string& text,
                              RecipeDecision* decision);

/// \brief Output of the recipe.
struct RecipeResult {
  RecipeDecision decision = RecipeDecision::kAlphaBound;
  size_t num_items = 0;
  size_t num_groups = 0;       ///< g, the Lemma 3 point-valued worst case
  double delta_med = 0.0;      ///< median frequency-group gap (step 3)
  double interval_oe = 0.0;    ///< interval risk at full compliance
  double alpha_max = 1.0;      ///< largest α within tolerance (step 9)
  double tolerance = 0.0;      ///< the τ used
  double crack_budget = 0.0;   ///< τ · n, the comparison threshold

  /// Which engine produced `interval_oe` (RecipeOptions::estimator).
  EstimatorKind estimator = EstimatorKind::kOe;
  /// Which attacker model the run was assessed against (provenance;
  /// RecipeOptions::adversary echoed back with its bound params).
  std::string adversary = "interval";
  adversary::AdversaryParams adversary_params;
  /// True when `interval_oe` is the exact expectation (planner kinds with
  /// every block exact). Always false for kOe/kSampler, and meaningless
  /// when the recipe stopped at step 2 (the check never ran).
  bool interval_exact = false;
  /// Per-block provenance of the interval check (planner kinds only).
  std::vector<BlockProvenance> interval_blocks;

  /// One-paragraph human-readable summary of the decision.
  std::string Summary() const;
};

/// \brief Reusable artifacts of repeated `AssessRisk` calls on the *same*
/// frequency table: the frequency grouping, the δ_med compliant interval
/// belief, and the α-sweep with its probe stab cache (the PR 3 cache).
/// All cached pieces are deterministic functions of (table, exec.seed,
/// exec.runs), so replaying them is bit-identical to recomputing — a
/// resident service keeps one per cached dataset and repeated risk
/// probes skip the group build and the 2n interval stabs.
///
/// Opaque on purpose: the definition lives in recipe.cc so the public
/// header does not leak the internal alpha-sweep machinery. Create with
/// `MakeRecipeArtifacts()`; thread-safe (internally locked) — concurrent
/// `AssessRisk` calls may share one instance.
struct RecipeArtifacts;

/// \brief A fresh, empty artifact cache.
std::shared_ptr<RecipeArtifacts> MakeRecipeArtifacts();

/// \brief Runs the Assess-Risk recipe of Figure 8 on the (anonymized)
/// frequency table. All quantities are computable owner-side before
/// release; by frequency-preservation the anonymized and original tables
/// give identical results.
///
/// `ctx` (optional) supplies an external execution context: the caller
/// keeps ownership and may `RequestCancel()` it from another thread
/// (deadline watchdogs, shutdown); the recipe then stops between phases
/// and returns Cancelled. Null means a private context is built from
/// `options.exec` — values are identical either way. `artifacts`
/// (optional) caches work across repeated calls on the same table; pass
/// the same instance only with the same table and the same `exec.seed` /
/// `exec.runs` — entries are keyed on those knobs and recomputed on
/// mismatch.
Result<RecipeResult> AssessRisk(const FrequencyTable& table,
                                const RecipeOptions& options = {},
                                exec::ExecContext* ctx = nullptr,
                                RecipeArtifacts* artifacts = nullptr);

/// \brief Convenience overload counting frequencies from a database.
Result<RecipeResult> AssessRiskOnDatabase(const Database& db,
                                          const RecipeOptions& options = {});

/// \brief The recipe restricted to *items of interest* (the Lemma 2/4
/// scenario: the owner only cares about, say, the best-selling products
/// or the sensitive diagnoses).
///
/// Runs `AssessRisk` with every quantity restricted: step 2 uses the
/// Lemma 4 worst case Σ c_i/n_i against τ·|interest|; steps 6-9 use
/// interest-restricted O-estimates of the bound adversary. The full
/// domain still participates in the graph — uninteresting items keep
/// camouflaging the interesting ones — only the crack accounting is
/// restricted, so an all-true mask reproduces `AssessRisk` exactly.
/// `interest` is a mask over item ids; it must select at least one item.
/// Only `estimator == kOe` is accepted: the planner has no per-item
/// accounting.
Result<RecipeResult> AssessRiskForItems(const FrequencyTable& table,
                                        const std::vector<bool>& interest,
                                        const RecipeOptions& options = {});

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_RECIPE_H_
