#ifndef ANONSAFE_CORE_OESTIMATE_H_
#define ANONSAFE_CORE_OESTIMATE_H_

#include <vector>

#include "adversary/adversary.h"
#include "belief/belief_function.h"
#include "data/frequency.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec

/// \brief Options of the O-estimate computation.
struct OEstimateOptions {
  /// Apply the degree-1 propagation of Figure 7 before reading outdegrees.
  /// The paper's convention after Section 5.2 ("whenever we refer to
  /// outdegrees, we assume that this algorithm has been applied").
  bool propagate = true;
};

/// \brief Result of an O-estimate computation.
struct OEstimateResult {
  /// OE(β, D) = Σ_x 1/O_x over the counted items (Figure 5; restricted to
  /// the compliant items I_C for α-compliant beliefs, Section 5.3).
  double expected_cracks = 0.0;

  /// Of which: items pinned by propagation (outdegree 1 after Figure 7).
  size_t forced_items = 0;

  /// Counted items with no candidate anonymized item at all (contribute
  /// 0 — a consistent mapping can never crack them).
  size_t dead_items = 0;

  /// True when the consistency graph admits no perfect matching (only
  /// possible under non-compliant beliefs).
  bool contradiction = false;

  /// Propagation fixpoint iterations (0 when propagation disabled).
  size_t propagation_passes = 0;

  /// Convenience: expected_cracks / n.
  double fraction = 0.0;
};

/// \brief The O-estimate core: OE(β, D) = Σ_x p_x over the counted items
/// (Section 5.1, Fig. 5), from per-item stab ranges (`observed.Stab` of
/// each item's belief interval). Every O-estimate ends here: the two
/// adapters below stab their intervals first, and the α bisection
/// replays cached ranges (`AlphaCompliancySweep::MakeProbeCache`).
///
/// Runs in O(n log n) on top of the observed frequency groups: each
/// item's candidate set is a contiguous group range, outdegrees are
/// prefix-sum lookups, and propagation (when enabled) refines them.
///
/// `include` (optional) restricts the sum to items with `include[x]`
/// true: the α-compliant estimate of Section 5.3 (the compliant mask) or
/// a Lemma 2/4-style "items of interest" estimate. The graph and the
/// propagation still involve *all* items; `fraction` stays relative to
/// the full domain size.
///
/// `weights` (optional, one per item, each covering the window of the
/// item's stab range as `adversary::ItemWeight` describes) turns the
/// uniform p_x = 1/O_x of an alive item into the weighted outdegree of a
/// weighted adversary model:
///   p_x = w_x(g_x) / Σ_{g ∈ range(x)} w_x(g) · remaining(g)
/// which reduces to 1/O_x when all weights are equal. Forced items still
/// count 1 and dead items 0 — propagation is structural and
/// weight-independent. Excluded items never consult their weights, so a
/// displaced range of an excluded item need not match its window.
///
/// With a non-null `ctx` the per-item reads run on the pool; the
/// reduction uses fixed per-chunk slots, so the result is bit-identical
/// for any thread count. InvalidArgument when a range leaves the group
/// domain or is inverted, or when `ranges`, `include` or `weights` does
/// not have one entry per item.
Result<OEstimateResult> ComputeOEstimateCore(
    const FrequencyGroups& observed, const std::vector<ItemStabRange>& ranges,
    const std::vector<bool>* include = nullptr,
    const std::vector<adversary::ItemWeight>* weights = nullptr,
    const OEstimateOptions& options = {}, exec::ExecContext* ctx = nullptr);

/// \brief O-estimate of an interval belief function: stabs each item's
/// interval (on the pool with a non-null `ctx`, bit-identical for any
/// thread count) and runs the core with uniform weights. `include` as
/// for `ComputeOEstimateCore`.
Result<OEstimateResult> ComputeOEstimate(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    const OEstimateOptions& options = {}, exec::ExecContext* ctx = nullptr,
    const std::vector<bool>* include = nullptr);

/// \brief O-estimate of a bound adversary model: the core over the stab
/// ranges of `model.belief` with `model.weights` (none for unweighted
/// models, so this is bit-identical to `ComputeOEstimate` on
/// `model.belief`). This is the seam the Fig. 8 recipe dispatches
/// through — core code consumes the adversary's consistency support
/// instead of reaching into `BeliefInterval` directly.
Result<OEstimateResult> ComputeOEstimateForModel(
    const FrequencyGroups& observed, const adversary::AdversaryModel& model,
    const OEstimateOptions& options = {}, exec::ExecContext* ctx = nullptr,
    const std::vector<bool>* include = nullptr);

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_OESTIMATE_H_
