#ifndef ANONSAFE_BELIEF_BUILDERS_H_
#define ANONSAFE_BELIEF_BUILDERS_H_

#include <vector>

#include "belief/belief_function.h"
#include "data/database.h"
#include "data/frequency.h"
#include "util/result.h"
#include "util/rng.h"

namespace anonsafe {

/// \brief The ignorant belief function: every interval is [0, 1].
/// The hacker knows nothing; the consistency graph is complete bipartite
/// and Lemma 1 gives an expected single crack regardless of n.
BeliefFunction MakeIgnorantBelief(size_t num_items);

/// \brief The compliant point-valued belief function: each interval is
/// exactly the item's true frequency. The data owner's absolute worst
/// case (Lemma 3: expected cracks = number of distinct frequencies).
Result<BeliefFunction> MakePointValuedBelief(const FrequencyTable& truth);

/// \brief The compliant interval belief function of half-width `delta`:
/// β(x) = [f_x - delta, f_x + delta], clamped to [0, 1]. The recipe uses
/// delta = δ_med, the median gap between frequency groups (Fig. 8 steps
/// 3–5). `delta` must be >= 0.
Result<BeliefFunction> MakeCompliantIntervalBelief(
    const FrequencyTable& truth, double delta);

/// \brief Result of an α-compliant perturbation: the belief function plus
/// the mask of items left compliant (the set I_C of Section 5.3).
struct AlphaCompliantBelief {
  BeliefFunction belief{*BeliefFunction::Create({})};
  std::vector<bool> compliant_mask;
  double requested_alpha = 1.0;
};

/// \brief Displaces `base` so the result no longer contains
/// `true_frequency`, keeping the width where possible (see
/// `MakeAlphaCompliantBelief` for the displacement rules). The returned
/// interval is guaranteed to exclude `true_frequency` and stay in [0, 1].
BeliefInterval MakeNonCompliantInterval(const BeliefInterval& base,
                                        double true_frequency, Rng* rng);

/// \brief Makes a compliant base belief α-compliant by displacing a random
/// (1 - alpha) fraction of intervals off their true frequency.
///
/// A displaced interval keeps its width but is shifted past the true
/// frequency by a margin between 10% and 60% of its width (direction
/// chosen to stay inside [0, 1]); degenerate cases fall back to the
/// largest side interval that excludes the true frequency. The result is
/// guaranteed non-compliant on exactly the selected items, so the measured
/// `ComplianceFraction` equals the requested alpha up to rounding.
///
/// Requirements: `base` compliant w.r.t. `truth` on all items, alpha in
/// [0, 1]. Point intervals of width 0 are displaced by at least one part
/// in 10^6 of the frequency axis.
Result<AlphaCompliantBelief> MakeAlphaCompliantBelief(
    const BeliefFunction& base, const FrequencyTable& truth, double alpha,
    Rng* rng);

/// \brief A belief function built from *similar data*: frequencies are
/// the counted `sample`'s and intervals take half-width equal to the
/// sample's own median frequency gap δ'_med (Fig. 13 steps a–c) — the
/// compliant interval belief of the sample at δ'_med.
///
/// Exactly what a consortium partner or competitor holding a subset of
/// the owner's transactions would compute. `delta_out` (optional)
/// receives the sampled δ'_med.
Result<BeliefFunction> MakeBeliefFromSample(const CountedDatabase& sample,
                                            double* delta_out = nullptr);

/// \brief Variant of `MakeBeliefFromSample` using the sampled *average*
/// gap as the width. Section 7.4 shows this width is misleadingly wide —
/// compliancy saturates near 0.99 for every sample size.
Result<BeliefFunction> MakeBeliefFromSampleAverageGap(
    const CountedDatabase& sample, double* delta_out = nullptr);

}  // namespace anonsafe

#endif  // ANONSAFE_BELIEF_BUILDERS_H_
