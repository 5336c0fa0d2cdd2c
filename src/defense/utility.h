#ifndef ANONSAFE_DEFENSE_UTILITY_H_
#define ANONSAFE_DEFENSE_UTILITY_H_

#include <cstdint>

#include "data/frequency.h"
#include "util/json.h"

namespace anonsafe {
namespace defense {

/// \brief Information loss of a defense: how far the defended release
/// drifted from the original (the IL1 analogue of the SDC literature —
/// per-cell distortion plus structural terms).
///
/// All terms are computed from the two frequency tables alone, so the
/// same numbers fall out whether the defense perturbed supports
/// (group merge), dropped items (suppression), or both.
struct UtilityLoss {
  /// Σ |support_after - support_before| over the shared domain.
  uint64_t support_l1 = 0;
  /// support_l1 / Σ support_before — the fraction of occurrences moved.
  double support_distortion = 0.0;

  /// Shannon entropy (bits) of the released frequency-group partition,
  /// before and after. Merging groups collapses the partition, so the
  /// delta measures how much released structure the defense erased.
  double group_entropy_before = 0.0;
  double group_entropy_after = 0.0;
  double group_entropy_delta = 0.0;  ///< |before - after|

  /// Fraction of originally released items (support > 0) whose support
  /// dropped to 0 — the item-suppression footprint.
  double suppressed_item_fraction = 0.0;
  /// Fraction of transactions the defense removed entirely
  /// (1 - m_after / m_before; suppression drops emptied transactions).
  double suppressed_transaction_fraction = 0.0;
  /// Fraction of item occurrences removed (0 when occurrences only
  /// moved between items).
  double occurrence_loss = 0.0;

  /// The composite the optimizer ranks by: support_distortion +
  /// suppressed_transaction_fraction + group_entropy_delta normalized
  /// by the log2(n) entropy ceiling. Each term lives in [0, ~1], so the
  /// composite weighs occurrence edits, dropped transactions, and
  /// erased structure comparably.
  double total_loss = 0.0;

  /// Deterministic member-order object (the `utility` document of every
  /// frontier candidate).
  json::Value ToJson() const;
};

/// \brief Shannon entropy (bits) of a group partition: -Σ p_g log2 p_g
/// with p_g = |group g| / n. 0 for empty or single-group partitions.
double GroupEntropy(const FrequencyGroups& groups);

/// \brief Scores the drift from `before` to `after`. Both tables must
/// describe the same item domain (defenses keep item ids stable);
/// entropy terms are computed over each table's *release view* — the
/// items with positive support.
UtilityLoss ComputeUtilityLoss(const FrequencyTable& before,
                               const FrequencyTable& after);

/// \brief The same score, given the `GroupEntropy` of each table's
/// release view by a caller that has already grouped those views (the
/// defense sweep groups them to score risk), so neither is regrouped.
UtilityLoss ComputeUtilityLoss(const FrequencyTable& before,
                               const FrequencyTable& after,
                               double entropy_before, double entropy_after);

}  // namespace defense
}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_UTILITY_H_
