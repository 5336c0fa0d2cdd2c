#ifndef ANONSAFE_POWERSET_ITEMSET_BELIEF_H_
#define ANONSAFE_POWERSET_ITEMSET_BELIEF_H_

#include <vector>

#include "belief/belief_function.h"
#include "mining/itemset.h"
#include "powerset/support_oracle.h"
#include "util/result.h"

namespace anonsafe {

/// \brief One itemset-level constraint: the hacker believes the frequency
/// of `items` lies in `interval`.
struct ItemsetConstraint {
  Itemset items;  ///< sorted, distinct, size >= 2
  BeliefInterval interval;
};

/// \brief A belief function over the powerset (Section 8.2's "ongoing
/// work", in full generality): sparse frequency intervals for arbitrary
/// itemsets, on top of the per-item belief function.
///
/// A crack mapping `C` is consistent with a constraint `(S, [l, r])` iff
/// the observed frequency of the anonymized image `C⁻¹(S)` lies in
/// `[l, r]`. Since anonymization preserves co-occurrence, a compliant
/// constraint (one containing the true frequency of S) is always
/// satisfied by the true mapping — so compliant itemset knowledge can
/// only *shrink* the consistent-mapping space around the truth.
class ItemsetBeliefFunction {
 public:
  explicit ItemsetBeliefFunction(size_t num_items)
      : num_items_(num_items), by_item_(num_items) {}

  size_t num_items() const { return num_items_; }
  size_t num_constraints() const { return constraints_.size(); }
  const std::vector<ItemsetConstraint>& constraints() const {
    return constraints_;
  }

  /// \brief Adds a constraint. `items` is sorted/deduplicated; fails on
  /// out-of-domain members, size < 2, or an invalid interval. Duplicate
  /// itemsets are allowed (they combine conjunctively at evaluation).
  Status Constrain(Itemset items, BeliefInterval interval);

  /// \brief Constraints that involve item `x` (indices into
  /// `constraints()`).
  const std::vector<size_t>& ConstraintsOf(ItemId x) const {
    return by_item_[x];
  }

  /// \brief Fraction of constraints whose interval contains the true
  /// frequency (1.0 when there are none).
  Result<double> ComplianceFraction(const SupportOracle& truth) const;

 private:
  size_t num_items_;
  std::vector<ItemsetConstraint> constraints_;
  std::vector<std::vector<size_t>> by_item_;  // one list per item
};

/// \brief Builds a compliant itemset belief from mined patterns: the
/// hacker knows ball-park frequencies of the database's frequent itemsets
/// (the paper's own mining context, turned into attack knowledge). Takes
/// the `num_itemsets` highest-support itemsets of size >= 2 from
/// `frequent` and constrains each to its true frequency ± `delta`.
Result<ItemsetBeliefFunction> MakeCompliantItemsetBelief(
    const SupportOracle& truth,
    const std::vector<FrequentItemset>& frequent, size_t num_itemsets,
    double delta);

}  // namespace anonsafe

#endif  // ANONSAFE_POWERSET_ITEMSET_BELIEF_H_
