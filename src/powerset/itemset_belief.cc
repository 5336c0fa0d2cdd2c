#include "powerset/itemset_belief.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace anonsafe {

Status ItemsetBeliefFunction::Constrain(Itemset items,
                                        BeliefInterval interval) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  if (items.size() < 2) {
    return Status::InvalidArgument(
        "itemset constraints need >= 2 distinct items; use BeliefFunction "
        "for single items");
  }
  if (items.back() >= num_items_) {
    return Status::InvalidArgument("itemset member outside domain");
  }
  if (!(interval.lo <= interval.hi) || interval.lo < 0.0 ||
      interval.hi > 1.0) {
    return Status::InvalidArgument("invalid belief interval");
  }
  size_t index = constraints_.size();
  constraints_.push_back({std::move(items), interval});
  for (ItemId x : constraints_.back().items) {
    by_item_[x].push_back(index);
  }
  return Status::OK();
}

Result<double> ItemsetBeliefFunction::ComplianceFraction(
    const SupportOracle& truth) const {
  if (truth.num_items() != num_items_) {
    return Status::InvalidArgument("itemset belief/truth domain mismatch");
  }
  if (constraints_.empty()) return 1.0;
  size_t compliant = 0;
  for (const ItemsetConstraint& c : constraints_) {
    if (c.interval.Contains(truth.Frequency(c.items))) ++compliant;
  }
  return static_cast<double>(compliant) /
         static_cast<double>(constraints_.size());
}

Result<ItemsetBeliefFunction> MakeCompliantItemsetBelief(
    const SupportOracle& truth,
    const std::vector<FrequentItemset>& frequent, size_t num_itemsets,
    double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("interval half-width must be >= 0");
  }
  // Rank candidate itemsets (size >= 2) by support desc, canonical asc.
  std::vector<const FrequentItemset*> ranked;
  for (const FrequentItemset& fi : frequent) {
    if (fi.items.size() >= 2) ranked.push_back(&fi);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const FrequentItemset* a, const FrequentItemset* b) {
              if (a->support != b->support) return a->support > b->support;
              return CanonicalLess(*a, *b);
            });
  if (ranked.size() > num_itemsets) ranked.resize(num_itemsets);

  ItemsetBeliefFunction belief(truth.num_items());
  for (const FrequentItemset* fi : ranked) {
    double f = truth.Frequency(fi->items);
    ANONSAFE_RETURN_IF_ERROR(belief.Constrain(
        fi->items, {std::max(0.0, f - delta), std::min(1.0, f + delta)}));
  }
  return belief;
}

}  // namespace anonsafe
