#include "defense/utility.h"

#include <algorithm>
#include <cmath>

namespace anonsafe {
namespace defense {
namespace {

/// Entropy of the equal-support partition over the items of `table`
/// that are actually released (support > 0).
double ReleaseViewEntropy(const FrequencyTable& table) {
  std::vector<SupportCount> alive;
  for (ItemId x = 0; x < table.num_items(); ++x) {
    if (table.support(x) > 0) alive.push_back(table.support(x));
  }
  if (alive.empty()) return 0.0;
  return GroupEntropy(
      FrequencyGroups::FromSupports(alive, table.num_transactions()));
}

}  // namespace

double GroupEntropy(const FrequencyGroups& groups) {
  const double n = static_cast<double>(groups.num_items());
  if (n == 0.0) return 0.0;
  double h = 0.0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    double p = static_cast<double>(groups.group_size(g)) / n;
    if (p > 0.0) h -= p * std::log2(p);
  }
  return h;
}

UtilityLoss ComputeUtilityLoss(const FrequencyTable& before,
                               const FrequencyTable& after) {
  return ComputeUtilityLoss(before, after, ReleaseViewEntropy(before),
                            ReleaseViewEntropy(after));
}

UtilityLoss ComputeUtilityLoss(const FrequencyTable& before,
                               const FrequencyTable& after,
                               double entropy_before, double entropy_after) {
  UtilityLoss loss;
  const size_t common =
      std::min(before.num_items(), after.num_items());

  uint64_t total_before = 0;
  uint64_t total_after = 0;
  size_t released_before = 0;
  size_t newly_zero = 0;
  for (ItemId x = 0; x < common; ++x) {
    const uint64_t b = before.support(x);
    const uint64_t a = after.support(x);
    total_before += b;
    total_after += a;
    loss.support_l1 += b > a ? b - a : a - b;
    if (b > 0) {
      ++released_before;
      if (a == 0) ++newly_zero;
    }
  }
  for (ItemId x = common; x < before.num_items(); ++x) {
    total_before += before.support(x);
    loss.support_l1 += before.support(x);
  }

  loss.support_distortion =
      total_before == 0 ? 0.0
                        : static_cast<double>(loss.support_l1) /
                              static_cast<double>(total_before);
  loss.suppressed_item_fraction =
      released_before == 0 ? 0.0
                           : static_cast<double>(newly_zero) /
                                 static_cast<double>(released_before);
  loss.suppressed_transaction_fraction =
      before.num_transactions() > after.num_transactions() &&
              before.num_transactions() > 0
          ? 1.0 - static_cast<double>(after.num_transactions()) /
                      static_cast<double>(before.num_transactions())
          : 0.0;
  loss.occurrence_loss =
      total_before > total_after && total_before > 0
          ? static_cast<double>(total_before - total_after) /
                static_cast<double>(total_before)
          : 0.0;

  loss.group_entropy_before = entropy_before;
  loss.group_entropy_after = entropy_after;
  loss.group_entropy_delta =
      std::fabs(loss.group_entropy_before - loss.group_entropy_after);

  const double entropy_ceiling = std::log2(
      static_cast<double>(std::max<size_t>(before.num_items(), 2)));
  loss.total_loss = loss.support_distortion +
                    loss.suppressed_transaction_fraction +
                    loss.group_entropy_delta / entropy_ceiling;
  return loss;
}

json::Value UtilityLoss::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("support_l1", json::Value(uint64_t{support_l1}));
  obj.Set("support_distortion", json::Value(support_distortion));
  obj.Set("group_entropy_before", json::Value(group_entropy_before));
  obj.Set("group_entropy_after", json::Value(group_entropy_after));
  obj.Set("group_entropy_delta", json::Value(group_entropy_delta));
  obj.Set("suppressed_item_fraction", json::Value(suppressed_item_fraction));
  obj.Set("suppressed_transaction_fraction",
          json::Value(suppressed_transaction_fraction));
  obj.Set("occurrence_loss", json::Value(occurrence_loss));
  obj.Set("total_loss", json::Value(total_loss));
  return obj;
}

}  // namespace defense
}  // namespace anonsafe
