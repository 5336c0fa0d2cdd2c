#include "data/frequency.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace anonsafe {

Result<FrequencyTable> FrequencyTable::Compute(const Database& db) {
  if (db.num_transactions() == 0) {
    return Status::InvalidArgument(
        "cannot compute frequencies of an empty database");
  }
  obs::CountIf("anonsafe_frequency_counts_total");
  std::vector<SupportCount> supports(db.num_items(), 0);
  for (const Transaction& t : db.transactions()) {
    for (ItemId x : t) supports[x] += 1;
  }
  return FrequencyTable(std::move(supports), db.num_transactions());
}

Result<FrequencyTable> FrequencyTable::FromSupports(
    std::vector<SupportCount> supports, size_t num_transactions) {
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be positive");
  }
  for (SupportCount s : supports) {
    if (s > num_transactions) {
      return Status::InvalidArgument(
          "support exceeds number of transactions");
    }
  }
  return FrequencyTable(std::move(supports), num_transactions);
}

FrequencyGroups FrequencyGroups::Build(const FrequencyTable& table) {
  return FromSupports(table.supports(), table.num_transactions());
}

FrequencyGroups FrequencyGroups::FromSupports(
    const std::vector<SupportCount>& supports, size_t num_transactions) {
  assert(num_transactions > 0);
  obs::CountIf("anonsafe_group_builds_total");
  const size_t n = supports.size();

  // Sort item ids by (support, id); equal supports become one group.
  std::vector<ItemId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<ItemId>(i);
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (supports[a] != supports[b]) return supports[a] < supports[b];
    return a < b;
  });

  FrequencyGroups fg;
  fg.num_transactions_ = num_transactions;
  fg.group_of_item_.assign(n, 0);
  size_t i = 0;
  while (i < n) {
    SupportCount s = supports[order[i]];
    std::vector<ItemId> members;
    while (i < n && supports[order[i]] == s) {
      members.push_back(order[i]);
      ++i;
    }
    size_t g = fg.group_supports_.size();
    for (ItemId x : members) fg.group_of_item_[x] = g;
    fg.group_supports_.push_back(s);
    fg.items_by_group_.push_back(std::move(members));
  }

  fg.size_prefix_.assign(fg.num_groups() + 1, 0);
  for (size_t g = 0; g < fg.num_groups(); ++g) {
    fg.size_prefix_[g + 1] = fg.size_prefix_[g] + fg.items_by_group_[g].size();
  }
  // Precompute the sorted frequency axis: every stab query binary-searches
  // this array instead of re-dividing support/m per comparison.
  fg.group_freqs_.resize(fg.num_groups());
  for (size_t g = 0; g < fg.num_groups(); ++g) {
    fg.group_freqs_[g] = static_cast<double>(fg.group_supports_[g]) /
                         static_cast<double>(num_transactions);
  }
  return fg;
}

size_t FrequencyGroups::num_singleton_groups() const {
  size_t count = 0;
  for (const auto& members : items_by_group_) {
    if (members.size() == 1) ++count;
  }
  return count;
}

std::vector<double> FrequencyGroups::FrequencyGaps() const {
  std::vector<double> gaps;
  if (num_groups() < 2) return gaps;
  gaps.reserve(num_groups() - 1);
  for (size_t g = 1; g < num_groups(); ++g) {
    gaps.push_back(group_frequency(g) - group_frequency(g - 1));
  }
  return gaps;
}

double FrequencyGroups::MedianGap() const { return Median(FrequencyGaps()); }

Summary FrequencyGroups::GapSummary() const {
  return Summarize(FrequencyGaps());
}

size_t FrequencyGroups::RangeItemCount(size_t lo, size_t hi) const {
  assert(lo <= hi && hi < num_groups());
  return size_prefix_[hi + 1] - size_prefix_[lo];
}

bool FrequencyGroups::StabRange(double l, double r, size_t* lo,
                                size_t* hi) const {
  if (l > r || num_groups() == 0) return false;
  // Group frequencies are strictly ascending; binary search both ends of
  // the precomputed axis.
  auto begin = group_freqs_.begin(), end = group_freqs_.end();
  // first = first group with frequency >= l.
  size_t first =
      static_cast<size_t>(std::lower_bound(begin, end, l) - begin);
  // last = last group with frequency <= r.
  size_t past =
      static_cast<size_t>(std::upper_bound(begin, end, r) - begin);
  if (past == 0) return false;  // all group frequencies exceed r
  size_t last = past - 1;
  if (first > last) return false;  // interval falls between two groups
  *lo = first;
  *hi = last;
  return true;
}

size_t FrequencyGroups::FindGroupBySupport(SupportCount support) const {
  auto it = std::lower_bound(group_supports_.begin(), group_supports_.end(),
                             support);
  if (it == group_supports_.end() || *it != support) return num_groups();
  return static_cast<size_t>(it - group_supports_.begin());
}

Result<CountedDatabase> CountedDatabase::Count(Database db) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table, FrequencyTable::Compute(db));
  return CountedDatabase(std::move(db), std::move(table));
}

}  // namespace anonsafe
