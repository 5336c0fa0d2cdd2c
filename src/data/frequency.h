#ifndef ANONSAFE_DATA_FREQUENCY_H_
#define ANONSAFE_DATA_FREQUENCY_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/types.h"
#include "util/result.h"
#include "util/stats.h"

namespace anonsafe {

/// \brief Per-item support counts of a database (one pass over D).
///
/// Supports are exact integers; frequencies (support / m) are derived on
/// demand. All downstream grouping is keyed on integer supports so that
/// "equal frequency" is never a floating-point comparison.
class FrequencyTable {
 public:
  /// Counts supports with a single database pass (O(|D|)).
  /// Fails with InvalidArgument on an empty database (m = 0), since
  /// frequencies would be undefined.
  static Result<FrequencyTable> Compute(const Database& db);

  size_t num_items() const { return supports_.size(); }
  size_t num_transactions() const { return num_transactions_; }

  /// \brief Support count of `item` (number of transactions containing it).
  SupportCount support(ItemId item) const { return supports_[item]; }

  /// \brief Relative frequency of `item` in [0, 1].
  double frequency(ItemId item) const {
    return static_cast<double>(supports_[item]) /
           static_cast<double>(num_transactions_);
  }

  const std::vector<SupportCount>& supports() const { return supports_; }

  /// \brief Constructs a table directly from supports (used by generators
  /// and tests that do not need a materialized database).
  static Result<FrequencyTable> FromSupports(
      std::vector<SupportCount> supports, size_t num_transactions);

 private:
  FrequencyTable(std::vector<SupportCount> supports, size_t num_transactions)
      : supports_(std::move(supports)), num_transactions_(num_transactions) {}

  std::vector<SupportCount> supports_;
  size_t num_transactions_;
};

/// \brief Result of stabbing one belief interval against the sorted
/// group-frequency axis: the contiguous group range `[lo, hi]` whose
/// frequencies fall inside the interval, or `has == false` when the
/// interval stabs no group. Precomputable and reusable — the recipe's
/// α bisection caches one per (item, interval) and replays it across
/// probes instead of re-searching (see AlphaCompliancySweep).
struct ItemStabRange {
  bool has = false;  ///< interval stabs at least one group
  size_t lo = 0;
  size_t hi = 0;

  bool operator==(const ItemStabRange& o) const {
    return has == o.has && (!has || (lo == o.lo && hi == o.hi));
  }
};

/// \brief Items partitioned into *frequency groups* (equal support),
/// sorted by ascending support.
///
/// This is the structure behind every analysis in the paper:
///  - the number of groups `g` is the expected crack count under the
///    compliant point-valued belief function (Lemma 3);
///  - the gaps between successive group frequencies drive the recipe's
///    interval width δ_med (Fig. 8 step 3);
///  - a belief interval [l, r] selects a *contiguous* range of groups,
///    which is what makes O-estimates computable in O(n log n) via the
///    prefix sums stored here (Fig. 5 step 4).
class FrequencyGroups {
 public:
  /// Builds groups from a frequency table (O(n log n)).
  static FrequencyGroups Build(const FrequencyTable& table);

  /// Builds groups from raw supports.
  static FrequencyGroups FromSupports(
      const std::vector<SupportCount>& supports, size_t num_transactions);

  size_t num_items() const { return group_of_item_.size(); }
  size_t num_transactions() const { return num_transactions_; }
  size_t num_groups() const { return group_supports_.size(); }

  /// \brief Support shared by all items of group `g`.
  SupportCount group_support(size_t g) const { return group_supports_[g]; }

  /// \brief Frequency shared by all items of group `g` (precomputed).
  double group_frequency(size_t g) const { return group_freqs_[g]; }

  /// \brief The sorted group-frequency boundary array (ascending).
  /// Computed once at build; every stab query binary-searches it.
  const std::vector<double>& group_frequencies() const {
    return group_freqs_;
  }

  /// \brief Items belonging to group `g`, ascending by id.
  const std::vector<ItemId>& group_items(size_t g) const {
    return items_by_group_[g];
  }

  size_t group_size(size_t g) const { return items_by_group_[g].size(); }

  /// \brief Index of the group containing `item`.
  size_t group_of_item(ItemId item) const { return group_of_item_[item]; }

  /// \brief Number of groups containing exactly one item. A high singleton
  /// ratio means the point-valued worst case cracks almost everything.
  size_t num_singleton_groups() const;

  /// \brief Gaps between successive group frequencies (size num_groups()-1).
  std::vector<double> FrequencyGaps() const;

  /// \brief Median of `FrequencyGaps()`; 0 when there are < 2 groups.
  /// This is the recipe's interval half-width δ_med.
  double MedianGap() const;

  /// \brief Mean/median/min/max of the gaps (Figure 9, second table).
  Summary GapSummary() const;

  /// \brief Total number of items in groups `lo..hi` inclusive (prefix sums,
  /// O(1)). Requires `lo <= hi < num_groups()`.
  size_t RangeItemCount(size_t lo, size_t hi) const;

  /// \brief Finds the contiguous group range whose frequencies lie in
  /// `[l, r]` (inclusive). Returns false if no group frequency is inside.
  ///
  /// This is interval "stabbing" on the sorted group-frequency axis: the
  /// candidate anonymized items for a belief interval are exactly the items
  /// of the returned group range.
  bool StabRange(double l, double r, size_t* lo, size_t* hi) const;

  /// \brief `StabRange` in value form, convenient for caching.
  ItemStabRange Stab(double l, double r) const {
    ItemStabRange out;
    out.has = StabRange(l, r, &out.lo, &out.hi);
    return out;
  }

  /// \brief Group whose frequency equals `support/m` for the given support,
  /// or `num_groups()` when no group has that support (binary search).
  size_t FindGroupBySupport(SupportCount support) const;

 private:
  std::vector<SupportCount> group_supports_;       // ascending, distinct
  std::vector<double> group_freqs_;                // ascending, precomputed
  std::vector<std::vector<ItemId>> items_by_group_;
  std::vector<size_t> group_of_item_;              // item -> group index
  std::vector<size_t> size_prefix_;                // size_prefix_[g+1] = sum sizes 0..g
  size_t num_transactions_ = 0;
};

/// \brief The one owner of a database's counts: the database, its
/// frequency table and its frequency groups. `Count` is the only way to
/// build one, and it counts the database once, so the three always agree.
class CountedDatabase {
 public:
  /// Counts `db` (move it in to avoid a copy) and groups its supports.
  /// Fails like `FrequencyTable::Compute` on an empty database.
  static Result<CountedDatabase> Count(Database db);

  const Database& database() const { return database_; }
  const FrequencyTable& table() const { return table_; }
  const FrequencyGroups& groups() const { return groups_; }

 private:
  CountedDatabase(Database database, FrequencyTable table)
      : database_(std::move(database)),
        table_(std::move(table)),
        groups_(FrequencyGroups::Build(table_)) {}

  Database database_;
  FrequencyTable table_;
  FrequencyGroups groups_;
};

}  // namespace anonsafe

#endif  // ANONSAFE_DATA_FREQUENCY_H_
