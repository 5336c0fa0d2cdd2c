#ifndef ANONSAFE_MINING_MINER_H_
#define ANONSAFE_MINING_MINER_H_

#include <vector>

#include "data/database.h"
#include "mining/itemset.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Shared options of the frequent-itemset miners.
struct MiningOptions {
  /// Minimum relative support in (0, 1]; an itemset is frequent when its
  /// support count is >= ceil(min_support * m).
  double min_support = 0.1;

  /// Upper bound on itemset size; 0 means unlimited.
  size_t max_itemset_size = 0;

  /// \brief Absolute support threshold implied by `min_support` for a
  /// database of `m` transactions (at least 1).
  SupportCount AbsoluteThreshold(size_t num_transactions) const;
};

/// \brief Validates options against a database (non-empty, support range).
Status ValidateMiningInputs(const Database& db, const MiningOptions& options);

/// \brief Classic level-wise Apriori (Agrawal–Srikant 1994 as cited by the
/// paper's [6]): L1 from one counting pass, then candidate generation by
/// prefix join + subset pruning and one counting pass per level.
///
/// Results are in canonical order. Intended for moderate candidate counts;
/// FP-Growth below is the scalable path.
Result<std::vector<FrequentItemset>> MineApriori(const Database& db,
                                                 const MiningOptions& options);

/// \brief FP-Growth (Han et al.): builds a compressed prefix tree of the
/// frequency-sorted transactions and mines it recursively via conditional
/// trees, with the single-path shortcut. Returns the same set as Apriori,
/// in canonical order.
Result<std::vector<FrequentItemset>> MineFPGrowth(
    const Database& db, const MiningOptions& options);

/// \brief Convenience: the frequent *items* (1-itemsets) of a database —
/// the "items of interest" in the paper's Lemma 2/4 analyses.
Result<std::vector<ItemId>> FrequentItems(const Database& db,
                                          double min_support);

}  // namespace anonsafe

#endif  // ANONSAFE_MINING_MINER_H_
