#ifndef ANONSAFE_DEFENSE_SUPPRESSION_H_
#define ANONSAFE_DEFENSE_SUPPRESSION_H_

#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "util/result.h"

namespace anonsafe {

/// Item-suppression defense.
///
/// The second defense lever (complementing the "group_merge" scheme):
/// instead of perturbing frequencies, remove the most exposed items from
/// the release entirely — the classic cell-suppression idea of the
/// statistical disclosure-control literature the paper cites ([17],
/// [11], [9]). Items whose per-item crack probability is highest
/// (frequency-unique items) are dropped greedily until the δ_med
/// interval O-estimate over the remaining items fits the tolerance.
///
/// Planning lives in the "suppression" scheme of the
/// `defense::DefenseScheme` registry (defense/scheme.h): Plan with
/// {tolerance, max_suppressed_fraction, rerank_batch}. This header keeps
/// only the database-level applicator of a bare item list.

/// \brief Applies a suppression plan to a database: removes the items
/// from every transaction and drops transactions that become empty. The
/// domain keeps its size (suppressed items simply have support 0), so
/// item ids remain stable. Runs the realization walk
/// (`defense::internal::Realize`) with transaction edits; dropping every
/// transaction yields an empty database, not an error.
Result<Database> ApplySuppression(const Database& db,
                                  const std::vector<ItemId>& suppressed);

}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_SUPPRESSION_H_
