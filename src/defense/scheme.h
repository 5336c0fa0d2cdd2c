#ifndef ANONSAFE_DEFENSE_SCHEME_H_
#define ANONSAFE_DEFENSE_SCHEME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "util/json.h"
#include "util/params.h"
#include "util/result.h"
#include "util/rng.h"

namespace anonsafe {
namespace defense {

/// Spelled "defense" in parameter errors.
inline constexpr char kDefenseNoun[] = "defense";

/// \brief Named numeric parameters of one defense candidate (the shared
/// `ParamList`).
using DefenseParams = NamedParams<kDefenseNoun>;

/// \brief The unified plan every defense scheme produces: what the
/// defense will do to the release plus the analysis numbers computed
/// while planning (so downstream consumers never re-derive them).
///
/// Replaces the per-scheme `DefenseReport` / `SuppressionReport` pair:
/// a plan either perturbs supports (`new_supports` non-empty), drops
/// items (`suppressed` non-empty), or both vectors stay empty (identity
/// plan — the release was already safe at the requested parameters).
struct DefensePlan {
  std::string scheme;    ///< producing scheme (registry name)
  DefenseParams params;  ///< the exact parameters that produced it

  /// Per-item target supports; empty when the plan does not perturb.
  std::vector<SupportCount> new_supports;
  /// Items to drop from the release, in suppression order; empty when
  /// the plan does not suppress.
  std::vector<ItemId> suppressed;

  /// \name Planning analysis (group-merge family)
  /// @{
  size_t groups_before = 0;
  size_t groups_after = 0;
  uint64_t l1_distortion = 0;       ///< Σ |new_support - old_support|
  double relative_distortion = 0.0; ///< l1 / Σ old_support
  double merged_gap = 0.0;          ///< gap threshold actually applied
  /// @}

  /// \name Planning analysis (suppression family)
  /// The δ_med interval O-estimates the greedy suppression loop
  /// computes anyway — surfaced here instead of being dropped.
  /// @{
  size_t items_before = 0;
  size_t items_after = 0;
  double oe_before = 0.0;       ///< full-domain interval OE
  double oe_after = 0.0;        ///< residual sub-domain interval OE
  double occurrence_loss = 0.0; ///< fraction of occurrences removed
  /// Residual per-item risk ranking of the surviving sub-domain
  /// (original item ids, descending crack probability) — the final
  /// `SubdomainRisk` analysis, previously computed and discarded.
  std::vector<ItemId> residual_ranked;
  /// @}

  /// Compact summary (no per-item vectors): the document embedded per
  /// frontier candidate. Deterministic member order.
  json::Value ToJson() const;
};

/// \brief The polymorphic defense interface (the sbdprivacylib
/// `Anonymization_scheme` shape): every defense is a named scheme that
/// can enumerate a parameter grid for a given release, plan a defense
/// at one parameter point, and apply a plan to a concrete database.
///
/// Registered implementations: `k_anonymity` (merge groups until the
/// smallest has size k), `group_merge` (merge runs below a gap
/// threshold, or bisect a gap to a tolerance), `suppression` (drop the
/// most exposed items). The optimizer enumerates candidates exclusively
/// through `All()` — it never names a concrete scheme.
class DefenseScheme {
 public:
  virtual ~DefenseScheme() = default;

  /// Registry name ("k_anonymity", "group_merge", "suppression").
  virtual const char* name() const = 0;

  /// \brief The candidate parameter grid for `table`, ordered from the
  /// mildest to the most aggressive defense. Deterministic: depends
  /// only on the frequency profile. May be empty (nothing to defend —
  /// e.g. fewer than two frequency groups).
  virtual std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const = 0;

  /// \brief Plans every point of `ladder` (typically this scheme's
  /// `ParamSpace`), one result per point, in order. Pure planning — no
  /// database is modified. Each point's result is the one planning it
  /// alone gives: InvalidArgument on malformed or unknown parameters
  /// (only that point fails); FailedPrecondition when the requested
  /// safety level is unreachable for this scheme (the optimizer records
  /// such candidates as infeasible instead of failing the sweep). The
  /// points share their work: suppression walks one greedy trajectory
  /// per (cap, batch), and the bisecting schemes evaluate each merge
  /// structure once (docs/DEFENSE.md, "Planning a ladder").
  virtual std::vector<Result<DefensePlan>> PlanLadder(
      const FrequencyTable& table,
      const std::vector<DefenseParams>& ladder) const = 0;

  /// \brief Plans the defense at one parameter point: the one-point
  /// ladder.
  Result<DefensePlan> Plan(const FrequencyTable& table,
                           const DefenseParams& params) const;

  /// \brief Realizes a plan on a concrete database: the realization
  /// walk (`internal::Realize`) with transaction edits, the same walk
  /// the sweep scores from. `rng` drives the choice of transactions to
  /// edit for support-perturbation plans (same seed, same database —
  /// deterministic); suppression plans ignore it. The plan must have
  /// been produced by this scheme.
  Result<Database> Apply(const Database& db, const DefensePlan& plan,
                         Rng* rng) const;

  /// \brief Every registered scheme, in fixed registry order
  /// (k_anonymity, group_merge, suppression). The instances are
  /// process-lifetime singletons.
  static const std::vector<const DefenseScheme*>& All();

  /// \brief Lookup by registry name; nullptr when unknown.
  static const DefenseScheme* Find(const std::string& name);
};

namespace internal {
/// Factories for the built-in schemes, defined next to the legacy
/// entry points they replace (k_anonymity.cc, group_merge.cc,
/// suppression.cc). Called once by the registry.
std::unique_ptr<DefenseScheme> MakeKAnonymityScheme();
std::unique_ptr<DefenseScheme> MakeGroupMergeScheme();
std::unique_ptr<DefenseScheme> MakeSuppressionScheme();

/// The defense parameter `name` (`fallback` when absent) as a count:
/// InvalidArgument naming it unless it is a whole number in [lo, hi].
/// Checked before any cast, since `DefenseParams::FromJson` reads
/// recorded values from outside the program.
Result<size_t> CountParam(const DefenseParams& params, const char* name,
                          double fallback, size_t lo, size_t hi);

/// `BisectMergeGap`'s halvings, the `iters` parameter: 24 by default, at
/// most 64 (far below any 1/m of the gap interval).
Result<size_t> BisectIters(const DefenseParams& params);

/// \brief One table's merge structures (defined in group_merge.cc). A
/// gap threshold merges every run of groups whose consecutive gaps all
/// lie below it, so its plan depends, `merged_gap` aside, only on how
/// many distinct consecutive-frequency gaps lie below it: its
/// structure, in [0, num_structures()).
class MergeStructures {
 public:
  explicit MergeStructures(const FrequencyTable& table);

  const FrequencyGroups& groups() const { return groups_; }
  /// The distinct consecutive-frequency gaps, ascending.
  const std::vector<double>& gaps() const { return gaps_; }
  size_t num_structures() const { return gaps_.size() + 1; }
  size_t StructureOf(double gap) const;
  /// The merge below `gap` (finite, >= 0): every run of groups whose
  /// consecutive gaps are all below it collapses onto the run's
  /// size-weighted median support.
  DefensePlan PlanAt(double gap) const;
  /// The threshold that merges every run.
  double FullMergeGap() const;

 private:
  FrequencyGroups groups_;
  std::vector<double> gaps_;
};

/// Bisects the gap threshold between no merge and a full merge for the
/// mildest merge plan that `passes`: the unmerged plan when it already
/// passes, otherwise the smallest threshold found in `iters` halvings.
/// When even the full merge fails, returns `unreachable(full_plan)`.
/// `passes(structure, plan)` is asked once per structure, with a plan of
/// that structure; the returned plan is built once, at its final gap.
/// Shared by the group-merge tolerance search and the k-anonymity
/// scheme, so both merge bit-consistently.
Result<DefensePlan> BisectMergeGap(
    const MergeStructures& merges, size_t iters,
    const std::function<Result<bool>(size_t, const DefensePlan&)>& passes,
    const std::function<Status(const DefensePlan&)>& unreachable);

/// \brief Who holds what in one database, built once and shared
/// read-only: every item's holder transactions (ascending), every
/// transaction's size and its largest item. Realizing a plan edits items
/// in id order, and editing item y touches only y's occurrences, so item
/// x's holders in the partly edited database are still its list here.
/// The holder lists are slices of one flat array of 32-bit transaction
/// ids.
class HolderIndex {
 public:
  explicit HolderIndex(const Database& db);

  size_t num_items() const { return starts_.size() - 1; }
  size_t num_transactions() const { return sizes_.size(); }
  std::span<const uint32_t> holders(ItemId x) const {
    return {holders_.data() + starts_[x], holders_.data() + starts_[x + 1]};
  }
  const std::vector<size_t>& sizes() const { return sizes_; }
  /// Transaction t's largest item; 0 for an empty transaction.
  ItemId largest(size_t t) const { return largest_[t]; }

 private:
  /// Item x's holders are holders_[starts_[x], starts_[x + 1]).
  std::vector<size_t> starts_;
  std::vector<uint32_t> holders_;  ///< every item's holders, item-major
  std::vector<size_t> sizes_;
  std::vector<ItemId> largest_;
};

/// \brief What realizing a plan leaves: every item's support, and the
/// number of transactions still in the release.
struct Realized {
  std::vector<SupportCount> supports;
  size_t num_transactions = 0;

  /// The after-table. A release with no transaction left fails exactly
  /// as counting an empty database does.
  Result<FrequencyTable> Table() const;
};

/// \brief The realization walk. A support plan (`new_supports`
/// non-empty) moves each item, in id order, from its support to its
/// target: gains go to uniformly shuffled non-holders, losses come off
/// shuffled holders but never off a transaction of size 1, so m stays.
/// Any other plan drops its `suppressed` items from every holder, and
/// transactions left empty leave the release. Sizes are tracked, so no
/// database is needed; when `txns` (a copy of the indexed database's
/// transactions) is given, every edit is also made there. Fails with
/// InvalidArgument on a malformed or unrealizable plan.
///
/// Without `txns`, a support plan that no draw can fail
/// (`NoDrawCanFail`) is not walked: the walk's result is then its
/// targets over m, and `rng` draws nothing. Each support plan bumps
/// `anonsafe_defense_walks_total{path="walked"|"skipped"}`.
Result<Realized> Realize(const HolderIndex& index, const DefensePlan& plan,
                         Rng* rng, std::vector<Transaction>* txns = nullptr);

/// \brief Whether every draw of the walk realizes `targets` (a support
/// plan of the indexed database's size, each at most m). A holder of a
/// losing item x is down to size 1 at x's turn only if x is its largest
/// item and every other item it holds loses support too; when each
/// losing item keeps at least its loss in holders outside that set, no
/// loss can empty a transaction. One pass over the occurrences of the
/// losing items, or of the others when they hold fewer: a transaction
/// is exposed when every item it holds loses.
bool NoDrawCanFail(const HolderIndex& index,
                   const std::vector<SupportCount>& targets);

/// \brief `Realize` with transaction edits on a copy of `db`: the
/// defended database, emptied transactions dropped.
Result<Database> ApplyPlan(const Database& db, const DefensePlan& plan,
                           Rng* rng);
}  // namespace internal

}  // namespace defense
}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_SCHEME_H_
