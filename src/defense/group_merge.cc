#include "defense/group_merge.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "defense/scheme.h"

namespace anonsafe {
namespace {

/// Size-weighted median support of groups [first, last] — the single
/// support minimizing Σ size·|support - s| over the run.
SupportCount WeightedMedianSupport(const FrequencyGroups& groups,
                                   size_t first, size_t last) {
  size_t total = 0;
  for (size_t g = first; g <= last; ++g) total += groups.group_size(g);
  size_t half = (total + 1) / 2;
  size_t seen = 0;
  for (size_t g = first; g <= last; ++g) {
    seen += groups.group_size(g);
    if (seen >= half) return groups.group_support(g);
  }
  return groups.group_support(last);
}

/// The merge core: every run of groups whose consecutive gaps are all
/// below `min_gap` (finite, >= 0) collapses onto the run's weighted
/// median support.
defense::DefensePlan MergeBelowGapPlan(const FrequencyGroups& groups,
                                       double min_gap) {
  defense::DefensePlan plan;
  plan.groups_before = groups.num_groups();
  plan.merged_gap = min_gap;
  plan.items_before = groups.num_items();
  plan.items_after = groups.num_items();
  plan.new_supports.resize(groups.num_items());

  uint64_t total_support = 0;
  size_t run_start = 0;
  size_t groups_after = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    // Gaps are compared in frequency units; min_gap == 0 never merges.
    bool run_ends =
        g + 1 == groups.num_groups() ||
        groups.group_frequency(g + 1) - groups.group_frequency(g) >= min_gap;
    if (!run_ends) continue;
    SupportCount merged = WeightedMedianSupport(groups, run_start, g);
    for (size_t h = run_start; h <= g; ++h) {
      for (ItemId x : groups.group_items(h)) {
        plan.new_supports[x] = merged;
        uint64_t old_support = groups.group_support(h);
        total_support += old_support;
        plan.l1_distortion += old_support > merged ? old_support - merged
                                                   : merged - old_support;
      }
    }
    ++groups_after;
    run_start = g + 1;
  }
  plan.groups_after = groups_after;
  plan.relative_distortion =
      total_support == 0
          ? 0.0
          : static_cast<double>(plan.l1_distortion) /
                static_cast<double>(total_support);
  return plan;
}

/// The tolerance core: the smallest-distortion merge whose perturbed
/// profile passes the chosen safety criterion at tolerance τ.
Result<defense::DefensePlan> ToleranceSearchPlan(
    const defense::internal::MergeStructures& merges, double tolerance,
    bool point_valued, size_t iters) {
  if (!(tolerance > 0.0) || tolerance > 1.0) {
    return Status::InvalidArgument("tolerance must lie in (0, 1]");
  }
  const double budget =
      tolerance * static_cast<double>(merges.groups().num_items());
  if (budget < 1.0) {
    return Status::FailedPrecondition(
        "tolerance budget below one crack; even a single frequency group "
        "leaks one expected crack (Lemma 1)");
  }

  auto passes = [&](size_t,
                    const defense::DefensePlan& plan) -> Result<bool> {
    const FrequencyGroups groups = FrequencyGroups::FromSupports(
        plan.new_supports, merges.groups().num_transactions());
    if (point_valued) {
      return static_cast<double>(groups.num_groups()) <= budget;
    }
    // Recipe step-7 criterion: interval O-estimate at the *new* delta_med.
    // Computed structurally: candidate count of every item via stabbing.
    double delta = groups.MedianGap();
    double oe = 0.0;
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      double f = groups.group_frequency(g);
      size_t lo = 0, hi = 0;
      if (!groups.StabRange(std::max(0.0, f - delta),
                            std::min(1.0, f + delta), &lo, &hi)) {
        continue;
      }
      oe += static_cast<double>(groups.group_size(g)) /
            static_cast<double>(groups.RangeItemCount(lo, hi));
    }
    return oe <= budget;
  };
  return defense::internal::BisectMergeGap(
      merges, iters, passes, [](const defense::DefensePlan&) {
        return Status::FailedPrecondition(
            "even a full merge cannot reach the tolerance");
      });
}

}  // namespace

Result<Database> ApplySupportChanges(
    const Database& db, const std::vector<SupportCount>& new_supports,
    Rng* rng) {
  // Checked here too: an empty vector would read as a plan that drops
  // nothing.
  if (new_supports.size() != db.num_items()) {
    return Status::InvalidArgument("support vector size mismatch");
  }
  defense::DefensePlan plan;
  plan.new_supports = new_supports;
  return defense::internal::ApplyPlan(db, plan, rng);
}

namespace defense {
namespace {

class GroupMergeScheme final : public DefenseScheme {
 public:
  const char* name() const override { return "group_merge"; }

  /// One gap threshold per distinct inter-group gap: the midpoint above
  /// gap i merges exactly the runs whose gaps are <= it, and the final
  /// threshold (the bisection's `hi`) merges everything. Capped at 8
  /// evenly spaced thresholds for large profiles.
  std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const override {
    const internal::MergeStructures merges(table);
    std::vector<DefenseParams> space;
    if (merges.groups().num_groups() < 2) return space;
    const std::vector<double>& gaps = merges.gaps();
    std::vector<double> thresholds;
    for (size_t i = 0; i + 1 < gaps.size(); ++i) {
      thresholds.push_back((gaps[i] + gaps[i + 1]) / 2.0);
    }
    thresholds.push_back(merges.FullMergeGap());
    constexpr size_t kMaxThresholds = 8;
    const size_t n = thresholds.size();
    if (n <= kMaxThresholds) {
      for (double t : thresholds) {
        DefenseParams params;
        params.Set("gap", t);
        space.push_back(std::move(params));
      }
      return space;
    }
    for (size_t i = 0; i < kMaxThresholds; ++i) {
      DefenseParams params;
      params.Set("gap", thresholds[i * n / kMaxThresholds]);
      space.push_back(std::move(params));
    }
    return space;
  }

  /// Groups the table once for the whole ladder; each tolerance point
  /// bisects over the shared merge structures.
  std::vector<Result<DefensePlan>> PlanLadder(
      const FrequencyTable& table,
      const std::vector<DefenseParams>& ladder) const override {
    const internal::MergeStructures merges(table);
    std::vector<Result<DefensePlan>> plans;
    plans.reserve(ladder.size());
    for (const DefenseParams& params : ladder) {
      plans.push_back(PlanPoint(merges, params));
    }
    return plans;
  }

 private:
  Result<DefensePlan> PlanPoint(const internal::MergeStructures& merges,
                                const DefenseParams& params) const {
    ANONSAFE_RETURN_IF_ERROR(CheckAllowedParams(
        params, {"gap", "tolerance", "point_valued", "iters"},
        "defense scheme", name()));
    const double* gap = params.Find("gap");
    const double* tolerance = params.Find("tolerance");
    if ((gap != nullptr) == (tolerance != nullptr)) {
      return Status::InvalidArgument(
          "group_merge takes exactly one of 'gap' or 'tolerance'");
    }
    if (gap != nullptr && !(std::isfinite(*gap) && *gap >= 0.0)) {
      return Status::InvalidArgument("gap must be finite and >= 0; got " +
                                     json::NumberToString(*gap));
    }
    ANONSAFE_ASSIGN_OR_RETURN(size_t iters, internal::BisectIters(params));
    Result<DefensePlan> plan =
        gap != nullptr
            ? merges.PlanAt(*gap)
            : ToleranceSearchPlan(merges, *tolerance,
                                  params.GetOr("point_valued", 0.0) != 0.0,
                                  iters);
    if (!plan.ok()) return plan.status();
    plan->scheme = name();
    plan->params = params;
    return plan;
  }
};

}  // namespace

namespace internal {

std::unique_ptr<DefenseScheme> MakeGroupMergeScheme() {
  return std::make_unique<GroupMergeScheme>();
}

MergeStructures::MergeStructures(const FrequencyTable& table)
    : groups_(FrequencyGroups::Build(table)),
      gaps_(groups_.FrequencyGaps()) {
  std::sort(gaps_.begin(), gaps_.end());
  gaps_.erase(std::unique(gaps_.begin(), gaps_.end()), gaps_.end());
}

size_t MergeStructures::StructureOf(double gap) const {
  return static_cast<size_t>(
      std::lower_bound(gaps_.begin(), gaps_.end(), gap) - gaps_.begin());
}

DefensePlan MergeStructures::PlanAt(double gap) const {
  return MergeBelowGapPlan(groups_, gap);
}

// Above twice the widest gap (plus two supports' worth of slack), so no
// gap stays at or above it.
double MergeStructures::FullMergeGap() const {
  return groups_.GapSummary().max * 2.0 +
         2.0 / static_cast<double>(groups_.num_transactions());
}

Result<DefensePlan> BisectMergeGap(
    const MergeStructures& merges, size_t iters,
    const std::function<Result<bool>(size_t, const DefensePlan&)>& passes,
    const std::function<Status(const DefensePlan&)>& unreachable) {
  // verdicts[s]: 1 passes, 0 fails, -1 not asked yet. Asking a new
  // structure leaves its plan in `plan`.
  std::vector<signed char> verdicts(merges.num_structures(), -1);
  DefensePlan plan;
  auto passes_at = [&](double gap) -> Result<bool> {
    const size_t structure = merges.StructureOf(gap);
    if (verdicts[structure] < 0) {
      plan = merges.PlanAt(gap);
      ANONSAFE_ASSIGN_OR_RETURN(bool ok, passes(structure, plan));
      verdicts[structure] = ok ? 1 : 0;
    }
    return verdicts[structure] == 1;
  };
  ANONSAFE_ASSIGN_OR_RETURN(bool lo_passes, passes_at(0.0));
  if (lo_passes) return plan;  // already safe, no perturbation

  double lo = 0.0;
  double hi = merges.FullMergeGap();
  ANONSAFE_ASSIGN_OR_RETURN(bool hi_passes, passes_at(hi));
  if (!hi_passes) return unreachable(merges.PlanAt(hi));
  for (size_t iter = 0; iter < iters; ++iter) {
    double mid = (lo + hi) / 2.0;
    ANONSAFE_ASSIGN_OR_RETURN(bool ok, passes_at(mid));
    (ok ? hi : lo) = mid;
  }
  return merges.PlanAt(hi);
}

}  // namespace internal
}  // namespace defense
}  // namespace anonsafe
