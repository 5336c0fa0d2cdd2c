#include "defense/k_anonymity.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "defense/scheme.h"

namespace anonsafe {
namespace {

/// The cheapest group merge whose perturbed profile is at least
/// k-anonymous. `anonymity[s]` is the k-anonymity of merge structure s
/// (0 while unknown), shared by every rung of a ladder.
Result<defense::DefensePlan> PlanKAnonymityMerge(
    const defense::internal::MergeStructures& merges, double k_param,
    size_t iters, std::vector<size_t>* anonymity) {
  const size_t n = merges.groups().num_items();
  if (k_param != std::floor(k_param)) {
    return Status::InvalidArgument("k must be a whole number; got k=" +
                                   json::NumberToString(k_param));
  }
  if (!(k_param >= 1.0 && k_param <= static_cast<double>(n))) {
    return Status::InvalidArgument(
        "k must lie in [1, n]; got k=" + json::NumberToString(k_param) +
        " for n=" + std::to_string(n));
  }
  const auto k = static_cast<size_t>(k_param);

  auto anonymity_of = [&](size_t structure,
                          const defense::DefensePlan& plan) {
    size_t& known = (*anonymity)[structure];
    if (known == 0) {
      known = FrequencyKAnonymity(FrequencyGroups::FromSupports(
          plan.new_supports, merges.groups().num_transactions()));
    }
    return known;
  };
  return defense::internal::BisectMergeGap(
      merges, iters,
      [&](size_t structure,
          const defense::DefensePlan& plan) -> Result<bool> {
        return anonymity_of(structure, plan) >= k;
      },
      [&](const defense::DefensePlan& full) -> Status {
        return Status::FailedPrecondition(
            "even a full merge yields only " +
            std::to_string(anonymity_of(merges.num_structures() - 1, full)) +
            "-anonymity");
      });
}

}  // namespace

size_t FrequencyKAnonymity(const FrequencyGroups& groups) {
  if (groups.num_groups() == 0) return 0;
  size_t min_size = groups.group_size(0);
  for (size_t g = 1; g < groups.num_groups(); ++g) {
    min_size = std::min(min_size, groups.group_size(g));
  }
  return min_size;
}

double KAnonymityCrackBound(size_t num_items, size_t k) {
  if (k == 0) return static_cast<double>(num_items);
  return static_cast<double>(num_items) / static_cast<double>(k);
}

namespace defense {
namespace {

class KAnonymityScheme final : public DefenseScheme {
 public:
  const char* name() const override { return "k_anonymity"; }

  /// The classic k ladder, filtered to k <= n and capped at 8 rungs
  /// (evenly subsampled) for large domains.
  std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const override {
    static constexpr size_t kLadder[] = {2,  3,  4,  6,  8, 12,
                                         16, 24, 32, 48, 64};
    std::vector<size_t> ks;
    for (size_t k : kLadder) {
      if (k <= table.num_items()) ks.push_back(k);
    }
    constexpr size_t kMaxRungs = 8;
    std::vector<DefenseParams> space;
    const size_t n = ks.size();
    for (size_t i = 0; i < std::min(n, kMaxRungs); ++i) {
      DefenseParams params;
      params.Set("k", static_cast<double>(
                          ks[n <= kMaxRungs ? i : i * n / kMaxRungs]));
      space.push_back(std::move(params));
    }
    return space;
  }

  /// Groups the table once for the whole ladder, and measures each
  /// merge structure's k-anonymity once for all rungs.
  std::vector<Result<DefensePlan>> PlanLadder(
      const FrequencyTable& table,
      const std::vector<DefenseParams>& ladder) const override {
    const internal::MergeStructures merges(table);
    std::vector<size_t> anonymity(merges.num_structures(), 0);
    std::vector<Result<DefensePlan>> plans;
    plans.reserve(ladder.size());
    for (const DefenseParams& params : ladder) {
      plans.push_back(PlanPoint(merges, params, &anonymity));
    }
    return plans;
  }

 private:
  Result<DefensePlan> PlanPoint(const internal::MergeStructures& merges,
                                const DefenseParams& params,
                                std::vector<size_t>* anonymity) const {
    ANONSAFE_RETURN_IF_ERROR(CheckAllowedParams(params, {"k", "iters"},
                                                "defense scheme", name()));
    ANONSAFE_ASSIGN_OR_RETURN(double k, params.Get("k"));
    ANONSAFE_ASSIGN_OR_RETURN(size_t iters, internal::BisectIters(params));
    Result<DefensePlan> plan =
        PlanKAnonymityMerge(merges, k, iters, anonymity);
    if (!plan.ok()) return plan.status();
    plan->scheme = name();
    plan->params = params;
    return plan;
  }
};

}  // namespace

namespace internal {

std::unique_ptr<DefenseScheme> MakeKAnonymityScheme() {
  return std::make_unique<KAnonymityScheme>();
}

}  // namespace internal
}  // namespace defense
}  // namespace anonsafe
