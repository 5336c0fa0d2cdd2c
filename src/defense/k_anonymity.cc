#include "defense/k_anonymity.h"

#include <algorithm>
#include <string>
#include <utility>

#include "defense/scheme.h"

namespace anonsafe {
namespace {

/// The cheapest group merge whose perturbed profile is at least
/// k-anonymous.
Result<defense::DefensePlan> PlanKAnonymityMerge(const FrequencyTable& table,
                                                 size_t k, size_t iters) {
  const size_t n = table.num_items();
  if (k < 1 || k > n) {
    return Status::InvalidArgument(
        "k must lie in [1, n]; got k=" + std::to_string(k) + " for n=" +
        std::to_string(n));
  }

  auto anonymity_of = [&](const defense::DefensePlan& plan) {
    return FrequencyKAnonymity(FrequencyGroups::FromSupports(
        plan.new_supports, table.num_transactions()));
  };
  return defense::internal::BisectMergeGap(
      table, iters,
      [&](const defense::DefensePlan& plan) -> Result<bool> {
        return anonymity_of(plan) >= k;
      },
      [&](const defense::DefensePlan& full) -> Status {
        return Status::FailedPrecondition(
            "even a full merge yields only " +
            std::to_string(anonymity_of(full)) + "-anonymity");
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

  Result<DefensePlan> Plan(const FrequencyTable& table,
                           const DefenseParams& params) const override {
    ANONSAFE_RETURN_IF_ERROR(CheckAllowedParams(params, {"k", "iters"},
                                                "defense scheme", name()));
    ANONSAFE_ASSIGN_OR_RETURN(double k, params.Get("k"));
    Result<DefensePlan> plan = PlanKAnonymityMerge(
        table, static_cast<size_t>(k),
        static_cast<size_t>(params.GetOr("iters", 24.0)));
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
