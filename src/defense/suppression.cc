#include "defense/suppression.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "belief/builders.h"
#include "core/per_item_risk.h"
#include "defense/scheme.h"

namespace anonsafe {
namespace {

/// The δ_med interval O-estimate over a sub-domain, with the per-item
/// ranking mapped back to original item ids.
struct SubdomainRisk {
  double oe = 0.0;
  std::vector<ItemId> ranked_original_ids;  // descending risk
};

Result<SubdomainRisk> AnalyzeSubdomain(const FrequencyTable& table,
                                       const std::vector<bool>& alive) {
  std::vector<ItemId> original_of_dense;
  std::vector<SupportCount> supports;
  for (ItemId x = 0; x < table.num_items(); ++x) {
    if (alive[x]) {
      original_of_dense.push_back(x);
      supports.push_back(table.support(x));
    }
  }
  if (original_of_dense.empty()) {
    return SubdomainRisk{};  // nothing left to leak
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      FrequencyTable sub,
      FrequencyTable::FromSupports(supports, table.num_transactions()));
  FrequencyGroups groups = FrequencyGroups::Build(sub);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(sub, groups.MedianGap()));
  ANONSAFE_ASSIGN_OR_RETURN(PerItemRiskReport risk,
                            ComputePerItemRisk(groups, belief));
  SubdomainRisk out;
  out.oe = risk.total_expected_cracks;
  out.ranked_original_ids.reserve(risk.ranked.size());
  for (const ItemRisk& r : risk.ranked) {
    out.ranked_original_ids.push_back(original_of_dense[r.item]);
  }
  return out;
}

/// The greedy suppression core. The final `AnalyzeSubdomain` pass is
/// kept in the plan (`oe_after`, `residual_ranked`) instead of being
/// computed and dropped — the optimizer reads it rather than re-derive.
Result<defense::DefensePlan> PlanSuppressionCore(const FrequencyTable& table,
                                                 double tolerance,
                                                 double max_fraction,
                                                 size_t rerank_batch) {
  if (!(tolerance > 0.0) || tolerance > 1.0) {
    return Status::InvalidArgument("tolerance must lie in (0, 1]");
  }
  if (!(max_fraction >= 0.0 && max_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "max_suppressed_fraction must lie in [0, 1]");
  }
  const size_t n = table.num_items();
  const double budget = tolerance * static_cast<double>(n);
  const auto max_suppressed = static_cast<size_t>(
      std::floor(max_fraction * static_cast<double>(n)));

  defense::DefensePlan plan;
  plan.items_before = n;

  std::vector<bool> alive(n, true);
  ANONSAFE_ASSIGN_OR_RETURN(SubdomainRisk risk,
                            AnalyzeSubdomain(table, alive));
  plan.oe_before = risk.oe;

  while (risk.oe > budget) {
    if (plan.suppressed.size() >= max_suppressed ||
        risk.ranked_original_ids.empty()) {
      return Status::FailedPrecondition(
          "suppression cap reached (" +
          std::to_string(plan.suppressed.size()) +
          " items) before the tolerance was met; use a frequency-merge "
          "defense instead");
    }
    size_t batch = std::min(rerank_batch, risk.ranked_original_ids.size());
    batch = std::min(batch, max_suppressed - plan.suppressed.size());
    if (batch == 0) batch = 1;
    for (size_t i = 0; i < batch; ++i) {
      ItemId victim = risk.ranked_original_ids[i];
      alive[victim] = false;
      plan.suppressed.push_back(victim);
    }
    ANONSAFE_ASSIGN_OR_RETURN(risk, AnalyzeSubdomain(table, alive));
  }

  plan.oe_after = risk.oe;
  plan.residual_ranked = std::move(risk.ranked_original_ids);
  plan.items_after = n - plan.suppressed.size();
  uint64_t total = 0, lost = 0;
  for (ItemId x = 0; x < n; ++x) total += table.support(x);
  for (ItemId x : plan.suppressed) lost += table.support(x);
  plan.occurrence_loss =
      total == 0 ? 0.0
                 : static_cast<double>(lost) / static_cast<double>(total);
  return plan;
}

}  // namespace

Result<Database> ApplySuppression(const Database& db,
                                  const std::vector<ItemId>& suppressed) {
  defense::DefensePlan plan;
  plan.suppressed = suppressed;
  return defense::internal::ApplyPlan(db, plan, nullptr);
}

namespace defense {
namespace {

class SuppressionScheme final : public DefenseScheme {
 public:
  const char* name() const override { return "suppression"; }

  /// A tolerance ladder from strict to lenient. Infeasible rungs (cap
  /// reached first) surface as FailedPrecondition from Plan, which the
  /// optimizer records as infeasible candidates rather than errors.
  std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const override {
    static constexpr double kLadder[] = {0.02, 0.05, 0.08, 0.12,
                                         0.18, 0.25, 0.35, 0.5};
    std::vector<DefenseParams> space;
    if (table.num_items() == 0) return space;
    for (double tolerance : kLadder) {
      DefenseParams params;
      params.Set("tolerance", tolerance);
      space.push_back(std::move(params));
    }
    return space;
  }

  Result<DefensePlan> Plan(const FrequencyTable& table,
                           const DefenseParams& params) const override {
    ANONSAFE_RETURN_IF_ERROR(CheckAllowedParams(
        params, {"tolerance", "max_suppressed_fraction", "rerank_batch"},
        "defense scheme", name()));
    ANONSAFE_ASSIGN_OR_RETURN(
        size_t rerank_batch,
        internal::CountParam(params, "rerank_batch", 8.0, 1, size_t{1} << 53));
    Result<DefensePlan> plan = PlanSuppressionCore(
        table, params.GetOr("tolerance", 0.1),
        params.GetOr("max_suppressed_fraction", 0.5), rerank_batch);
    if (!plan.ok()) return plan.status();
    plan->scheme = name();
    plan->params = params;
    return plan;
  }
};

}  // namespace

namespace internal {

std::unique_ptr<DefenseScheme> MakeSuppressionScheme() {
  return std::make_unique<SuppressionScheme>();
}

}  // namespace internal
}  // namespace defense
}  // namespace anonsafe
