#include "defense/suppression.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

/// One point of a suppression ladder, checked: the trajectory it stops
/// on (cap and batch size), its budget τ·n, and where its plan goes.
struct Rung {
  size_t max_suppressed = 0;
  size_t rerank_batch = 0;
  double budget = 0.0;
  Result<defense::DefensePlan>* out = nullptr;
};

/// The greedy suppression core, for every rung that shares a cap and a
/// batch size: one trajectory of the loop, re-ranking after each batch,
/// that suppresses the top-ranked items until the cap. Which items go
/// does not depend on the tolerance, so each rung stops at the first
/// step whose O-estimate fits its budget, and the rungs that never get
/// there share the cap error (or the error that ended the walk). The
/// final `AnalyzeSubdomain` pass is kept in the plan (`oe_after`,
/// `residual_ranked`) instead of being computed and dropped — the
/// optimizer reads it rather than re-derive.
void WalkSuppressionTrajectory(const FrequencyTable& table,
                               std::vector<Rung> rungs) {
  const size_t n = table.num_items();
  const size_t max_suppressed = rungs.front().max_suppressed;
  const size_t rerank_batch = rungs.front().rerank_batch;
  uint64_t total = 0, lost = 0;
  for (ItemId x = 0; x < n; ++x) total += table.support(x);

  std::vector<ItemId> suppressed;
  std::vector<bool> alive(n, true);
  Result<SubdomainRisk> risk = AnalyzeSubdomain(table, alive);
  const double oe_before = risk.ok() ? risk->oe : 0.0;
  while (!rungs.empty()) {
    if (!risk.ok()) {
      for (const Rung& rung : rungs) *rung.out = risk.status();
      return;
    }
    // Rungs whose budget the current step fits stop here.
    auto stops = std::stable_partition(
        rungs.begin(), rungs.end(),
        [&](const Rung& rung) { return risk->oe > rung.budget; });
    for (auto it = stops; it != rungs.end(); ++it) {
      defense::DefensePlan plan;
      plan.items_before = n;
      plan.oe_before = oe_before;
      plan.suppressed = suppressed;
      plan.oe_after = risk->oe;
      plan.residual_ranked = risk->ranked_original_ids;
      plan.items_after = n - suppressed.size();
      plan.occurrence_loss =
          total == 0 ? 0.0
                     : static_cast<double>(lost) / static_cast<double>(total);
      *it->out = std::move(plan);
    }
    rungs.erase(stops, rungs.end());
    if (rungs.empty()) return;

    if (suppressed.size() >= max_suppressed ||
        risk->ranked_original_ids.empty()) {
      const Status cap = Status::FailedPrecondition(
          "suppression cap reached (" + std::to_string(suppressed.size()) +
          " items) before the tolerance was met; use a frequency-merge "
          "defense instead");
      for (const Rung& rung : rungs) *rung.out = cap;
      return;
    }
    size_t batch = std::min(rerank_batch, risk->ranked_original_ids.size());
    batch = std::min(batch, max_suppressed - suppressed.size());
    if (batch == 0) batch = 1;
    for (size_t i = 0; i < batch; ++i) {
      ItemId victim = risk->ranked_original_ids[i];
      alive[victim] = false;
      suppressed.push_back(victim);
      lost += table.support(victim);
    }
    risk = AnalyzeSubdomain(table, alive);
  }
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

  /// Checks every point, then walks one greedy trajectory per distinct
  /// (cap, batch) pair for the points that share it.
  std::vector<Result<DefensePlan>> PlanLadder(
      const FrequencyTable& table,
      const std::vector<DefenseParams>& ladder) const override {
    std::vector<Result<DefensePlan>> plans(
        ladder.size(), Status::Internal("suppression point not planned"));
    std::map<std::pair<size_t, size_t>, std::vector<Rung>> trajectories;
    for (size_t i = 0; i < ladder.size(); ++i) {
      Result<Rung> rung = Check(table, ladder[i]);
      if (!rung.ok()) {
        plans[i] = rung.status();
        continue;
      }
      rung->out = &plans[i];
      trajectories[{rung->max_suppressed, rung->rerank_batch}].push_back(
          *rung);
    }
    for (auto& [key, rungs] : trajectories) {
      WalkSuppressionTrajectory(table, std::move(rungs));
    }
    for (size_t i = 0; i < ladder.size(); ++i) {
      if (!plans[i].ok()) continue;
      plans[i]->scheme = name();
      plans[i]->params = ladder[i];
    }
    return plans;
  }

 private:
  /// A point's rung, or why the point is malformed.
  Result<Rung> Check(const FrequencyTable& table,
                     const DefenseParams& params) const {
    ANONSAFE_RETURN_IF_ERROR(CheckAllowedParams(
        params, {"tolerance", "max_suppressed_fraction", "rerank_batch"},
        "defense scheme", name()));
    ANONSAFE_ASSIGN_OR_RETURN(
        size_t rerank_batch,
        internal::CountParam(params, "rerank_batch", 8.0, 1, size_t{1} << 53));
    const double tolerance = params.GetOr("tolerance", 0.1);
    const double max_fraction = params.GetOr("max_suppressed_fraction", 0.5);
    if (!(tolerance > 0.0) || tolerance > 1.0) {
      return Status::InvalidArgument("tolerance must lie in (0, 1]");
    }
    if (!(max_fraction >= 0.0 && max_fraction <= 1.0)) {
      return Status::InvalidArgument(
          "max_suppressed_fraction must lie in [0, 1]");
    }
    const double n = static_cast<double>(table.num_items());
    Rung rung;
    rung.max_suppressed = static_cast<size_t>(std::floor(max_fraction * n));
    rung.rerank_batch = rerank_batch;
    rung.budget = tolerance * n;
    return rung;
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
