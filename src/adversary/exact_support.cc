#include "adversary/exact_support.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/bipartite_graph.h"
#include "powerset/constrained_attack.h"
#include "powerset/itemset_belief.h"
#include "powerset/support_oracle.h"

namespace anonsafe {
namespace adversary {
namespace {

constexpr double kDefaultK = 1.0;

/// Worst-case background knowledge (the Martin-et-al. stress test): the
/// adversary knows the supports of k items exactly. Those items get
/// point frequency intervals; the rest stay ignorant ([0, 1]). The
/// model is unweighted, so every estimator path (O-estimate, planner,
/// exact, sampler) remains valid; the richer composition with pairwise
/// co-occurrence knowledge lives in `RunExactSupportAttack`.
class ExactSupportAdversary final : public Adversary {
 public:
  const char* name() const override { return "exact_support"; }

  AdversaryDescription Describe() const override {
    AdversaryDescription d;
    d.name = name();
    d.summary =
        "worst-case background knowledge: k item supports known exactly "
        "(point intervals, rarest groups first), everything else ignorant";
    d.weighted = false;
    d.supports_exact = true;
    d.params = {"k"};
    return d;
  }

  Status ValidateParams(const AdversaryParams& params) const override {
    ANONSAFE_RETURN_IF_ERROR(
        CheckAllowedParams(params, {"k"}, kAdversaryNoun, name()));
    double k = params.GetOr("k", kDefaultK);
    if (!std::isfinite(k) || k < 1.0 || k != std::floor(k)) {
      return Status::InvalidArgument(
          "adversary parameter 'k' must be a positive integer, got " +
          json::NumberToString(k));
    }
    return Status::OK();
  }

  Result<AdversaryModel> Bind(const FrequencyTable& table,
                              const FrequencyGroups& groups, double delta,
                              const AdversaryParams& params) const override {
    (void)delta;  // exact knowledge has no interval width
    ANONSAFE_RETURN_IF_ERROR(ValidateParams(params));
    const auto k = static_cast<size_t>(params.GetOr("k", kDefaultK));

    const size_t n = table.num_items();
    std::vector<BeliefInterval> intervals(n);  // default-ignorant [0, 1]
    for (ItemId x : SelectExactSupportItems(groups, k)) {
      const double f = table.frequency(x);
      intervals[x] = {f, f};
    }
    ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                              BeliefFunction::Create(std::move(intervals)));
    return AdversaryModel{name(), params, std::move(belief), {}};
  }
};

}  // namespace

std::vector<ItemId> SelectExactSupportItems(const FrequencyGroups& groups,
                                            size_t k) {
  const size_t n = groups.num_items();
  std::vector<ItemId> order(n);
  std::iota(order.begin(), order.end(), ItemId{0});
  // Items in small frequency groups are the most identifying to pin
  // exactly (a known support in a singleton group is an instant crack),
  // so the worst case fills from the rarest groups up. Item-id ties
  // keep the selection deterministic.
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    const size_t sa = groups.group_size(groups.group_of_item(a));
    const size_t sb = groups.group_size(groups.group_of_item(b));
    if (sa != sb) return sa < sb;
    return a < b;
  });
  order.resize(std::min(k, n));
  return order;
}

Result<ExactSupportAttack> RunExactSupportAttack(const Database& db,
                                                 const AdversaryParams& params,
                                                 uint64_t max_matchings) {
  const Adversary* adv = Adversary::Find("exact_support");
  ANONSAFE_RETURN_IF_ERROR(adv->ValidateParams(params));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table, FrequencyTable::Compute(db));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  ANONSAFE_ASSIGN_OR_RETURN(AdversaryModel model,
                            adv->Bind(table, groups, 0.0, params));

  ExactSupportAttack out;
  out.known_items = SelectExactSupportItems(
      groups, static_cast<size_t>(params.GetOr("k", kDefaultK)));

  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph graph,
                            BipartiteGraph::Build(groups, model.belief));
  ANONSAFE_ASSIGN_OR_RETURN(SupportOracle oracle, SupportOracle::Build(db));

  // Beyond the k pinned supports, the adversary also knows every pair
  // frequency among the known items (exact knowledge of an item extends
  // to its co-occurrences in the published patterns) — each pair becomes
  // a point itemset constraint for the constrained backtracker.
  ItemsetBeliefFunction itemset_belief(db.num_items());
  std::vector<ItemId> sorted_known = out.known_items;
  std::sort(sorted_known.begin(), sorted_known.end());
  for (size_t i = 0; i < sorted_known.size(); ++i) {
    for (size_t j = i + 1; j < sorted_known.size(); ++j) {
      Itemset pair = {sorted_known[i], sorted_known[j]};
      const double f = oracle.Frequency(pair);
      ANONSAFE_RETURN_IF_ERROR(
          itemset_belief.Constrain(std::move(pair), {f, f}));
    }
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      out.distribution,
      EnumerateItemsetConstrainedDistribution(graph, oracle, itemset_belief,
                                              max_matchings));
  return out;
}

namespace internal {
std::unique_ptr<Adversary> MakeExactSupportAdversary() {
  return std::make_unique<ExactSupportAdversary>();
}
}  // namespace internal

}  // namespace adversary
}  // namespace anonsafe
