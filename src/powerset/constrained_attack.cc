#include "powerset/constrained_attack.h"

#include <algorithm>
#include <string>

#include "graph/hopcroft_karp.h"
#include "graph/matching_walk.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Status CheckDomains(const BipartiteGraph& graph,
                    const ItemsetBeliefFunction& belief,
                    const SupportOracle& observed) {
  if (graph.num_items() != belief.num_items() ||
      graph.num_items() != observed.num_items()) {
    return Status::InvalidArgument(
        "graph, itemset belief and support oracle must share one domain");
  }
  return Status::OK();
}

/// Whether the frequency of the anonymized image of `constraint.items`
/// lies in its interval; `unassigned` when a member has no anonymized
/// item yet.
bool EvaluateConstraint(const ItemsetConstraint& constraint,
                        const SupportOracle& observed,
                        const std::vector<ItemId>& anon_of_item,
                        bool unassigned = false) {
  Itemset image;
  image.reserve(constraint.items.size());
  for (ItemId y : constraint.items) {
    ItemId a = anon_of_item[y];
    if (a == kInvalidItem) return unassigned;
    image.push_back(a);
  }
  std::sort(image.begin(), image.end());
  return constraint.interval.Contains(observed.Frequency(image));
}

}  // namespace

bool SatisfiesItemsetConstraints(const ItemsetBeliefFunction& belief,
                                 const SupportOracle& observed,
                                 const std::vector<ItemId>& anon_of_item) {
  for (const ItemsetConstraint& c : belief.constraints()) {
    if (!EvaluateConstraint(c, observed, anon_of_item)) return false;
  }
  return true;
}

Result<CrackDistribution> EnumerateItemsetConstrainedDistribution(
    const BipartiteGraph& graph, const SupportOracle& observed,
    const ItemsetBeliefFunction& belief, uint64_t max_matchings) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, belief, observed));
  return EnumerateMatchings(
      ItemsetConstrainedEdges{{&graph}, &belief, &observed},
      [](ItemId x, ItemId a) { return x == a; }, max_matchings);
}

// --------------------------------------------------------------- Sampler

Result<ConstrainedMatchingSampler> ConstrainedMatchingSampler::Create(
    const BipartiteGraph& graph, const ItemsetBeliefFunction& belief,
    const SupportOracle& observed, const SamplerOptions& options) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, belief, observed));
  ANONSAFE_RETURN_IF_ERROR(ValidateSamplerOptions(options));
  const size_t n = graph.num_items();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample over an empty domain");
  }

  ConstrainedMatchingSampler s({{&graph}, &belief, &observed}, options);

  // Seed 1: the identity assignment.
  std::vector<ItemId> seed_anon_of_item(n);
  for (ItemId x = 0; x < n; ++x) seed_anon_of_item[x] = x;
  bool identity_ok = true;
  for (ItemId x = 0; x < n && identity_ok; ++x) {
    identity_ok = graph.HasEdge(x, x);
  }
  if (identity_ok &&
      SatisfiesItemsetConstraints(belief, observed, seed_anon_of_item)) {
    s.seed_is_identity_ = true;
  } else {
    // Seed 2: Hopcroft-Karp + bounded min-conflicts repair.
    Matching matching = HopcroftKarp(graph);
    if (!matching.IsPerfect()) {
      return Status::FailedPrecondition(
          "item-level graph has no perfect matching");
    }
    std::vector<ItemId> state = matching.anon_of_item;
    auto violations = [&]() {
      size_t count = 0;
      for (const ItemsetConstraint& c : belief.constraints()) {
        if (!EvaluateConstraint(c, observed, state)) ++count;
      }
      return count;
    };
    Rng repair_rng(options.exec.seed ^ 0xabcdef);
    size_t current = violations();
    const size_t budget = 200 * n + 20000;
    for (size_t iter = 0; iter < budget && current > 0; ++iter) {
      // Random swap of two items' anons when edges allow; keep if the
      // violation count does not increase.
      auto x = static_cast<ItemId>(repair_rng.UniformUint64(n));
      auto y = static_cast<ItemId>(repair_rng.UniformUint64(n));
      if (x == y) continue;
      ItemId a = state[x], b = state[y];
      if (!graph.HasEdge(b, x) || !graph.HasEdge(a, y)) continue;
      std::swap(state[x], state[y]);
      size_t next = violations();
      if (next <= current) {
        current = next;
      } else {
        std::swap(state[x], state[y]);
      }
    }
    if (current > 0) {
      return Status::FailedPrecondition(
          "no consistent seed mapping found (" + std::to_string(current) +
          " itemset constraints still violated after repair)");
    }
    seed_anon_of_item = std::move(state);
  }
  s.seed_item_of_anon_.resize(n);
  for (ItemId x = 0; x < n; ++x) {
    s.seed_item_of_anon_[seed_anon_of_item[x]] = x;
  }
  return s;
}

bool ItemsetConstrainedEdges::Accepts(
    const std::vector<ItemId>& anon_of_item,
    std::initializer_list<ItemId> moved) const {
  for (ItemId x : moved) {
    for (size_t c : belief->ConstraintsOf(x)) {
      if (!EvaluateConstraint(belief->constraints()[c], *observed,
                              anon_of_item, /*unassigned=*/true)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<size_t> ConstrainedMatchingSampler::SampleCrackCounts() const {
  std::vector<size_t> samples(options_.num_samples, 0);
  SampleMatchingChains(
      edges_, seed_item_of_anon_, options_, options_.exec.seed,
      /*ctx=*/nullptr,
      [&](const std::vector<ItemId>& item_of_anon, size_t slot) {
        for (ItemId a = 0; a < item_of_anon.size(); ++a) {
          if (item_of_anon[a] == a) ++samples[slot];
        }
      });
  return samples;
}

}  // namespace anonsafe
