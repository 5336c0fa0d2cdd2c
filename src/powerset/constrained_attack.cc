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

/// Frequency of the anonymized image of `constraint.items` under a total
/// assignment.
bool EvaluateConstraint(const ItemsetConstraint& constraint,
                        const SupportOracle& observed,
                        const std::vector<ItemId>& anon_of_item) {
  Itemset image;
  image.reserve(constraint.items.size());
  for (ItemId y : constraint.items) {
    ItemId a = anon_of_item[y];
    if (a == kInvalidItem) return false;
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

// ----------------------------------------------------------- Enumeration

namespace {

class ItemsetConstrainedEnumerator {
 public:
  ItemsetConstrainedEnumerator(const BipartiteGraph& graph,
                               const SupportOracle& observed,
                               const ItemsetBeliefFunction& belief,
                               uint64_t max_matchings)
      : graph_(graph),
        observed_(observed),
        belief_(belief),
        n_(graph.num_items()),
        max_matchings_(max_matchings),
        anon_used_(n_, false),
        anon_of_item_(n_, kInvalidItem),
        crack_tally_(n_ + 1, 0.0) {
    // Assign items in ascending-candidate order; a constraint is checked
    // at the depth where its last member gets assigned.
    order_.resize(n_);
    for (size_t x = 0; x < n_; ++x) order_[x] = static_cast<ItemId>(x);
    std::sort(order_.begin(), order_.end(), [&](ItemId p, ItemId q) {
      return graph_.item_outdegree(p) < graph_.item_outdegree(q);
    });
    std::vector<size_t> depth_of_item(n_);
    for (size_t d = 0; d < n_; ++d) depth_of_item[order_[d]] = d;
    completes_at_.resize(n_);
    const auto& constraints = belief_.constraints();
    for (size_t c = 0; c < constraints.size(); ++c) {
      size_t deepest = 0;
      for (ItemId y : constraints[c].items) {
        deepest = std::max(deepest, depth_of_item[y]);
      }
      completes_at_[deepest].push_back(c);
    }
  }

  Status Run() { return Recurse(0, 0); }

  CrackDistribution Finish() {
    CrackDistribution out;
    out.num_matchings = num_matchings_;
    out.probability.assign(n_ + 1, 0.0);
    if (num_matchings_ > 0) {
      double total = static_cast<double>(num_matchings_);
      for (size_t c = 0; c <= n_; ++c) {
        out.probability[c] = crack_tally_[c] / total;
        out.expected += static_cast<double>(c) * out.probability[c];
      }
    }
    return out;
  }

 private:
  Status Recurse(size_t depth, size_t cracks) {
    if (depth == n_) {
      if (++num_matchings_ > max_matchings_) {
        return Status::OutOfRange("constrained enumeration over budget");
      }
      crack_tally_[cracks] += 1.0;
      return Status::OK();
    }
    ItemId x = order_[depth];
    for (ItemId a : graph_.anons_of_item(x)) {
      if (anon_used_[a]) continue;
      anon_of_item_[x] = a;
      bool consistent = true;
      for (size_t c : completes_at_[depth]) {
        if (!EvaluateConstraint(belief_.constraints()[c], observed_,
                                anon_of_item_)) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        anon_used_[a] = true;
        Status st = Recurse(depth + 1, cracks + (a == x ? 1 : 0));
        anon_used_[a] = false;
        if (!st.ok()) {
          anon_of_item_[x] = kInvalidItem;
          return st;
        }
      }
      anon_of_item_[x] = kInvalidItem;
    }
    return Status::OK();
  }

  const BipartiteGraph& graph_;
  const SupportOracle& observed_;
  const ItemsetBeliefFunction& belief_;
  const size_t n_;
  const uint64_t max_matchings_;
  std::vector<ItemId> order_;
  std::vector<std::vector<size_t>> completes_at_;
  std::vector<bool> anon_used_;
  std::vector<ItemId> anon_of_item_;
  std::vector<double> crack_tally_;
  uint64_t num_matchings_ = 0;
};

}  // namespace

Result<CrackDistribution> EnumerateItemsetConstrainedDistribution(
    const BipartiteGraph& graph, const SupportOracle& observed,
    const ItemsetBeliefFunction& belief, uint64_t max_matchings) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, belief, observed));
  ItemsetConstrainedEnumerator enumerator(graph, observed, belief,
                                          max_matchings);
  ANONSAFE_RETURN_IF_ERROR(enumerator.Run());
  return enumerator.Finish();
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
                              anon_of_item)) {
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
