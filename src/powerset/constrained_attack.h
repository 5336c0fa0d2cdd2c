#ifndef ANONSAFE_POWERSET_CONSTRAINED_ATTACK_H_
#define ANONSAFE_POWERSET_CONSTRAINED_ATTACK_H_

#include <initializer_list>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "powerset/itemset_belief.h"
#include "powerset/support_oracle.h"
#include "util/result.h"

namespace anonsafe {

/// \brief True when the full assignment `anon_of_item` satisfies every
/// itemset constraint: for each (S, [l, r]), the observed frequency of
/// the anonymized image {anon_of_item[y] : y ∈ S} lies in [l, r].
/// The assignment must be total (no kInvalidItem among constrained
/// items). Item-level edge consistency is NOT checked here.
bool SatisfiesItemsetConstraints(const ItemsetBeliefFunction& belief,
                                 const SupportOracle& observed,
                                 const std::vector<ItemId>& anon_of_item);

/// \brief Exact crack distribution over mappings consistent with the
/// item-level graph AND every itemset constraint: `EnumerateMatchings`
/// over `ItemsetConstrainedEdges`, which checks a constraint as soon as
/// its last member is assigned. Tiny instances only.
Result<CrackDistribution> EnumerateItemsetConstrainedDistribution(
    const BipartiteGraph& graph, const SupportOracle& observed,
    const ItemsetBeliefFunction& belief,
    uint64_t max_matchings = 5'000'000);

/// \brief The consistency of itemset knowledge: the item-level edges of
/// `graph`, and on every moved state the itemset constraints of `belief`
/// that contain a moved item and have every member assigned.
struct ItemsetConstrainedEdges : GraphEdges {
  const ItemsetBeliefFunction* belief;
  const SupportOracle* observed;

  bool Accepts(const std::vector<ItemId>& anon_of_item,
               std::initializer_list<ItemId> moved) const;
};

/// \brief MCMC sampler over mappings consistent with both levels — the
/// powerset generalization of `MatchingSampler` for domains where
/// enumeration is infeasible: the `MatchingWalk` over
/// `ItemsetConstrainedEdges`, whose stationary distribution is uniform
/// over the reachable consistent mappings.
///
/// Seeding: the identity when consistent (the compliant case — itemset
/// constraints containing the true frequencies are satisfied by the
/// truth); otherwise a bounded min-conflicts repair from a Hopcroft–Karp
/// matching, failing with FailedPrecondition when no consistent seed is
/// found. The sampler keeps pointers to `graph`, `belief` and `observed`,
/// which must outlive it.
class ConstrainedMatchingSampler {
 public:
  static Result<ConstrainedMatchingSampler> Create(
      const BipartiteGraph& graph, const ItemsetBeliefFunction& belief,
      const SupportOracle& observed, const SamplerOptions& options);

  size_t num_items() const { return seed_item_of_anon_.size(); }
  bool seed_is_identity() const { return seed_is_identity_; }

  /// \brief Draws `options.num_samples` crack counts (fixed points). Chain
  /// c runs on the stream SplitSeed(exec.seed, c). The chains run in order
  /// on the caller: the support oracle fills its memo without a lock.
  std::vector<size_t> SampleCrackCounts() const;

 private:
  ConstrainedMatchingSampler(const ItemsetConstrainedEdges& edges,
                             const SamplerOptions& options)
      : edges_(edges), options_(options) {}

  ItemsetConstrainedEdges edges_;
  SamplerOptions options_;
  bool seed_is_identity_ = false;
  std::vector<ItemId> seed_item_of_anon_;
};

}  // namespace anonsafe

#endif  // ANONSAFE_POWERSET_CONSTRAINED_ATTACK_H_
