#ifndef ANONSAFE_GRAPH_MATCHING_SAMPLER_H_
#define ANONSAFE_GRAPH_MATCHING_SAMPLER_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "data/types.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "util/result.h"
#include "util/status.h"

namespace anonsafe {

/// \brief Safety ceiling for the scaled burn-in: `burn_in_scale * n` is a
/// double and may overflow (or be NaN when options were derived from bad
/// arithmetic); casting such a value to `size_t` is undefined behavior.
/// ~10^12 sweeps is far beyond any practical run, so the clamp never
/// changes a sane configuration.
inline constexpr size_t kMaxBurnInSweeps = size_t{1} << 40;

/// \brief Knobs of the MCMC matching samplers (Section 7.1 of the paper).
///
/// One *sweep* attempts one move per anonymized item — the paper's
/// "iteration". The paper used 100,000 scramble iterations, thinning of
/// 10,000 and 250 samples per seed on a 2005-era machine; the defaults
/// here are scaled to keep bench runs interactive while preserving the
/// estimator's accuracy (tests validate it against exact permanents). All
/// values are overridable.
struct SamplerOptions {
  size_t burn_in_sweeps = 300;    ///< minimum scramble sweeps before the
                                  ///< first sample of a seed
  double burn_in_scale = 2.0;     ///< additional per-item scaling: the
                                  ///< effective burn-in is
                                  ///< max(burn_in_sweeps, burn_in_scale*n).
                                  ///< Large domains with tight intervals mix
                                  ///< by slow diffusion along coupled group
                                  ///< chains and need burn-in proportional
                                  ///< to n (set 0 to disable scaling).
  size_t thinning_sweeps = 10;    ///< sweeps between successive samples
  size_t samples_per_seed = 500;  ///< samples per independent chain
                                  ///< (must be positive)
  size_t num_samples = 500;       ///< total samples to draw
  double cycle_move_fraction = 0.25;  ///< fraction of 3-rotation moves,
                                      ///< in [0, 1]

  /// Shared execution knobs. The sampler's master seed defaults to 1;
  /// each chain's stream is split off it, so sample c is the same value
  /// whatever the thread count.
  exec::ExecOptions exec{.seed = 1};

  /// \brief Burn-in actually applied for a domain of `n` items:
  /// max(burn_in_sweeps, burn_in_scale * n), clamped to
  /// `kMaxBurnInSweeps`; a NaN product falls back to `burn_in_sweeps`.
  size_t EffectiveBurnIn(size_t n) const;
};

/// \brief InvalidArgument unless `samples_per_seed` is positive,
/// `cycle_move_fraction` lies in [0, 1] and `burn_in_scale` is finite and
/// non-negative. Every sampler checks its options with it.
Status ValidateSamplerOptions(const SamplerOptions& options);

/// \brief MatchingSampler's edge test, O(1) over the contiguous
/// group-range representation: anonymized item a may take item x iff a's
/// observed frequency group lies in the group range x's belief interval
/// stabs. A view of the sampler's flat columns.
struct IntervalEdges {
  const size_t* group_of_anon;
  const size_t* item_lo;
  const size_t* item_hi;
  const uint8_t* item_has_range;

  bool HasEdge(ItemId anon, ItemId item) const {
    return item_has_range[item] != 0 &&
           item_lo[item] <= group_of_anon[anon] &&
           group_of_anon[anon] <= item_hi[item];
  }
  bool Matchable(ItemId item) const { return item_has_range[item] != 0; }
  bool Accepts(const std::vector<ItemId>& /*anon_of_item*/,
               std::initializer_list<ItemId> /*moved*/) const {
    return true;
  }
};

/// \brief Edge test of a consistency graph held as a `BipartiteGraph`
/// (the planner's block graphs).
struct GraphEdges {
  const BipartiteGraph* graph;

  bool HasEdge(ItemId anon, ItemId item) const {
    return graph->HasEdge(anon, item);
  }
  bool Matchable(ItemId item) const {
    return graph->item_outdegree(item) > 0;
  }
  bool Accepts(const std::vector<ItemId>& /*anon_of_item*/,
               std::initializer_list<ItemId> /*moved*/) const {
    return true;
  }
};

/// \brief MCMC sampler over consistent matchings of the consistency graph:
/// the `MatchingWalk` over `IntervalEdges`, so a sweep is O(n).
///
/// Seeding: the identity matching (every item cracked) when it is
/// consistent — exactly the paper's procedure — otherwise a maximum
/// matching found by the exchange-greedy algorithm for interval bipartite
/// graphs (non-compliant beliefs need not admit a perfect matching; the
/// sampler then explores maximum-cardinality matchings of the seed's
/// matched set, a documented approximation).
class MatchingSampler {
 public:
  /// \brief Builds ranges and the seed matching. Fails on domain
  /// mismatch, an empty domain, or options `ValidateSamplerOptions`
  /// rejects.
  static Result<MatchingSampler> Create(const FrequencyGroups& observed,
                                        const BeliefFunction& belief,
                                        const SamplerOptions& options);

  size_t num_items() const { return group_of_anon_.size(); }

  /// \brief True when the seed matching matches every anonymized item.
  bool seed_is_perfect() const { return seed_size_ == num_items(); }
  size_t seed_size() const { return seed_size_; }

  /// \brief Draws `options.num_samples` matchings and returns the crack
  /// count (number of fixed points) of each.
  ///
  /// The draw is organised as ceil(num_samples / samples_per_seed)
  /// independent chains; chain c runs with the RNG stream
  /// SplitSeed(exec.seed, c) and writes its samples into fixed
  /// output slots. With a non-null `ctx` the chains run on the pool —
  /// the returned vector is bit-identical for any thread count.
  std::vector<size_t> SampleCrackCounts(
      exec::ExecContext* ctx = nullptr) const;

  /// \brief Same, counting only cracks of items with `interest[x]` true
  /// (the Lemma 2/4 "items of interest" analyses).
  Result<std::vector<size_t>> SampleCrackCounts(
      const std::vector<bool>& interest,
      exec::ExecContext* ctx = nullptr) const;

  /// \brief The walk's inputs: its edge test and the seed matching every
  /// chain starts from.
  IntervalEdges edges() const {
    return {group_of_anon_.data(), item_lo_.data(), item_hi_.data(),
            item_has_range_.data()};
  }
  const std::vector<ItemId>& seed_item_of_anon() const {
    return seed_item_of_anon_;
  }

 private:
  MatchingSampler() = default;

  /// `interest` is an optional byte mask (nullptr = all items).
  std::vector<size_t> SampleImpl(const uint8_t* interest,
                                 exec::ExecContext* ctx) const;

  SamplerOptions options_;

  // Static structure. The range/consistency columns are flat arrays of
  // machine words (and `item_has_range_` a byte mask, not vector<bool>)
  // so the dispatched probe kernels can stream them.
  std::vector<size_t> group_of_anon_;
  std::vector<size_t> item_lo_, item_hi_;
  std::vector<uint8_t> item_has_range_;
  std::vector<ItemId> seed_item_of_anon_;  // seed matching
  size_t seed_size_ = 0;
};

}  // namespace anonsafe

#endif  // ANONSAFE_GRAPH_MATCHING_SAMPLER_H_
