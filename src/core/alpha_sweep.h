#ifndef ANONSAFE_CORE_ALPHA_SWEEP_H_
#define ANONSAFE_CORE_ALPHA_SWEEP_H_

#include <vector>

#include "belief/belief_function.h"
#include "belief/builders.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec

/// \brief Evaluates α-compliant disclosure risk over a *nested* family of
/// compliant subsets, the anchoring required by Lemma 10 (Section 6.2).
///
/// For each of `num_runs` independent runs the sweep fixes (i) a random
/// item order and (ii) a displaced (non-compliant) interval per item.
/// At degree α, run r's belief keeps the base (compliant) intervals on the
/// first ceil(α·n) items of its order and the displaced intervals on the
/// rest. Lowering α therefore only moves items from compliant to
/// non-compliant without touching anyone else — exactly the partial order
/// β2 ≼_C β1 of Definition 9 — so the averaged O-estimate is monotone in α
/// and the recipe's binary search is well-founded.
class AlphaCompliancySweep {
 public:
  /// \brief Precomputes per-run orders and displacements. `base` must be
  /// fully compliant w.r.t. `truth`.
  static Result<AlphaCompliancySweep> Create(const FrequencyTable& truth,
                                             const BeliefFunction& base,
                                             size_t num_runs, uint64_t seed);

  size_t num_runs() const { return orders_.size(); }
  size_t num_items() const { return base_.num_items(); }

  /// \brief Per-item stab ranges of both candidate intervals against one
  /// observed grouping: `base[x]` for item x's compliant interval,
  /// `displaced[x]` for its displaced one. At any degree α every run's
  /// belief assigns each item one of these two fixed intervals, so the
  /// 2n binary searches here are the *only* stabbing an entire bisection
  /// needs — each probe just selects per item in O(1).
  struct ProbeCache {
    std::vector<ItemStabRange> base;
    std::vector<ItemStabRange> displaced;
  };

  /// \brief Builds the probe cache against `observed` (2n stabs; do this
  /// once per recipe run, then hand it to every `AverageOEstimate` call
  /// of the bisection).
  ProbeCache MakeProbeCache(const FrequencyGroups& observed) const;

  /// \brief The α-compliant belief of run `run` (with its compliant mask).
  /// alpha is clamped to [0, 1]; a run index past `num_runs()` is an
  /// OutOfRange error.
  Result<AlphaCompliantBelief> BeliefAt(size_t run, double alpha) const;

  /// \brief Average over runs of the α-restricted O-estimate (absolute
  /// expected cracks, Section 5.3). Each run replays the precomputed
  /// stab ranges — items before its α cut take the base range, the rest
  /// the displaced one — and sums only its compliant items.
  /// `cache` must come from `MakeProbeCache(observed)`.
  ///
  /// `weights` (optional) carries a weighted adversary model's per-item
  /// weights: compliant items are then summed with the weighted
  /// outdegree instead of 1/O_x. Displaced items are masked out of the
  /// sum either way, so their (base-range-aligned) weights never apply
  /// to a displaced range. `interest` (optional) further restricts each
  /// run's sum to compliant ∧ interesting items (the Lemma 4 "items of
  /// interest" scenario).
  ///
  /// With a non-null `ctx` the independent runs evaluate on the pool;
  /// per-run estimates land in fixed slots and are combined with a
  /// fixed-order pairwise sum, so the average is bit-identical for any
  /// thread count.
  Result<double> AverageOEstimate(
      const FrequencyGroups& observed, const ProbeCache& cache, double alpha,
      const OEstimateOptions& options = {}, exec::ExecContext* ctx = nullptr,
      const std::vector<adversary::ItemWeight>* weights = nullptr,
      const std::vector<bool>* interest = nullptr) const;

 private:
  /// One run's restricted O-estimate from replayed stab ranges.
  Result<double> RunOEstimateFromCache(
      const FrequencyGroups& observed, const ProbeCache& cache, size_t run,
      double alpha, const std::vector<bool>* interest,
      const std::vector<adversary::ItemWeight>* weights,
      const OEstimateOptions& options) const;

  AlphaCompliancySweep(BeliefFunction base,
                       std::vector<BeliefInterval> displaced,
                       std::vector<std::vector<size_t>> orders)
      : base_(std::move(base)),
        displaced_(std::move(displaced)),
        orders_(std::move(orders)) {}

  BeliefFunction base_;
  std::vector<BeliefInterval> displaced_;       // shared across runs
  std::vector<std::vector<size_t>> orders_;     // per-run item order
};

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_ALPHA_SWEEP_H_
