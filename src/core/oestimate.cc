#include "core/oestimate.h"

#include "exec/exec.h"
#include "exec/scratch.h"
#include "graph/consistency.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

/// The adapters' half: stab every item's interval against the groups,
/// then run the core. Chunks write disjoint slots, so the ranges are
/// identical for any thread count; the buffer is recycled through the
/// thread-local scratch pool. The stab phase is the first half of the
/// consistency build, hence the span name.
Result<OEstimateResult> StabAndEstimate(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    const std::vector<adversary::ItemWeight>* weights,
    const OEstimateOptions& options, exec::ExecContext* ctx,
    const std::vector<bool>* include) {
  const size_t n = belief.num_items();
  exec::ScratchVec<ItemStabRange> ranges(n);
  {
    ANONSAFE_SCOPED_TIMER("graph.consistency_build");
    const size_t grain = ctx != nullptr ? 2048 : n;
    ANONSAFE_RETURN_IF_ERROR(exec::ParallelForChunks(
        ctx, n, grain, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const BeliefInterval& iv = belief.interval(static_cast<ItemId>(i));
            ranges[i] = observed.Stab(iv.lo, iv.hi);
          }
          return Status::OK();
        }));
  }
  return ComputeOEstimateCore(observed, ranges.vec(), include, weights,
                              options, ctx);
}

}  // namespace

Result<OEstimateResult> ComputeOEstimateCore(
    const FrequencyGroups& observed, const std::vector<ItemStabRange>& ranges,
    const std::vector<bool>* include,
    const std::vector<adversary::ItemWeight>* weights,
    const OEstimateOptions& options, exec::ExecContext* ctx) {
  obs::ScopedTimer timer("core.oestimate");
  if (include != nullptr && include->size() != ranges.size()) {
    return Status::InvalidArgument("include mask size mismatch");
  }
  if (weights != nullptr && weights->size() != ranges.size()) {
    return Status::InvalidArgument("adversary weights size mismatch");
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      ConsistencyStructure cs,
      ConsistencyStructure::BuildFromRanges(observed, ranges));
  OEstimateResult out;
  if (options.propagate) {
    ConsistencyStructure::PropagationStats stats = cs.PropagateDegreeOne();
    out.propagation_passes = stats.passes;
  }
  out.contradiction = cs.contradiction();

  // Per-chunk partials in fixed slots; chunk boundaries depend only on
  // (n, grain), so the fold below is bit-identical for any thread count.
  const size_t n = cs.num_items();
  const size_t grain = ctx != nullptr ? 2048 : n;
  const size_t chunks = exec::NumChunks(n, grain);
  struct Partial {
    double cracks = 0.0;
    size_t forced = 0;
    size_t dead = 0;
  };
  std::vector<Partial> partials(chunks);
  Status st = exec::ParallelForChunks(
      ctx, n, grain, [&](size_t begin, size_t end) {
        Partial& p = partials[begin / grain];
        for (size_t i = begin; i < end; ++i) {
          const ItemId x = static_cast<ItemId>(i);
          if (include != nullptr && !(*include)[x]) continue;
          if (cs.item_dead(x)) {
            ++p.dead;
            continue;
          }
          if (cs.item_forced(x)) {
            ++p.forced;
            p.cracks += 1.0;  // propagation pinned it: a certain crack
            continue;
          }
          if (weights == nullptr) {
            size_t degree = cs.outdegree(x);
            p.cracks += 1.0 / static_cast<double>(degree);
            continue;
          }
          const adversary::ItemWeight& iw = (*weights)[x];
          const auto [lo, hi] = cs.item_range(x);
          double denom = 0.0;
          for (size_t g = lo; g <= hi; ++g) {
            const size_t j = g - iw.lo_group;
            if (j >= iw.w.size()) continue;  // range beyond the window
            denom +=
                iw.w[j] * static_cast<double>(cs.group_remaining(g));
          }
          // Alive means some group in range still has remaining items,
          // and adversary weights are strictly positive, so denom > 0.
          p.cracks += iw.true_weight / denom;
        }
        return Status::OK();
      });
  ANONSAFE_RETURN_IF_ERROR(st);
  std::vector<double> crack_partials(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    crack_partials[c] = partials[c].cracks;
    out.forced_items += partials[c].forced;
    out.dead_items += partials[c].dead;
  }
  out.expected_cracks = exec::PairwiseSum(crack_partials);
  out.fraction = n == 0 ? 0.0
                        : out.expected_cracks / static_cast<double>(n);
  obs::CountIf("anonsafe_oestimate_runs_total");
  if (timer.tracing()) {
    timer.Annotate("expected_cracks",
                   std::to_string(out.expected_cracks));
    timer.Annotate("forced", std::to_string(out.forced_items));
  }
  return out;
}

Result<OEstimateResult> ComputeOEstimate(const FrequencyGroups& observed,
                                         const BeliefFunction& belief,
                                         const OEstimateOptions& options,
                                         exec::ExecContext* ctx,
                                         const std::vector<bool>* include) {
  return StabAndEstimate(observed, belief, /*weights=*/nullptr, options, ctx,
                         include);
}

Result<OEstimateResult> ComputeOEstimateForModel(
    const FrequencyGroups& observed, const adversary::AdversaryModel& model,
    const OEstimateOptions& options, exec::ExecContext* ctx,
    const std::vector<bool>* include) {
  return StabAndEstimate(observed, model.belief,
                         model.weighted() ? &model.weights : nullptr, options,
                         ctx, include);
}

}  // namespace anonsafe
