#include "graph/matching_sampler.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>

#include "graph/matching_walk.h"
#include "graph/simd_kernels.h"
#include "obs/scoped_timer.h"

namespace anonsafe {

size_t SamplerOptions::EffectiveBurnIn(size_t n) const {
  const double scaled = burn_in_scale * static_cast<double>(n);
  // Casting a double that is NaN or >= 2^64 to size_t is undefined
  // behavior; clamp before converting. NaN fails every comparison, so it
  // falls through to the unscaled floor.
  size_t scaled_sweeps = burn_in_sweeps;
  if (scaled >= static_cast<double>(kMaxBurnInSweeps)) {
    scaled_sweeps = kMaxBurnInSweeps;
  } else if (scaled > 0.0) {
    scaled_sweeps = static_cast<size_t>(scaled);
  }
  return scaled_sweeps > burn_in_sweeps ? scaled_sweeps : burn_in_sweeps;
}

Status ValidateSamplerOptions(const SamplerOptions& options) {
  if (options.samples_per_seed == 0) {
    return Status::InvalidArgument(
        "samples_per_seed must be positive (a zero-sample chain would "
        "never make progress)");
  }
  if (!(options.cycle_move_fraction >= 0.0) ||
      options.cycle_move_fraction > 1.0) {
    return Status::InvalidArgument(
        "cycle_move_fraction must lie in [0, 1], got " +
        std::to_string(options.cycle_move_fraction));
  }
  if (!(options.burn_in_scale >= 0.0) ||
      !std::isfinite(options.burn_in_scale)) {
    return Status::InvalidArgument(
        "burn_in_scale must be finite and non-negative, got " +
        std::to_string(options.burn_in_scale));
  }
  return Status::OK();
}

Result<MatchingSampler> MatchingSampler::Create(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    const SamplerOptions& options) {
  if (observed.num_items() != belief.num_items()) {
    return Status::InvalidArgument(
        "observed data covers " + std::to_string(observed.num_items()) +
        " items, belief function " + std::to_string(belief.num_items()));
  }
  ANONSAFE_RETURN_IF_ERROR(ValidateSamplerOptions(options));
  const size_t n = observed.num_items();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample over an empty domain");
  }

  MatchingSampler s;
  s.options_ = options;
  s.group_of_anon_.resize(n);
  s.item_lo_.assign(n, 0);
  s.item_hi_.assign(n, 0);
  s.item_has_range_.assign(n, 0);
  for (ItemId x = 0; x < n; ++x) {
    // Identity-surrogate convention: anonymized item x truly corresponds
    // to item x, so its observed frequency group is x's true group.
    s.group_of_anon_[x] = observed.group_of_item(x);
    const BeliefInterval& iv = belief.interval(x);
    size_t lo = 0, hi = 0;
    if (observed.StabRange(iv.lo, iv.hi, &lo, &hi)) {
      s.item_lo_[x] = lo;
      s.item_hi_[x] = hi;
      s.item_has_range_[x] = 1;
    }
  }

  // Seed matching: identity when consistent (the paper's choice — every
  // item starts cracked), otherwise exchange-greedy maximum matching for
  // the interval structure. Identity is consistent exactly when every
  // anon's own group stabs its own belief range — the dispatched
  // identity-consistency probe counts those in one pass.
  const bool identity_ok =
      internal::Kernels().count_consistent_identity(
          s.group_of_anon_.data(), s.item_lo_.data(), s.item_hi_.data(),
          s.item_has_range_.data(), n) == n;
  s.seed_item_of_anon_.assign(n, kInvalidItem);
  if (identity_ok) {
    for (ItemId a = 0; a < n; ++a) s.seed_item_of_anon_[a] = a;
    s.seed_size_ = n;
  } else {
    // Sort items by range start; sweep groups ascending; always match the
    // item whose range ends earliest (exchange argument => maximum).
    std::vector<ItemId> by_lo;
    for (ItemId x = 0; x < n; ++x) {
      if (s.item_has_range_[x]) by_lo.push_back(x);
    }
    std::sort(by_lo.begin(), by_lo.end(), [&](ItemId p, ItemId q) {
      return s.item_lo_[p] < s.item_lo_[q];
    });
    using HeapEntry = std::pair<size_t, ItemId>;  // (hi, item)
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> heap;
    size_t next = 0;
    for (size_t g = 0; g < observed.num_groups(); ++g) {
      while (next < by_lo.size() && s.item_lo_[by_lo[next]] <= g) {
        heap.emplace(s.item_hi_[by_lo[next]], by_lo[next]);
        ++next;
      }
      for (ItemId a : observed.group_items(g)) {
        while (!heap.empty() && heap.top().first < g) heap.pop();
        if (heap.empty()) break;
        s.seed_item_of_anon_[a] = heap.top().second;
        ++s.seed_size_;
        heap.pop();
      }
    }
  }
  return s;
}

std::vector<size_t> MatchingSampler::SampleImpl(
    const uint8_t* interest, exec::ExecContext* ctx) const {
  obs::ScopedTimer timer("graph.sampler_sample");
  obs::CountIf("anonsafe_sampler_samples_total", options_.num_samples);
  if (timer.tracing()) {
    timer.Annotate("samples", std::to_string(options_.num_samples));
  }
  // Every chain writes only its own slots, so the vector is the same
  // whatever the thread count.
  std::vector<size_t> samples(options_.num_samples, 0);
  SampleMatchingChains(
      edges(), seed_item_of_anon_, options_, options_.exec.seed, ctx,
      [&](const std::vector<ItemId>& item_of_anon, size_t slot) {
        samples[slot] = internal::Kernels().count_fixed_points(
            item_of_anon.data(), interest, item_of_anon.size());
      });
  return samples;
}

std::vector<size_t> MatchingSampler::SampleCrackCounts(
    exec::ExecContext* ctx) const {
  return SampleImpl(nullptr, ctx);
}

Result<std::vector<size_t>> MatchingSampler::SampleCrackCounts(
    const std::vector<bool>& interest, exec::ExecContext* ctx) const {
  if (interest.size() != num_items()) {
    return Status::InvalidArgument("interest mask size mismatch");
  }
  // Widen the mask to bytes once, so every probe reads a flat array
  // (vector<bool> cannot be streamed).
  const std::vector<uint8_t> interest_bytes(interest.begin(), interest.end());
  return SampleImpl(interest_bytes.data(), ctx);
}

}  // namespace anonsafe
