#include "belief/builders.h"

#include <algorithm>
#include <cmath>

namespace anonsafe {
namespace {

constexpr double kMinMargin = 1e-6;

}  // namespace

/// Displaces [lo, hi] so it no longer contains `f`, keeping the width
/// where possible. Never returns an interval containing `f`.
BeliefInterval MakeNonCompliantInterval(const BeliefInterval& iv, double f,
                                        Rng* rng) {
  const double w = iv.Width();
  const double margin =
      std::max(w * rng->UniformDouble(0.1, 0.6), kMinMargin);

  const bool up_fits = f + margin + w <= 1.0;
  const bool down_fits = f - margin - w >= 0.0;
  bool go_up;
  if (up_fits && down_fits) {
    go_up = rng->Bernoulli(0.5);
  } else if (up_fits || down_fits) {
    go_up = up_fits;
  } else {
    // Full width fits on neither side; fall back to the larger side with
    // a shrunken interval that still excludes f.
    if (f + kMinMargin <= 1.0 && (1.0 - f) >= f) {
      return {std::min(1.0, f + std::max(margin, kMinMargin)), 1.0};
    }
    double hi = std::max(0.0, f - std::max(std::min(margin, f / 2),
                                           kMinMargin));
    return {0.0, hi};
  }
  if (go_up) {
    double lo = f + margin;
    return {lo, std::min(1.0, lo + w)};
  }
  double hi = f - margin;
  return {std::max(0.0, hi - w), hi};
}

namespace {

Result<BeliefFunction> BuildFromSample(const CountedDatabase& sample,
                                       bool use_average_gap,
                                       double* delta_out) {
  const FrequencyGroups& groups = sample.groups();
  double delta = use_average_gap ? groups.GapSummary().mean
                                 : groups.MedianGap();
  if (delta_out != nullptr) *delta_out = delta;
  return MakeCompliantIntervalBelief(sample.table(), delta);
}

}  // namespace

BeliefFunction MakeIgnorantBelief(size_t num_items) {
  std::vector<BeliefInterval> intervals(num_items, BeliefInterval{0.0, 1.0});
  auto result = BeliefFunction::Create(std::move(intervals));
  // [0,1] intervals are always valid.
  return *std::move(result);
}

Result<BeliefFunction> MakePointValuedBelief(const FrequencyTable& truth) {
  // [f - 0, f + 0] clamped to [0, 1] is [f, f] bit for bit.
  return MakeCompliantIntervalBelief(truth, 0.0);
}

Result<BeliefFunction> MakeCompliantIntervalBelief(
    const FrequencyTable& truth, double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("interval half-width must be >= 0");
  }
  std::vector<BeliefInterval> intervals(truth.num_items());
  for (ItemId x = 0; x < truth.num_items(); ++x) {
    double f = truth.frequency(x);
    intervals[x] = {std::max(0.0, f - delta), std::min(1.0, f + delta)};
  }
  return BeliefFunction::Create(std::move(intervals));
}

Result<AlphaCompliantBelief> MakeAlphaCompliantBelief(
    const BeliefFunction& base, const FrequencyTable& truth, double alpha,
    Rng* rng) {
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must lie in [0, 1]");
  }
  if (base.num_items() != truth.num_items()) {
    return Status::InvalidArgument("belief/truth domain size mismatch");
  }
  const size_t n = base.num_items();
  for (ItemId x = 0; x < n; ++x) {
    if (!base.IsCompliantFor(x, truth.frequency(x))) {
      return Status::FailedPrecondition(
          "base belief must be fully compliant (item " + std::to_string(x) +
          " is not)");
    }
  }

  const size_t num_noncompliant = static_cast<size_t>(
      std::llround((1.0 - alpha) * static_cast<double>(n)));
  std::vector<size_t> displaced =
      rng->SampleWithoutReplacement(n, num_noncompliant);

  std::vector<BeliefInterval> intervals = base.intervals();
  std::vector<bool> compliant_mask(n, true);
  for (size_t idx : displaced) {
    double f = truth.frequency(static_cast<ItemId>(idx));
    intervals[idx] = MakeNonCompliantInterval(intervals[idx], f, rng);
    compliant_mask[idx] = false;
  }
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                            BeliefFunction::Create(std::move(intervals)));

  AlphaCompliantBelief out;
  out.belief = std::move(belief);
  out.compliant_mask = std::move(compliant_mask);
  out.requested_alpha = alpha;
  return out;
}

Result<BeliefFunction> MakeBeliefFromSample(const CountedDatabase& sample,
                                            double* delta_out) {
  return BuildFromSample(sample, /*use_average_gap=*/false, delta_out);
}

Result<BeliefFunction> MakeBeliefFromSampleAverageGap(
    const CountedDatabase& sample, double* delta_out) {
  return BuildFromSample(sample, /*use_average_gap=*/true, delta_out);
}

}  // namespace anonsafe
