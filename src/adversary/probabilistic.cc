#include <cmath>

#include "adversary/adversary.h"

namespace anonsafe {
namespace adversary {
namespace {

constexpr double kDefaultSpan = 2.0;
constexpr double kDefaultSigma = 1.0;

/// Compatible-probability attacker: for each item a distribution over
/// the frequency groups near its true group — a truncated Gaussian in
/// group units, covering `span` groups on each side with width `sigma`.
/// The structural support is still a contiguous interval (so the stab /
/// Fenwick consistency machinery applies unchanged); the weights turn
/// the O-estimate's uniform 1/O_x into a weighted outdegree. Exact and
/// sampler estimators reject weighted models with Unimplemented rather
/// than silently dropping the weights.
class ProbabilisticAdversary final : public Adversary {
 public:
  const char* name() const override { return "probabilistic"; }

  AdversaryDescription Describe() const override {
    AdversaryDescription d;
    d.name = name();
    d.summary =
        "per-item truncated-Gaussian distribution over nearby frequency "
        "groups (weighted O-estimate; span groups each side, width sigma)";
    d.weighted = true;
    d.supports_exact = false;
    d.params = {"span", "sigma"};
    return d;
  }

  Status ValidateParams(const AdversaryParams& params) const override {
    ANONSAFE_RETURN_IF_ERROR(
        CheckAllowedParams(params, {"span", "sigma"},
                           kAdversaryNoun, name()));
    double span = params.GetOr("span", kDefaultSpan);
    if (!std::isfinite(span) || span < 0.0 ||
        span != std::floor(span)) {
      return Status::InvalidArgument(
          "adversary parameter 'span' must be a non-negative integer "
          "(groups each side), got " + json::NumberToString(span));
    }
    double sigma = params.GetOr("sigma", kDefaultSigma);
    if (!std::isfinite(sigma) || !(sigma > 0.0)) {
      return Status::InvalidArgument(
          "adversary parameter 'sigma' must be positive and finite, got " +
          json::NumberToString(sigma));
    }
    return Status::OK();
  }

  Result<AdversaryModel> Bind(const FrequencyTable& table,
                              const FrequencyGroups& groups, double delta,
                              const AdversaryParams& params) const override {
    (void)delta;  // the distribution is over groups, not a delta interval
    ANONSAFE_RETURN_IF_ERROR(ValidateParams(params));
    const auto span =
        static_cast<size_t>(params.GetOr("span", kDefaultSpan));
    const double sigma = params.GetOr("sigma", kDefaultSigma);

    const size_t n = table.num_items();
    const size_t num_groups = groups.num_groups();
    if (num_groups == 0) {
      return Status::FailedPrecondition(
          "probabilistic adversary needs at least one frequency group");
    }
    std::vector<BeliefInterval> intervals(n);
    std::vector<ItemWeight> weights(n);
    for (ItemId x = 0; x < n; ++x) {
      const size_t g = groups.group_of_item(x);
      const size_t lo = g >= span ? g - span : 0;
      const size_t hi = std::min(num_groups - 1, g + span);
      intervals[x] = {groups.group_frequency(lo), groups.group_frequency(hi)};
      ItemWeight& iw = weights[x];
      iw.lo_group = lo;
      iw.w.resize(hi - lo + 1);
      for (size_t j = 0; j <= hi - lo; ++j) {
        const double d =
            (static_cast<double>(lo + j) - static_cast<double>(g)) / sigma;
        iw.w[j] = std::exp(-0.5 * d * d);
      }
      iw.true_weight = iw.w[g - lo];  // exp(0) = 1, but read it anyway
    }

    ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                              BeliefFunction::Create(std::move(intervals)));
    return AdversaryModel{name(), params, std::move(belief),
                          std::move(weights)};
  }
};

}  // namespace

namespace internal {
std::unique_ptr<Adversary> MakeProbabilisticAdversary() {
  return std::make_unique<ProbabilisticAdversary>();
}
}  // namespace internal

}  // namespace adversary
}  // namespace anonsafe
