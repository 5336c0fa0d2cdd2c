#include "adversary/adversary.h"
#include "belief/builders.h"

namespace anonsafe {
namespace adversary {
namespace {

/// The paper's attacker: an interval-valued belief of half-width delta
/// around each true frequency. The registry default; `Bind` is exactly
/// the historical `MakeCompliantIntervalBelief(table, delta_med)` call,
/// which is what makes the refactored pipeline bit-identical to the
/// pre-registry releases.
class IntervalAdversary final : public Adversary {
 public:
  const char* name() const override { return "interval"; }

  AdversaryDescription Describe() const override {
    AdversaryDescription d;
    d.name = name();
    d.summary =
        "interval-valued belief of half-width delta_med around each true "
        "frequency (the paper's model; the default)";
    d.weighted = false;
    d.supports_exact = true;
    return d;
  }

  Status ValidateParams(const AdversaryParams& params) const override {
    return CheckAllowedParams(params, {}, kAdversaryNoun, name());
  }

  Result<AdversaryModel> Bind(const FrequencyTable& table,
                              const FrequencyGroups& groups, double delta,
                              const AdversaryParams& params) const override {
    (void)groups;
    ANONSAFE_RETURN_IF_ERROR(ValidateParams(params));
    ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                              MakeCompliantIntervalBelief(table, delta));
    return AdversaryModel{name(), params, std::move(belief), {}};
  }
};

}  // namespace

namespace internal {
std::unique_ptr<Adversary> MakeIntervalAdversary() {
  return std::make_unique<IntervalAdversary>();
}
}  // namespace internal

}  // namespace adversary
}  // namespace anonsafe
