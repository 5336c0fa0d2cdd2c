#ifndef ANONSAFE_ADVERSARY_ADVERSARY_H_
#define ANONSAFE_ADVERSARY_ADVERSARY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "util/json.h"
#include "util/params.h"
#include "util/result.h"

namespace anonsafe {
namespace adversary {

/// Spelled "adversary" in parameter errors.
inline constexpr char kAdversaryNoun[] = "adversary";

/// \brief Named numeric parameters of one adversary model (the shared
/// `ParamList`). They travel through RiskReport provenance and serve
/// requests.
using AdversaryParams = NamedParams<kAdversaryNoun>;

/// \brief "name" or "name:k=v,..." — the spec string ParseAdversarySpec
/// reads back, and the provenance / cache key of a bound model.
std::string AdversarySpecString(const std::string& name,
                                const AdversaryParams& params);

/// \brief Per-item weights of a weighted (probabilistic) adversary over
/// the item's consistent frequency groups.
///
/// `w[j]` is the adversary's weight for the group with index
/// `lo_group + j`; the covered window must equal the stab range of the
/// item's belief interval. Weights are unnormalized and must be
/// strictly positive — the weighted O-estimate divides by the
/// remaining-size-weighted sum over the window. `true_weight` is the
/// weight at the item's true group (the numerator of the crack
/// probability), recorded at bind time because the consistency
/// machinery never sees the truth.
struct ItemWeight {
  size_t lo_group = 0;
  double true_weight = 1.0;
  std::vector<double> w;
};

/// \brief A concrete adversary bound to one release: the structural
/// belief (which (item, frequency-group) assignments are consistent)
/// plus optional per-item weights (with what weight).
///
/// Every registered adversary produces contiguous per-item frequency
/// intervals, so the existing interval-stabbing / Fenwick consistency
/// machinery applies unchanged; weights generalize the uniform 1/O_x
/// crack probability to a weighted outdegree (docs/ADVERSARIES.md).
struct AdversaryModel {
  std::string adversary;   ///< producing adversary (registry name)
  AdversaryParams params;  ///< the exact parameters that produced it

  /// Structural support: item x is consistent with exactly the groups
  /// its interval stabs.
  BeliefFunction belief;

  /// One entry per item when weighted; empty for uniform adversaries.
  std::vector<ItemWeight> weights;

  bool weighted() const { return !weights.empty(); }

  /// "interval" or "probabilistic:span=2,sigma=1" — the provenance /
  /// cache key this model replays from.
  std::string SpecString() const {
    return AdversarySpecString(adversary, params);
  }
};

/// \brief Capability surface of one registered adversary, rendered into
/// `server_info` and docs tooling.
struct AdversaryDescription {
  std::string name;
  std::string summary;
  /// Produces per-item weights; only the O-estimate paths accept
  /// weighted models (planner/exact/sampler reject with Unimplemented).
  bool weighted = false;
  /// All estimator kinds (auto/exact/sampler) are valid for its models.
  bool supports_exact = true;
  /// Accepted parameter names, in canonical order.
  std::vector<std::string> params;

  json::Value ToJson() const;
};

/// \brief The polymorphic adversary interface: every attacker model is
/// a named entry that can validate its parameters and bind to a
/// concrete release, producing the consistency support (and weights)
/// the core risk pipeline consumes.
///
/// Registered implementations, in fixed registry order:
///  - `interval` — the paper's interval-valued belief of half-width
///    delta (default: the recipe's δ_med). The default; reproduces the
///    historical pipeline bit-for-bit.
///  - `probabilistic` — per-item distributions over frequency groups
///    (truncated Gaussian around the true group); the O-estimate
///    becomes a weighted outdegree.
///  - `exact_support` — worst-case background knowledge: the adversary
///    knows k item supports exactly (point intervals), everything else
///    is ignorant; composes with the powerset support-oracle attacks.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Registry name ("interval", "probabilistic", "exact_support").
  virtual const char* name() const = 0;

  /// Capability surface (name, summary, weightedness, params).
  virtual AdversaryDescription Describe() const = 0;

  /// InvalidArgument on unknown parameter names or out-of-range values.
  virtual Status ValidateParams(const AdversaryParams& params) const = 0;

  /// \brief Binds the adversary to one release. `groups` must be the
  /// grouping of `table`; `delta` is the interval half-width the recipe
  /// derived (δ_med) — adversaries that do not reason in intervals may
  /// ignore it. Deterministic: no RNG, same inputs, same model.
  virtual Result<AdversaryModel> Bind(const FrequencyTable& table,
                                      const FrequencyGroups& groups,
                                      double delta,
                                      const AdversaryParams& params) const = 0;

  /// \brief Every registered adversary, in fixed registry order
  /// (interval, probabilistic, exact_support). Process-lifetime
  /// singletons.
  static const std::vector<const Adversary*>& All();

  /// \brief Lookup by registry name; nullptr when unknown.
  static const Adversary* Find(const std::string& name);

  /// \brief Lookup by registry name; InvalidArgument listing the known
  /// names when unknown.
  static Result<const Adversary*> Require(const std::string& name);
};

/// \brief A parsed `--adversary` spec: registry name plus params.
struct AdversarySpec {
  std::string name = "interval";
  AdversaryParams params;

  /// "name" or "name:k=v,..." — inverse of ParseAdversarySpec.
  std::string ToString() const { return AdversarySpecString(name, params); }
};

/// \brief Parses "name[:k=v,...]" (the CLI `--adversary` flag and the
/// serve `adversary` request param). Validates the name against the
/// registry and the params against the named adversary; InvalidArgument
/// with the offending token otherwise.
Result<AdversarySpec> ParseAdversarySpec(const std::string& spec);

namespace internal {
/// Factories for the built-in adversaries, defined next to each
/// implementation; used only by the registry.
std::unique_ptr<Adversary> MakeIntervalAdversary();
std::unique_ptr<Adversary> MakeProbabilisticAdversary();
std::unique_ptr<Adversary> MakeExactSupportAdversary();
}  // namespace internal

}  // namespace adversary
}  // namespace anonsafe

#endif  // ANONSAFE_ADVERSARY_ADVERSARY_H_
