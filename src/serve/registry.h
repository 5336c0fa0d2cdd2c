#ifndef ANONSAFE_SERVE_REGISTRY_H_
#define ANONSAFE_SERVE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/oestimate.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "defense/optimizer.h"
#include "exec/exec.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/result.h"

namespace anonsafe {
namespace serve {

/// \brief One declared parameter of a verb. The same entry is the serve
/// param `ryser_cutoff` and the CLI flag `--ryser-cutoff`. Defaults are
/// not part of the table: they are the initializers of the options
/// struct the verb's binder fills.
struct ParamSpec {
  const char* name;
  json::Value::Type type;
  bool required = false;
  /// Integer params: the value must be a whole number in [0, max_int],
  /// so a binder's cast to an integer type is always defined. 0 marks a
  /// param that is not an integer.
  uint64_t max_int = 0;
};

using ParamTable = std::vector<ParamSpec>;

/// \brief "string", "number", "bool", "array", "object" or "null".
const char* JsonTypeName(json::Value::Type type);

/// \brief The one validator: required params present, declared params
/// of the declared type, integers whole and in range. Undeclared keys
/// are ignored (the protocol's additive-change policy) unless `strict`
/// names the object ("batch item"). InvalidArgument (→ `invalid_params`)
/// otherwise.
Status CheckParams(const ParamTable& table, const json::Value& params,
                   const char* strict = nullptr);

/// \brief The entry of `table` named `name`; null when undeclared.
const ParamSpec* FindParam(const ParamTable& table, const std::string& name);

/// \brief One param table per verb. The serve verbs add a required
/// `dataset` handle; the CLI commands take a file path instead.
struct ParamTables {
  /// Every compute verb: `seed`, `runs`, `threads`, `deadline_ms`,
  /// `trace` — the request's execution context.
  ParamTable generic;
  ParamTable assess_risk;  ///< also each batch item and CLI `report`
  ParamTable recipe;  ///< CLI `assess`: assess_risk minus the curve flag
  ParamTable recommend_defense;
  ParamTable similarity;
  ParamTable oestimate;
  /// CLI `plan`: oestimate's `delta`, recommend_defense's planner knobs
  /// and assess_risk's `adversary`, each read by that verb's binder.
  ParamTable plan;
};
const ParamTables& VerbParams();

/// \name Binders: each checks `params` against its table, then reads the
/// params present into the verb's options; absent ones keep the defaults.
/// @{
struct RequestParams {
  exec::ExecOptions exec;
  std::optional<uint64_t> deadline_ms;  ///< absent: the server default
  bool trace = false;
};
Result<RequestParams> BindRequestParams(const json::Value& params);

Result<RiskReportOptions> BindAssessRisk(const json::Value& params);

struct DefenseRequest {
  defense::OptimizerOptions optimizer;
  exec::ExecOptions exec;
};
Result<DefenseRequest> BindRecommendDefense(const json::Value& params);

Result<SimilarityOptions> BindSimilarity(const json::Value& params);

/// `delta` stays empty when absent: its default, the dataset's δ_med, is
/// known only once the data is.
struct OEstimateRequest {
  std::optional<double> delta;
  OEstimateOptions oestimate;
};
Result<OEstimateRequest> BindOEstimate(const json::Value& params);
/// @}

/// \name Verb behaviour flags.
/// @{
/// Answers without passing admission control: works on a saturated or
/// draining server (metrics, debug, server_info, shutdown).
inline constexpr uint32_t kVerbControl = 1u << 0;
/// Excluded from the flight recorder and exempt from tenant quotas — an
/// observer of the server, not a request worth debugging (metrics,
/// debug, server_info).
inline constexpr uint32_t kVerbObserver = 1u << 1;
/// Registered only when `ServerOptions::enable_test_verbs` is set;
/// otherwise resolves to `unknown_verb` exactly like an absent entry.
inline constexpr uint32_t kVerbTestOnly = 1u << 2;
/// Requires a v2 envelope: a v1 request naming the verb gets
/// `unknown_verb` (the verb does not exist in its protocol).
inline constexpr uint32_t kVerbV2Only = 1u << 3;
/// @}

struct Request;

/// \brief One verb: name, param schema, flags, handler. The handler runs
/// on a request-runner thread for compute verbs and inline on the
/// calling (transport) thread for control verbs; `ctx` is null for
/// control verbs, which never execute work worth cancelling.
struct VerbSpec {
  std::string name;
  ParamTable params;
  uint32_t flags = 0;
  std::function<Result<json::Value>(const Request&, exec::ExecContext*)>
      handler;

  bool is_control() const { return (flags & kVerbControl) != 0; }
  bool is_observer() const { return (flags & kVerbObserver) != 0; }
  bool is_test_only() const { return (flags & kVerbTestOnly) != 0; }
  bool is_v2_only() const { return (flags & kVerbV2Only) != 0; }
};

/// \brief The verb table: declarative registration, uniform
/// `unknown_verb` / `invalid_params` generation, and the machine-readable
/// listing `server_info` advertises. Built once at server construction
/// and immutable afterwards, so lookups are lock-free.
class HandlerRegistry {
 public:
  /// \brief Registers a verb; names must be unique.
  void Register(VerbSpec spec);

  /// \brief Lookup by name; null when the verb does not exist.
  const VerbSpec* Find(const std::string& verb) const;

  /// \brief Registration order listing, for `server_info`.
  const std::vector<VerbSpec>& verbs() const { return verbs_; }

 private:
  std::vector<VerbSpec> verbs_;
};

}  // namespace serve
}  // namespace anonsafe

#endif  // ANONSAFE_SERVE_REGISTRY_H_
