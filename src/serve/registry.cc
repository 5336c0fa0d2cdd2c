#include "serve/registry.h"

#include <cassert>
#include <cmath>
#include <string>

#include "adversary/adversary.h"
#include "estimator/estimator.h"
#include "graph/permanent.h"

namespace anonsafe {
namespace serve {
namespace {

using Type = json::Value::Type;

// Integer ranges: seeds are exact in a JSON number up to 2^53; the other
// caps keep one request from asking for more threads, runs or samples
// than a server could allocate.
constexpr uint64_t kMaxSeed = uint64_t{1} << 53;
constexpr uint64_t kMaxThreads = 1024;
constexpr uint64_t kMaxRuns = 1000;
constexpr uint64_t kMaxSamples = 1000;
constexpr uint64_t kMaxDeadlineMs = 86'400'000;  // one day

constexpr ParamSpec kTolerance{"tolerance", Type::kNumber};
constexpr ParamSpec kEstimator{"estimator", Type::kString};
constexpr ParamSpec kAdversary{"adversary", Type::kString};
constexpr ParamSpec kSeed{"seed", Type::kNumber, false, kMaxSeed};
constexpr ParamSpec kRuns{"runs", Type::kNumber, false, kMaxRuns};
constexpr ParamSpec kThreads{"threads", Type::kNumber, false, kMaxThreads};
constexpr ParamSpec kRyserCutoff{"ryser_cutoff", Type::kNumber, false,
                                 kMaxPermanentN};
constexpr ParamSpec kPreferSampler{"prefer_sampler", Type::kBool};
constexpr ParamSpec kDelta{"delta", Type::kNumber};

/// Reads a checked param: present means well-typed and in range.
template <typename T>
void Read(const json::Value& params, const char* name, T* out) {
  if (const json::Value* v = params.Find(name)) {
    *out = static_cast<T>(v->is_bool() ? v->AsBool() : v->AsDouble());
  }
}

}  // namespace

const char* JsonTypeName(json::Value::Type type) {
  switch (type) {
    case json::Value::Type::kNull:
      return "null";
    case json::Value::Type::kBool:
      return "bool";
    case json::Value::Type::kNumber:
      return "number";
    case json::Value::Type::kString:
      return "string";
    case json::Value::Type::kArray:
      return "array";
    case json::Value::Type::kObject:
      return "object";
  }
  return "?";
}

void HandlerRegistry::Register(VerbSpec spec) {
  assert(Find(spec.name) == nullptr && "duplicate verb registration");
  verbs_.push_back(std::move(spec));
}

const VerbSpec* HandlerRegistry::Find(const std::string& verb) const {
  for (const VerbSpec& spec : verbs_) {
    if (spec.name == verb) return &spec;
  }
  return nullptr;
}

Status CheckParams(const ParamTable& table, const json::Value& params,
                   const char* strict) {
  for (const ParamSpec& spec : table) {
    const json::Value* value = params.Find(spec.name);
    if (value == nullptr) {
      if (spec.required) {
        return Status::InvalidArgument(std::string("missing required param '") +
                                       spec.name + "'");
      }
      continue;
    }
    if (value->type() != spec.type) {
      return Status::InvalidArgument(std::string("param '") + spec.name +
                                     "' must be a " + JsonTypeName(spec.type) +
                                     ", got " + JsonTypeName(value->type()));
    }
    const double v = value->AsDouble();
    if (spec.max_int > 0 && !(v >= 0.0 && v == std::floor(v) &&
                              v <= static_cast<double>(spec.max_int))) {
      return Status::InvalidArgument(
          std::string("param '") + spec.name +
          "' must be an integer in [0, " + std::to_string(spec.max_int) +
          "], got " + json::NumberToString(v));
    }
  }
  for (const auto& member : params.members()) {
    if (strict != nullptr && FindParam(table, member.first) == nullptr) {
      return Status::InvalidArgument(std::string("unknown ") + strict +
                                     " param '" + member.first + "'");
    }
  }
  return Status::OK();
}

const ParamSpec* FindParam(const ParamTable& table, const std::string& name) {
  for (const ParamSpec& spec : table) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const ParamTables& VerbParams() {
  static const auto* kTables = new ParamTables{
      .generic = {kSeed, kRuns, kThreads,
                  {"deadline_ms", Type::kNumber, false, kMaxDeadlineMs},
                  {"trace", Type::kBool}},
      .assess_risk = {kTolerance, {"include_similarity_curve", Type::kBool},
                      kEstimator, kAdversary, kSeed, kRuns, kThreads},
      .recipe = {kTolerance, kEstimator, kAdversary, kSeed, kRuns, kThreads},
      .recommend_defense = {kRyserCutoff, kPreferSampler, kSeed, kThreads},
      .similarity = {{"samples_per_fraction", Type::kNumber, false,
                      kMaxSamples},
                     kSeed},
      .oestimate = {kDelta, {"propagate", Type::kBool}},
      .plan = {kDelta, kRyserCutoff, kPreferSampler, kAdversary},
  };
  return *kTables;
}

Result<RequestParams> BindRequestParams(const json::Value& params) {
  ANONSAFE_RETURN_IF_ERROR(CheckParams(VerbParams().generic, params));
  RequestParams out;
  Read(params, "seed", &out.exec.seed);
  Read(params, "runs", &out.exec.runs);
  Read(params, "threads", &out.exec.threads);
  if (const json::Value* v = params.Find("deadline_ms")) {
    out.deadline_ms = static_cast<uint64_t>(v->AsDouble());
  }
  Read(params, "trace", &out.trace);
  return out;
}

Result<RiskReportOptions> BindAssessRisk(const json::Value& params) {
  ANONSAFE_RETURN_IF_ERROR(CheckParams(VerbParams().assess_risk, params));
  RiskReportOptions out;
  RecipeOptions& recipe = out.recipe;
  Read(params, "tolerance", &recipe.tolerance);
  Read(params, "include_similarity_curve", &out.include_similarity_curve);
  if (const json::Value* v = params.Find("estimator")) {
    ANONSAFE_ASSIGN_OR_RETURN(recipe.estimator,
                              ParseEstimatorKind(v->AsString()));
  }
  // A spec "name[:k=v,...]"; the empty string means the default.
  if (const json::Value* v = params.Find("adversary");
      v != nullptr && !v->AsString().empty()) {
    ANONSAFE_ASSIGN_OR_RETURN(adversary::AdversarySpec spec,
                              adversary::ParseAdversarySpec(v->AsString()));
    recipe.adversary = std::move(spec.name);
    recipe.adversary_params = std::move(spec.params);
  }
  Read(params, "seed", &recipe.exec.seed);
  Read(params, "runs", &recipe.exec.runs);
  Read(params, "threads", &recipe.exec.threads);
  return out;
}

Result<DefenseRequest> BindRecommendDefense(const json::Value& params) {
  ANONSAFE_RETURN_IF_ERROR(
      CheckParams(VerbParams().recommend_defense, params));
  DefenseRequest out;
  Read(params, "ryser_cutoff", &out.optimizer.planner.ryser_cutoff);
  Read(params, "prefer_sampler", &out.optimizer.planner.prefer_sampler);
  Read(params, "seed", &out.exec.seed);
  Read(params, "threads", &out.exec.threads);
  return out;
}

Result<SimilarityOptions> BindSimilarity(const json::Value& params) {
  ANONSAFE_RETURN_IF_ERROR(CheckParams(VerbParams().similarity, params));
  SimilarityOptions out;
  Read(params, "samples_per_fraction", &out.samples_per_fraction);
  Read(params, "seed", &out.exec.seed);
  return out;
}

Result<OEstimateRequest> BindOEstimate(const json::Value& params) {
  ANONSAFE_RETURN_IF_ERROR(CheckParams(VerbParams().oestimate, params));
  OEstimateRequest out;
  if (const json::Value* v = params.Find("delta")) out.delta = v->AsDouble();
  Read(params, "propagate", &out.oestimate.propagate);
  return out;
}

}  // namespace serve
}  // namespace anonsafe
