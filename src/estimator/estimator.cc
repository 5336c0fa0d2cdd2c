#include "estimator/estimator.h"

#include <string>

namespace anonsafe {

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kAuto:
      return "auto";
    case EstimatorKind::kOe:
      return "oe";
    case EstimatorKind::kExact:
      return "exact";
    case EstimatorKind::kSampler:
      return "sampler";
  }
  return "unknown";
}

Result<EstimatorKind> ParseEstimatorKind(const std::string& name) {
  if (name == "auto") return EstimatorKind::kAuto;
  if (name == "oe") return EstimatorKind::kOe;
  if (name == "exact") return EstimatorKind::kExact;
  if (name == "sampler") return EstimatorKind::kSampler;
  return Status::InvalidArgument(
      "unknown estimator \"" + name +
      "\" (expected auto, oe, exact, or sampler)");
}

const char* BlockMethodName(BlockMethod method) {
  switch (method) {
    case BlockMethod::kSingleton:
      return "singleton";
    case BlockMethod::kCompleteBipartite:
      return "complete_bipartite";
    case BlockMethod::kChain:
      return "chain";
    case BlockMethod::kPermanent:
      return "permanent";
    case BlockMethod::kOEstimate:
      return "oestimate";
    case BlockMethod::kSampler:
      return "sampler";
  }
  return "unknown";
}

Result<BlockMethod> ParseBlockMethod(const std::string& name) {
  if (name == "singleton") return BlockMethod::kSingleton;
  if (name == "complete_bipartite") return BlockMethod::kCompleteBipartite;
  if (name == "chain") return BlockMethod::kChain;
  if (name == "permanent") return BlockMethod::kPermanent;
  if (name == "oestimate") return BlockMethod::kOEstimate;
  if (name == "sampler") return BlockMethod::kSampler;
  return Status::InvalidArgument("unknown block method \"" + name + "\"");
}

}  // namespace anonsafe
