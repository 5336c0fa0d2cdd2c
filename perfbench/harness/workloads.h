// The four serve workloads: seeded inputs, request lines, and the
// in-process reference answers every response is checked against.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/fimi_io.h"

namespace perfbench {

/// One generated stand-in database, as FIMI text and as the server parses
/// it (references and the traced replay must see the server's item ids).
struct Dataset {
  std::string content;  ///< FIMI text sent inline to `load_dataset`
  std::string key;      ///< content hash: the protocol dataset handle
  anonsafe::LabeledDatabase data;
  std::string load_line;  ///< the `load_dataset` request line
};

/// One distinct request: a fixed line and the reference bytes of the part
/// of its answer that must match (`result.report` or `result.frontier`).
struct Shape {
  std::string label;     ///< e.g. "oe@0.05" (diagnostics only)
  std::string verb;      ///< "assess_risk" or "recommend_defense"
  size_t dataset = 0;    ///< index into Workload::datasets
  std::string line;      ///< the request line (no newline)
  std::string expected;  ///< reference bytes of the checked member
  /// Where the reference recipe stopped, with the quantities that decided
  /// it (diagnostics only).
  std::string decision;
};

/// A workload: resident or churned datasets, shapes, and the fixed order
/// in which the closed-loop clients issue them.
struct Workload {
  std::string name;
  /// True for `assess_churn`: each step is `load_dataset` of
  /// datasets[shape.dataset] followed by the shape's request.
  bool churn = false;
  size_t connections = 1;
  std::vector<Dataset> datasets;
  /// Resident workloads: every dataset is loaded during warm-up. Churn:
  /// only `warm_dataset` is, so every measured load misses the cache.
  size_t warm_dataset = 0;
  std::vector<Shape> shapes;
  /// Shape indices the clients issue in order (a shared counter walks
  /// it), so the request mix is the same in every run.
  std::vector<size_t> cycle;
  /// The same request with `threads: 1` (defense_sweep only), used by the
  /// traced run to measure intra-request scaling.
  std::string single_thread_line;
};

/// Builds `name`'s inputs from `seed` and computes every reference
/// answer in-process. `smoke` shrinks the inputs for the self-test.
/// Returns false with `error` set on an unknown name or a failed build.
bool BuildWorkload(const std::string& name, uint64_t seed, size_t nproc,
                   bool smoke, Workload* out, std::string* error);

/// The member of a response line that must match a shape's reference:
/// the bytes after `"<member>":` up to the envelope's closing braces.
/// Empty when the line is not an ok response carrying that member.
std::string ResponseMember(const std::string& response,
                           const std::string& member);

/// Runs `body(i)` for i in [0, n) on up to `threads` threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& body);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
