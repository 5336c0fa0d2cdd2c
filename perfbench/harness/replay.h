// The traced in-process run: each request line goes through
// `serve::Server::HandleLine` (timed), then is replayed through the
// public calls the server makes, each wrapped in a benchmark span.
#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// One timed call into a layer.
struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since the recorder was created
  double end_ms = 0.0;
  int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;   ///< the replayed request this span belongs to
};

/// Keeps spans in memory; written out once the run ends.
class SpanRecorder {
 public:
  void BeginRequest(uint64_t request) { request_ = request; }
  size_t Open(const char* name);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Total duration and count of the spans called `name`.
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Root-span durations minus the time their direct children cover.
  double RootSelfMs() const;
  double RootTotalMs() const;

  /// One JSON object per line; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
  uint64_t request_ = 0;
};

/// What the traced run measured.
struct TraceOutcome {
  size_t requests = 0;            ///< replayed requests
  std::vector<double> handle_ms;  ///< HandleLine time of each
  /// Median HandleLine time of the request exactly as the TCP clients
  /// send it (for defense_sweep: at nproc threads; the replayed list
  /// uses the 1-thread form).
  double handle_as_sent_ms = 0.0;
  double defense_speedup = 0.0;   ///< 1-thread over nproc-thread sweep
  size_t mismatches = 0;  ///< replayed bytes differing from HandleLine's
  size_t failures = 0;    ///< HandleLine answers that were not ok/correct
  size_t unstable_counts = 0;  ///< counters not repeating between passes
  std::map<std::string, double> counts;  ///< per-method blocks, candidates
  SpanRecorder spans;
};

/// Runs the traced pass over `w`'s request lines.
TraceOutcome RunTraced(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
