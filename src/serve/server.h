#ifndef ANONSAFE_SERVE_SERVER_H_
#define ANONSAFE_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/dataset_cache.h"
#include "serve/flight_recorder.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/result.h"

namespace anonsafe {
namespace serve {

/// \brief Server configuration.
struct ServerOptions {
  /// Requests executing concurrently. Each request still controls its own
  /// intra-request parallelism via its `threads` param — this bounds how
  /// many requests run at once, not how many cores one request uses.
  size_t workers = 1;

  /// Admitted-but-waiting requests beyond the running ones. A request
  /// arriving with `workers` running and `queue_capacity` waiting is
  /// refused immediately with `queue_full` — bounded-queue backpressure
  /// instead of unbounded buffering. 0 means "never wait": anything
  /// beyond the running slots is refused.
  size_t queue_capacity = 16;

  /// Request line size cap (see kDefaultMaxLineBytes).
  size_t max_line_bytes = kDefaultMaxLineBytes;

  /// Resident parsed datasets (LRU beyond this).
  size_t dataset_cache_capacity = 8;

  /// Default per-request deadline in milliseconds when the request does
  /// not carry `deadline_ms`; 0 = no deadline.
  uint64_t default_deadline_ms = 0;

  /// Turn the process-wide obs metrics switch on at construction so
  /// request latencies and cache hit/miss counters accumulate for the
  /// `metrics` verb.
  bool enable_metrics = true;

  /// Enables test-only verbs (`sleep`) used by the protocol tests to
  /// exercise deadlines, backpressure and drains deterministically.
  bool enable_test_verbs = false;

  /// Requests whose verb execution exceeds this many milliseconds get
  /// their merged span tree dumped as a `serve.slow_request` warn log
  /// line. 0 disables the threshold (and the tracing it implies).
  uint64_t slow_request_ms = 0;

  /// Request summaries retained by the flight recorder (the `debug`
  /// verb and the shutdown dump). Clamped to at least 1.
  size_t flight_recorder_capacity = 64;

  /// Items one `assess_risk_batch` request may carry; larger batches are
  /// refused with `invalid_params` (split them client-side).
  size_t max_batch_items = 256;

  /// Per-tenant token-bucket quota: `tenant_rate` requests per second
  /// per tenant, buckets hold (and start at) `tenant_burst` tokens.
  /// A tenant with an empty bucket gets `quota_exceeded` before
  /// admission. 0 disables quotas (the default).
  double tenant_rate = 0.0;
  double tenant_burst = 8.0;
};

/// \brief The long-running risk-assessment service core: newline-delimited
/// JSON requests in, one JSON response line per request out, independent
/// of the transport (stdio streams and the epoll TCP event loop both
/// funnel into `HandleLineAsync` / the blocking `HandleLine` wrapper).
///
/// Verbs are declared in a `HandlerRegistry` — each entry carries its
/// name, param schema and behaviour flags (control / observer /
/// test-only / v2-only), and `unknown_verb` / `invalid_params` errors
/// are generated uniformly from the table. Current verbs:
/// `load_dataset`, `assess_risk`, `assess_risk_batch` (v2),
/// `oestimate`, `similarity`, `metrics`, `debug`, `server_info`,
/// `shutdown` (see docs/SERVER.md for the schema). Responses are
/// deterministic: `assess_risk` returns the exact `RiskReport::ToJson`
/// document the one-shot CLI prints, bit-identical at any thread count,
/// and `assess_risk_batch` items are bit-identical to the equivalent
/// sequence of single requests.
///
/// Concurrency model: transports feed complete request lines to
/// `HandleLineAsync`, which never blocks the caller. Control verbs
/// (`metrics`, `debug`, `server_info`) answer inline; compute verbs
/// pass per-tenant quota and admission control (running ≤ workers,
/// waiting ≤ queue_capacity with fair-share draining across tenants,
/// else `queue_full`) and then execute on dedicated runner threads; a
/// request's own `ParallelForChunks` fan-outs (the batch verb, the alpha
/// sweep) borrow helpers from the process's exec pool, up to the
/// request's `threads`. A request's deadline rides on its ExecContext,
/// which reads as cancelled once it has passed. `shutdown` stops
/// admission and drains: every admitted request completes and its
/// response is handed to its callback before the shutdown response is
/// produced.
class Server {
 public:
  /// \brief Receives the finished response line (no trailing newline).
  /// Invoked exactly once per `HandleLineAsync` call — inline for
  /// protocol errors and control verbs, from a runner thread for
  /// compute verbs, and from whichever thread completes the drain for
  /// `shutdown`.
  using ResponseCallback = std::function<void(std::string)>;

  explicit Server(const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Processes one request line; `done` receives the response
  /// line. Never throws and never blocks on verb execution — the event
  /// loop calls this from its I/O thread. Safe to call from many
  /// threads.
  void HandleLineAsync(const std::string& line, ResponseCallback done);

  /// \brief Blocking wrapper around `HandleLineAsync`: returns the
  /// response line (no trailing newline). The streams transport and the
  /// in-process tests use this; per-connection ordering falls out of
  /// calling it back-to-back.
  std::string HandleLine(const std::string& line);

  /// \brief True once a `shutdown` request has been accepted; transports
  /// stop accepting new connections/lines.
  bool draining() const;

  /// \brief Requests admitted (waiting + running) right now. Exposed for
  /// tests that need to observe a request in flight.
  size_t outstanding() const;

  const ServerOptions& options() const { return options_; }
  DatasetCache& dataset_cache() { return cache_; }

  /// \brief Access to the flight recorder (exposed for tests).
  const FlightRecorder& flight_recorder() const { return recorder_; }

  /// \brief The verb table (exposed for tests and `server_info`).
  const HandlerRegistry& registry() const { return registry_; }

 private:
  /// One request in flight: parsed envelope, bookkeeping for the access
  /// log / flight recorder, and the completion callback.
  struct Job {
    Request request;
    const VerbSpec* spec = nullptr;
    RequestSummary record;
    ResponseCallback done;
    obs::Stopwatch wall;  ///< line in → response out
    std::chrono::steady_clock::time_point admitted_at{};
  };

  void BuildRegistry();

  /// Admission + scheduling for compute verbs; consumes the job.
  void Admit(std::unique_ptr<Job> job);
  /// Runner-thread entry: execute the verb, finalize, release the slot.
  void ExecuteJob(std::unique_ptr<Job> job);
  /// Runs the verb body with exec context / tracing / deadline attached.
  json::Value RunWithContext(Job* job);
  /// Finalizes (counters, access log, flight recorder) and invokes the
  /// callback. The single exit point every request funnels through.
  void Complete(std::unique_ptr<Job> job, json::Value response);
  /// Frees a running slot and schedules the next fair-share waiter.
  /// Called BEFORE the response is delivered: a client that pipelines
  /// its next request on seeing a response must find the slot free.
  void ReleaseSlot();
  /// Drain accounting after the response callback returned; fires
  /// pending shutdown completions once every admitted request's
  /// response has been delivered.
  void FinishDelivery();
  void RunnerLoop();

  void StartShutdown(std::unique_ptr<Job> job);
  void CompleteShutdown(std::unique_ptr<Job> job);

  /// The cached dataset named by the `dataset` param, or NotFound.
  Result<std::shared_ptr<const CachedDataset>> ResidentDataset(
      const json::Value& params);
  Result<json::Value> HandleLoadDataset(const json::Value& params);
  Result<json::Value> HandleAssessRisk(const json::Value& params,
                                       exec::ExecContext* ctx);
  Result<json::Value> HandleAssessRiskBatch(const json::Value& params,
                                            exec::ExecContext* ctx);
  Result<json::Value> HandleRecommendDefense(const json::Value& params,
                                             exec::ExecContext* ctx);
  Result<json::Value> HandleOEstimate(const json::Value& params,
                                      exec::ExecContext* ctx);
  Result<json::Value> HandleSimilarity(const json::Value& params,
                                       exec::ExecContext* ctx);
  Result<json::Value> HandleSleep(const json::Value& params,
                                  exec::ExecContext* ctx);
  json::Value HandleMetrics();
  json::Value HandleDebug();
  json::Value HandleServerInfo();

  void UpdateAdmissionGauges();  // callers hold mu_

  const ServerOptions options_;
  DatasetCache cache_;
  FlightRecorder recorder_;
  HandlerRegistry registry_;
  TenantQuotas quotas_;
  std::atomic<uint64_t> request_serial_{0};

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // work for a runner thread
  std::deque<std::unique_ptr<Job>> ready_;
  FairShareQueue<std::unique_ptr<Job>> wait_queue_;
  std::vector<std::unique_ptr<Job>> shutdown_waiters_;
  size_t running_ = 0;
  size_t waiting_ = 0;
  /// Admitted jobs whose response callback has not returned yet. Slots
  /// (running_/waiting_) free up before delivery; the shutdown drain
  /// waits on this instead so its answer never overtakes an in-flight
  /// response.
  size_t undelivered_ = 0;
  bool draining_ = false;
  bool runners_stop_ = false;
  std::vector<std::thread> runners_;
};

}  // namespace serve
}  // namespace anonsafe

#endif  // ANONSAFE_SERVE_SERVER_H_
