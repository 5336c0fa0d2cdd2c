#include "serve/server.h"

#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <utility>

#include "adversary/adversary.h"
#include "belief/builders.h"
#include "core/oestimate.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "defense/optimizer.h"
#include "graph/simd_kernels.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace anonsafe {
namespace serve {
namespace {

/// The outcome code a response line reduces to: "ok", or the protocol
/// error code. Drives the access log, the flight recorder and the
/// per-verb request counter.
std::string ResponseOutcome(const json::Value& response) {
  const json::Value* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) return "ok";
  if (const json::Value* error = response.Find("error")) {
    if (const json::Value* code = error->Find("code")) {
      if (code->is_string()) return code->AsString();
    }
  }
  return kErrInternal;
}

json::Value RenderOutcome(const json::Value& id, Result<json::Value> outcome,
                          int64_t version) {
  if (outcome.ok()) return MakeOkResponse(id, std::move(*outcome), version);
  return MakeErrorResponse(id, ErrorCodeForStatus(outcome.status()),
                           outcome.status().message(), version);
}

/// A dataset verb's table: the required `dataset`, then its own params.
ParamTable WithDataset(const ParamTable& params) {
  ParamTable table{{"dataset", json::Value::Type::kString, true}};
  table.insert(table.end(), params.begin(), params.end());
  return table;
}

/// One `assess_risk_batch` item: bound and run exactly like a single
/// assess_risk carrying its params, which must all be declared — the
/// request-level `deadline_ms`/`trace`/`tenant` in an item are errors.
Result<json::Value> RunOneBatchItem(const CachedDataset& ds,
                                    const json::Value& item,
                                    exec::ExecContext* ctx) {
  if (!item.is_object()) {
    return Status::InvalidArgument("batch item must be an object");
  }
  ANONSAFE_RETURN_IF_ERROR(
      CheckParams(VerbParams().assess_risk, item, "batch item"));
  ANONSAFE_ASSIGN_OR_RETURN(RiskReportOptions options, BindAssessRisk(item));
  ANONSAFE_ASSIGN_OR_RETURN(
      RiskReport report,
      BuildRiskReport(ds.data, options, ctx, ds.artifacts.get()));
  return report.ToJson();
}

/// Per-item envelope: `{"ok":true,"report":...}` or
/// `{"ok":false,"error":{"code":...,"message":...}}`. One bad item never
/// fails its siblings — results stay positional.
json::Value BatchItemEnvelope(Result<json::Value> outcome) {
  json::Value env = json::Value::Object();
  if (outcome.ok()) {
    env.Set("ok", json::Value(true));
    env.Set("report", std::move(*outcome));
    return env;
  }
  json::Value err = json::Value::Object();
  err.Set("code", json::Value(ErrorCodeForStatus(outcome.status())));
  err.Set("message", json::Value(outcome.status().message()));
  env.Set("ok", json::Value(false));
  env.Set("error", std::move(err));
  return env;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_([&] {
        ServerOptions o = options;
        if (o.workers == 0) o.workers = 1;
        if (o.max_batch_items == 0) o.max_batch_items = 1;
        return o;
      }()),
      cache_(options_.dataset_cache_capacity),
      recorder_(options_.flight_recorder_capacity),
      quotas_(options_.tenant_rate, options_.tenant_burst) {
  if (options_.enable_metrics) obs::SetMetricsEnabled(true);
  BuildRegistry();
  runners_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Orphaned waiters (a transport that died without draining) still
    // get their callbacks: promote everything, then let the runners
    // finish the backlog before exiting.
    while (!wait_queue_.empty()) {
      --waiting_;
      ++running_;
      ready_.push_back(wait_queue_.Pop());
    }
    runners_stop_ = true;
  }
  ready_cv_.notify_all();
  for (std::thread& t : runners_) t.join();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

size_t Server::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_ + waiting_;
}

std::string Server::HandleLine(const std::string& line) {
  std::promise<std::string> response;
  HandleLineAsync(line,
                  [&response](std::string text) { response.set_value(std::move(text)); });
  return response.get_future().get();
}

void Server::HandleLineAsync(const std::string& line, ResponseCallback done) {
  auto job = std::make_unique<Job>();
  job->done = std::move(done);
  job->record.serial =
      request_serial_.fetch_add(1, std::memory_order_relaxed) + 1;

  ParsedLine parsed = ParseRequestLine(line, options_.max_line_bytes);
  if (!parsed.ok) {
    Complete(std::move(job), std::move(parsed.error));
    return;
  }
  job->request = std::move(parsed.request);
  job->record.verb = job->request.verb;
  job->record.tenant = job->request.tenant;
  const Request& request = job->request;

  const VerbSpec* spec = registry_.Find(request.verb);
  if (spec != nullptr && spec->is_test_only() && !options_.enable_test_verbs) {
    spec = nullptr;  // gated off: indistinguishable from absent
  }
  if (spec == nullptr) {
    Complete(std::move(job),
             MakeErrorResponse(request.id, kErrUnknownVerb,
                               "unknown verb '" + request.verb + "'",
                               request.schema_version));
    return;
  }
  if (spec->is_v2_only() && request.schema_version < 2) {
    // The verb does not exist in the v1 protocol; to a v1 client this
    // is indistinguishable from talking to a v1 server.
    Complete(std::move(job),
             MakeErrorResponse(request.id, kErrUnknownVerb,
                               "unknown verb '" + request.verb +
                                   "' (requires schema_version >= 2)",
                               request.schema_version));
    return;
  }
  job->spec = spec;

  Status valid = CheckParams(spec->params, request.params);
  if (valid.ok() && !spec->is_control()) {
    valid = CheckParams(VerbParams().generic, request.params);
  }
  if (!valid.ok()) {
    Complete(std::move(job),
             MakeErrorResponse(request.id, kErrInvalidParams, valid.message(),
                               request.schema_version));
    return;
  }

  // Per-tenant quota, charged before admission so an over-quota tenant
  // cannot even occupy queue slots. Observer verbs are exempt — an
  // operator polling `metrics` must not spend the tenant's budget — and
  // control verbs never queue anyway.
  if (!spec->is_control() && !spec->is_observer() && quotas_.enabled() &&
      !quotas_.TryAcquire(request.tenant)) {
    obs::CountIf("anonsafe_serve_quota_rejections_total");
    const std::string who =
        request.tenant.empty() ? "(anonymous)" : request.tenant;
    Complete(std::move(job),
             MakeErrorResponse(request.id, kErrQuotaExceeded,
                               "tenant '" + who + "' is over its request "
                               "quota; retry after a refill interval",
                               request.schema_version));
    return;
  }

  if (spec->is_control()) {
    if (request.verb == "shutdown") {
      StartShutdown(std::move(job));
      return;
    }
    // Control verbs answer inline on the calling thread: they must work
    // on a saturated or draining server, which is exactly when no
    // runner slot would be available.
    Result<json::Value> outcome = spec->handler(request, nullptr);
    json::Value response =
        RenderOutcome(request.id, std::move(outcome), request.schema_version);
    Complete(std::move(job), std::move(response));
    return;
  }
  Admit(std::move(job));
}

void Server::Admit(std::unique_ptr<Job> job) {
  json::Value refusal;
  bool refused = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      refusal = MakeErrorResponse(job->request.id, kErrShuttingDown,
                                  "server is shutting down",
                                  job->request.schema_version);
      refused = true;
    } else if (running_ < options_.workers) {
      ++running_;
      ++undelivered_;
      job->admitted_at = std::chrono::steady_clock::now();
      ready_.push_back(std::move(job));
      UpdateAdmissionGauges();
    } else if (waiting_ < options_.queue_capacity) {
      // Admitted: once counted in waiting_ the request WILL run — a
      // concurrent shutdown drains it rather than dropping it. The wait
      // queue is fair-share across tenants so one tenant's burst cannot
      // starve another's single request.
      ++waiting_;
      ++undelivered_;
      job->admitted_at = std::chrono::steady_clock::now();
      const std::string tenant = job->request.tenant;
      wait_queue_.Push(tenant, std::move(job));
      UpdateAdmissionGauges();
    } else {
      refusal = MakeErrorResponse(
          job->request.id, kErrQueueFull,
          "request queue is full (" + std::to_string(options_.workers) +
              " running, " + std::to_string(waiting_) + " waiting)",
          job->request.schema_version);
      refused = true;
    }
  }
  if (refused) {
    Complete(std::move(job), std::move(refusal));
    return;
  }
  ready_cv_.notify_one();
}

void Server::RunnerLoop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock, [&] { return runners_stop_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stopping and nothing left to drain
      job = std::move(ready_.front());
      ready_.pop_front();
    }
    ExecuteJob(std::move(job));
  }
}

void Server::ExecuteJob(std::unique_ptr<Job> job) {
  job->record.queue_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job->admitted_at)
          .count() *
      1e3;
  json::Value response = RunWithContext(job.get());
  // The slot is released BEFORE the response is delivered: a client
  // that pipelines its next request the moment it sees this response
  // must find the slot free, not racily hit queue_full. The shutdown
  // drain waits on undelivered_ (decremented after the callback
  // returns), so its answer still never overtakes an in-flight one.
  ReleaseSlot();
  Complete(std::move(job), std::move(response));
  FinishDelivery();
}

json::Value Server::RunWithContext(Job* job) {
  const Request& request = job->request;
  RequestSummary* record = &job->record;
  Result<json::Value> outcome =
      Status::Internal("request task never ran");  // overwritten below
  // Created when the client opted in (`"trace": true`), when the server
  // watches for slow requests, or when process-wide tracing is on. One
  // tree per request: the scope below installs it on the runner thread,
  // and ExecContext carries it into nested parallel fan-outs.
  std::unique_ptr<obs::TraceContext> trace_context;
  Result<RequestParams> bound = BindRequestParams(request.params);
  if (!bound.ok()) {
    outcome = bound.status();
  } else {
    if (bound->trace || options_.slow_request_ms > 0 ||
        obs::TracingEnabled()) {
      trace_context = std::make_unique<obs::TraceContext>(
          "req-" + std::to_string(record->serial));
      record->trace_id = trace_context->trace_id();
    }
    exec::ExecContext ctx(bound->exec);
    ctx.set_trace(trace_context.get());

    const uint64_t deadline_ms =
        bound->deadline_ms.value_or(options_.default_deadline_ms);
    if (deadline_ms > 0) {
      ctx.set_deadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms));
    }
    obs::Stopwatch exec_watch;
    {
      obs::TraceContextScope trace_scope(trace_context.get());
      outcome = job->spec->handler(request, &ctx);
    }
    record->exec_ms = exec_watch.Seconds() * 1e3;
    if (outcome.status().IsCancelled()) {
      obs::CountIf("anonsafe_serve_deadline_cancels_total");
    }
  }

  // Provenance for the access log / flight recorder: the dataset key
  // (the request param, or the content hash `load_dataset` computed)
  // and the estimator the risk report actually used (per-request
  // provenance, not the requested default).
  if (const json::Value* ds = request.params.Find("dataset")) {
    if (ds->is_string()) record->dataset = ds->AsString();
  }
  if (outcome.ok()) {
    if (const json::Value* ds = outcome->Find("dataset")) {
      if (ds->is_string()) record->dataset = ds->AsString();
    }
    if (request.verb == "assess_risk") {
      if (const json::Value* report = outcome->Find("report")) {
        if (const json::Value* recipe = report->Find("recipe")) {
          if (const json::Value* est = recipe->Find("estimator")) {
            if (est->is_string()) record->estimator = est->AsString();
          }
          // Present only for non-default adversaries — the absence IS
          // the interval-adversary provenance.
          if (const json::Value* adv = recipe->Find("adversary")) {
            if (adv->is_string()) record->adversary = adv->AsString();
          }
        }
      }
    }
    if (request.verb == "recommend_defense") {
      if (const json::Value* frontier = outcome->Find("frontier")) {
        if (const json::Value* v = frontier->Find("num_candidates")) {
          if (v->is_number()) {
            record->candidates = static_cast<uint64_t>(v->AsDouble());
          }
        }
        if (const json::Value* v = frontier->Find("frontier_size")) {
          if (v->is_number()) {
            record->frontier_size = static_cast<uint64_t>(v->AsDouble());
          }
        }
      }
    }
  }

  // Slow-request autopsy: the merged span tree, as a warn log line,
  // while the request is still the freshest thing in the recorder.
  if (options_.slow_request_ms > 0 && trace_context != nullptr &&
      record->exec_ms > static_cast<double>(options_.slow_request_ms) &&
      obs::LogEnabled(obs::LogLevel::kWarn)) {
    obs::LogFields fields;
    fields.emplace_back("trace_id", json::Value(record->trace_id));
    fields.emplace_back("verb", json::Value(request.verb));
    fields.emplace_back("exec_ms", json::Value(record->exec_ms));
    fields.emplace_back("slow_request_ms",
                        json::Value(uint64_t{options_.slow_request_ms}));
    fields.emplace_back("trace_table",
                        json::Value(trace_context->tracer().RenderTable()));
    obs::Log(obs::LogLevel::kWarn, "serve.slow_request", std::move(fields));
  }

  json::Value response =
      RenderOutcome(request.id, std::move(outcome), request.schema_version);

  // The opt-in trace rides on the envelope, not inside `result`, so the
  // result document stays bit-identical to the untraced (and one-shot
  // CLI) output.
  if (bound.ok() && bound->trace && trace_context != nullptr) {
    json::Value trace = json::Value::Object();
    trace.Set("trace_id", json::Value(record->trace_id));
    Result<json::Value> spans =
        json::Value::Parse(trace_context->tracer().ToJson());
    if (spans.ok()) trace.Set("spans", std::move(*spans));
    response.Set("trace", std::move(trace));
  }
  return response;
}

void Server::Complete(std::unique_ptr<Job> job, json::Value response) {
  RequestSummary& record = job->record;
  const double total_s = job->wall.Seconds();
  record.total_ms = total_s * 1e3;
  record.outcome = ResponseOutcome(response);
  if (record.outcome != "ok") obs::CountIf("anonsafe_serve_errors_total");
  if (obs::MetricsEnabled()) {
    obs::TimerHistogram("serve.request")->Observe(total_s);
    obs::TimerCounter("serve.request")->Increment();
    obs::MetricsRegistry::Global()
        .GetCounterWithLabels(
            "anonsafe_serve_requests_total",
            {{"verb", record.verb.empty() ? "(invalid)" : record.verb},
             {"outcome", record.outcome}},
            "serve requests by verb and outcome")
        ->Increment();
    if (!record.tenant.empty()) {
      obs::MetricsRegistry::Global()
          .GetCounterWithLabels("anonsafe_serve_tenant_requests_total",
                                {{"tenant", record.tenant}},
                                "serve requests by tenant")
          ->Increment();
    }
  }
  // The per-request access log. Guarded so a server at error/warn level
  // pays nothing per request beyond the atomic load.
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    obs::LogFields fields;
    fields.emplace_back("serial", json::Value(uint64_t{record.serial}));
    fields.emplace_back("verb", json::Value(record.verb));
    fields.emplace_back("outcome", json::Value(record.outcome));
    if (!record.tenant.empty()) {
      fields.emplace_back("tenant", json::Value(record.tenant));
    }
    if (!record.dataset.empty()) {
      fields.emplace_back("dataset", json::Value(record.dataset));
    }
    if (!record.estimator.empty()) {
      fields.emplace_back("estimator", json::Value(record.estimator));
    }
    if (!record.adversary.empty()) {
      fields.emplace_back("adversary", json::Value(record.adversary));
    }
    if (record.candidates > 0) {
      fields.emplace_back("candidates",
                          json::Value(uint64_t{record.candidates}));
      fields.emplace_back("frontier_size",
                          json::Value(uint64_t{record.frontier_size}));
    }
    fields.emplace_back("queue_ms", json::Value(record.queue_ms));
    fields.emplace_back("exec_ms", json::Value(record.exec_ms));
    fields.emplace_back("total_ms", json::Value(record.total_ms));
    if (!record.trace_id.empty()) {
      fields.emplace_back("trace_id", json::Value(record.trace_id));
    }
    obs::Log(obs::LogLevel::kInfo, "serve.request", std::move(fields));
  }
  // Keep observer verbs out of the ring: a dashboard polling
  // `metrics`/`debug`/`server_info` must not evict the requests worth
  // debugging.
  if (job->spec == nullptr || !job->spec->is_observer()) {
    recorder_.Record(std::move(record));
  }
  ResponseCallback done = std::move(job->done);
  std::string text = response.Dump();
  job.reset();
  done(std::move(text));
}

void Server::ReleaseSlot() {
  bool promoted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    if (!wait_queue_.empty()) {
      --waiting_;
      ++running_;
      ready_.push_back(wait_queue_.Pop());
      promoted = true;
    }
    UpdateAdmissionGauges();
  }
  if (promoted) ready_cv_.notify_one();
}

void Server::FinishDelivery() {
  std::vector<std::unique_ptr<Job>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --undelivered_;
    if (draining_ && undelivered_ == 0) {
      drained.swap(shutdown_waiters_);
    }
  }
  for (std::unique_ptr<Job>& job : drained) {
    CompleteShutdown(std::move(job));
  }
}

void Server::StartShutdown(std::unique_ptr<Job> job) {
  bool drained_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    if (undelivered_ == 0) {
      drained_now = true;
    } else {
      // The drain completes on whichever runner delivers the last
      // response; that thread answers the shutdown (FinishDelivery).
      shutdown_waiters_.push_back(std::move(job));
    }
  }
  if (drained_now) CompleteShutdown(std::move(job));
}

void Server::CompleteShutdown(std::unique_ptr<Job> job) {
  // Graceful-shutdown dump: the flight recorder's content would die with
  // the process; emit it while the log sink is still alive (and before
  // the shutdown request itself is recorded).
  if (obs::LogEnabled(obs::LogLevel::kInfo)) {
    json::Value requests = json::Value::Array();
    for (const RequestSummary& summary : recorder_.Snapshot()) {
      requests.Append(RequestSummaryToJson(summary));
    }
    obs::LogFields fields;
    fields.emplace_back("recorded",
                        json::Value(uint64_t{recorder_.total_recorded()}));
    fields.emplace_back("requests", std::move(requests));
    obs::Log(obs::LogLevel::kInfo, "serve.flight_recorder_dump",
             std::move(fields));
  }
  json::Value result = json::Value::Object();
  result.Set("drained", json::Value(true));
  json::Value response = MakeOkResponse(job->request.id, std::move(result),
                                        job->request.schema_version);
  Complete(std::move(job), std::move(response));
}

void Server::UpdateAdmissionGauges() {
  obs::GaugeIf("anonsafe_serve_running", static_cast<double>(running_));
  obs::GaugeIf("anonsafe_serve_queue_depth", static_cast<double>(waiting_));
}

void Server::BuildRegistry() {
  using Type = json::Value::Type;
  registry_.Register(
      {"load_dataset",
       {{"path", Type::kString}, {"content", Type::kString}},
       0,
       [this](const Request& req, exec::ExecContext*) {
         return HandleLoadDataset(req.params);
       }});
  // A compute verb's handler reads the request params and runs on `ctx`.
  auto compute = [this](Result<json::Value> (Server::*handle)(
                            const json::Value&, exec::ExecContext*)) {
    return [this, handle](const Request& req, exec::ExecContext* ctx) {
      return (this->*handle)(req.params, ctx);
    };
  };
  const ParamTables& tables = VerbParams();
  registry_.Register({"assess_risk", WithDataset(tables.assess_risk), 0,
                      compute(&Server::HandleAssessRisk)});
  registry_.Register({"assess_risk_batch",
                      WithDataset({{"items", Type::kArray, true}}),
                      kVerbV2Only, compute(&Server::HandleAssessRiskBatch)});
  registry_.Register({"recommend_defense",
                      WithDataset(tables.recommend_defense), kVerbV2Only,
                      compute(&Server::HandleRecommendDefense)});
  registry_.Register({"oestimate", WithDataset(tables.oestimate), 0,
                      compute(&Server::HandleOEstimate)});
  registry_.Register({"similarity", WithDataset(tables.similarity), 0,
                      compute(&Server::HandleSimilarity)});
  registry_.Register({"sleep",
                      {{"millis", Type::kNumber, true, 3'600'000}},  // 1 h
                      kVerbTestOnly, compute(&Server::HandleSleep)});
  registry_.Register({"metrics",
                      {},
                      kVerbControl | kVerbObserver,
                      [this](const Request&, exec::ExecContext*)
                          -> Result<json::Value> { return HandleMetrics(); }});
  registry_.Register({"debug",
                      {},
                      kVerbControl | kVerbObserver,
                      [this](const Request&, exec::ExecContext*)
                          -> Result<json::Value> { return HandleDebug(); }});
  registry_.Register(
      {"server_info",
       {},
       kVerbControl | kVerbObserver,
       [this](const Request&, exec::ExecContext*) -> Result<json::Value> {
         return HandleServerInfo();
       }});
  // shutdown is special-cased in HandleLineAsync: its response must wait
  // for the drain, which no synchronous handler can express.
  registry_.Register({"shutdown", {}, kVerbControl, nullptr});
}

Result<std::shared_ptr<const CachedDataset>> Server::ResidentDataset(
    const json::Value& params) {
  ANONSAFE_ASSIGN_OR_RETURN(std::string key, params.GetString("dataset"));
  std::shared_ptr<const CachedDataset> ds = cache_.Find(key);
  if (ds == nullptr) {
    return Status::NotFound("dataset '" + key +
                            "' is not resident; call load_dataset first");
  }
  return ds;
}

Result<json::Value> Server::HandleLoadDataset(const json::Value& params) {
  obs::ScopedTimer timer("serve.load_dataset");
  // Inline content is parsed where the request holds it, not copied.
  std::string file_content;
  const std::string* content = &file_content;
  if (const json::Value* inline_content = params.Find("content")) {
    content = &inline_content->AsString();  // type-checked upstream
  } else {
    ANONSAFE_ASSIGN_OR_RETURN(std::string path, params.GetString("path"));
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) return Status::IOError("error reading '" + path + "'");
    file_content = std::move(buffer).str();
  }
  ANONSAFE_ASSIGN_OR_RETURN(DatasetCache::LoadOutcome outcome,
                            cache_.LoadFromContent(*content));
  const CachedDataset& ds = *outcome.dataset;
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds.key));
  result.Set("cached", json::Value(outcome.hit));
  result.Set("num_items",
             json::Value(uint64_t{ds.data.database().num_items()}));
  result.Set("num_transactions",
             json::Value(uint64_t{ds.data.database().num_transactions()}));
  result.Set("num_groups",
             json::Value(uint64_t{ds.data.groups().num_groups()}));
  return result;
}

Result<json::Value> Server::HandleAssessRisk(const json::Value& params,
                                             exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.assess_risk");
  ANONSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDataset> ds,
                            ResidentDataset(params));
  // The same binder as the one-shot CLI `report`, so the document is
  // byte-identical to `report --json` with the matching flags.
  ANONSAFE_ASSIGN_OR_RETURN(RiskReportOptions options, BindAssessRisk(params));
  ANONSAFE_ASSIGN_OR_RETURN(
      RiskReport report,
      BuildRiskReport(ds->data, options, ctx, ds->artifacts.get()));
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds->key));
  result.Set("report", report.ToJson());
  return result;
}

Result<json::Value> Server::HandleAssessRiskBatch(const json::Value& params,
                                                  exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.assess_risk_batch");
  ANONSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDataset> ds,
                            ResidentDataset(params));
  const json::Value& items = *params.Find("items");  // type-checked upstream
  const std::vector<json::Value>& list = items.items();
  if (list.empty()) {
    return Status::InvalidArgument("'items' must be a non-empty array");
  }
  if (list.size() > options_.max_batch_items) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(list.size()) +
        " items exceeds max_batch_items (" +
        std::to_string(options_.max_batch_items) + "); split the request");
  }
  if (timer.tracing()) timer.Annotate("items", std::to_string(list.size()));

  // Fan the items out across the request's own threads. Chunk geometry
  // depends only on (n, grain), and each item's document depends only on
  // its own params, so the batch is bit-identical at any thread count —
  // and item i is bit-identical to a single assess_risk with the same
  // params. Identical items are memoized within the batch: probe grids
  // routinely repeat an anchor configuration, and recomputing it would
  // change nothing observable but the latency.
  std::mutex memo_mu;
  std::map<std::string, json::Value> memo;
  std::vector<json::Value> slots(list.size());
  ANONSAFE_RETURN_IF_ERROR(exec::ParallelForChunks(
      ctx, list.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          if (ctx != nullptr && ctx->cancelled()) {
            return Status::Cancelled("assess_risk_batch cancelled");
          }
          const std::string memo_key = list[i].Dump();
          {
            std::lock_guard<std::mutex> lock(memo_mu);
            auto it = memo.find(memo_key);
            if (it != memo.end()) {
              slots[i] = it->second;
              continue;
            }
          }
          json::Value env = BatchItemEnvelope(
              RunOneBatchItem(*ds, list[i], ctx));
          {
            std::lock_guard<std::mutex> lock(memo_mu);
            memo.emplace(memo_key, env);
          }
          slots[i] = std::move(env);
        }
        return Status::OK();
      }));
  obs::CountIf("anonsafe_serve_batch_items_total", list.size());

  json::Value out_items = json::Value::Array();
  for (json::Value& slot : slots) out_items.Append(std::move(slot));
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds->key));
  result.Set("items", std::move(out_items));
  return result;
}

Result<json::Value> Server::HandleRecommendDefense(const json::Value& params,
                                                   exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.recommend_defense");
  ANONSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDataset> ds,
                            ResidentDataset(params));
  ANONSAFE_ASSIGN_OR_RETURN(DefenseRequest bound,
                            BindRecommendDefense(params));
  // The sweep itself parallelizes on the request's context (threads,
  // cancellation, deadline) and seeds every candidate from the request
  // seed — so the `frontier` document is byte-identical to the CLI's
  // `recommend-defense --json` at the same seed, for any thread count.
  ANONSAFE_ASSIGN_OR_RETURN(
      defense::DefenseFrontier frontier,
      defense::RecommendDefense(ds->data, bound.optimizer, ctx));
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds->key));
  result.Set("frontier", frontier.ToJson());
  return result;
}

Result<json::Value> Server::HandleOEstimate(const json::Value& params,
                                            exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.oestimate");
  ANONSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDataset> ds,
                            ResidentDataset(params));
  ANONSAFE_ASSIGN_OR_RETURN(OEstimateRequest bound, BindOEstimate(params));
  const double delta = bound.delta.value_or(ds->data.groups().MedianGap());
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(ds->data.table(), delta));
  ANONSAFE_ASSIGN_OR_RETURN(
      OEstimateResult oe,
      ComputeOEstimate(ds->data.groups(), belief, bound.oestimate, ctx));
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds->key));
  result.Set("delta", json::Value(delta));
  result.Set("expected_cracks", json::Value(oe.expected_cracks));
  result.Set("fraction", json::Value(oe.fraction));
  result.Set("forced_items", json::Value(uint64_t{oe.forced_items}));
  result.Set("dead_items", json::Value(uint64_t{oe.dead_items}));
  result.Set("contradiction", json::Value(oe.contradiction));
  result.Set("propagation_passes",
             json::Value(uint64_t{oe.propagation_passes}));
  return result;
}

Result<json::Value> Server::HandleSimilarity(const json::Value& params,
                                             exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.similarity");
  ANONSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDataset> ds,
                            ResidentDataset(params));
  ANONSAFE_ASSIGN_OR_RETURN(SimilarityOptions options, BindSimilarity(params));
  ANONSAFE_ASSIGN_OR_RETURN(
      std::vector<SimilarityPoint> curve,
      SimilarityBySampling(ds->data, options, ctx));
  json::Value result = json::Value::Object();
  result.Set("dataset", json::Value(ds->key));
  result.Set("curve", SimilarityCurveToJson(curve));
  return result;
}

Result<json::Value> Server::HandleSleep(const json::Value& params,
                                        exec::ExecContext* ctx) {
  obs::ScopedTimer timer("serve.sleep");
  ANONSAFE_ASSIGN_OR_RETURN(double millis, params.GetNumber("millis"));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(millis));
  while (std::chrono::steady_clock::now() < deadline) {
    if (ctx->cancelled()) return Status::Cancelled("sleep cancelled");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  json::Value result = json::Value::Object();
  result.Set("slept_ms", json::Value(millis));
  return result;
}

json::Value Server::HandleMetrics() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  json::Value result = json::Value::Object();
  result.Set("prometheus", json::Value(obs::ExportPrometheus(registry)));
  // The JSON export round-trips through the shared parser, so the
  // response embeds it as structured data rather than a string blob.
  Result<json::Value> parsed = json::Value::Parse(obs::ExportJson(registry));
  if (parsed.ok()) result.Set("metrics", std::move(*parsed));
  return result;
}

json::Value Server::HandleDebug() {
  json::Value recorder = json::Value::Object();
  recorder.Set("capacity", json::Value(uint64_t{recorder_.capacity()}));
  recorder.Set("recorded", json::Value(uint64_t{recorder_.total_recorded()}));
  json::Value requests = json::Value::Array();
  for (const RequestSummary& summary : recorder_.Snapshot()) {
    requests.Append(RequestSummaryToJson(summary));
  }
  recorder.Set("requests", std::move(requests));

  json::Value result = json::Value::Object();
  result.Set("flight_recorder", std::move(recorder));
  result.Set("workers", json::Value(uint64_t{options_.workers}));
  result.Set("queue_capacity", json::Value(uint64_t{options_.queue_capacity}));
  result.Set("max_batch_items",
             json::Value(uint64_t{options_.max_batch_items}));
  result.Set("slow_request_ms",
             json::Value(uint64_t{options_.slow_request_ms}));
  result.Set("log_level", json::Value(obs::LogLevelName(obs::GetLogLevel())));
  result.Set("outstanding", json::Value(uint64_t{outstanding()}));
  json::Value quota = json::Value::Object();
  quota.Set("enabled", json::Value(quotas_.enabled()));
  if (quotas_.enabled()) {
    quota.Set("rate_per_s", json::Value(quotas_.rate()));
    quota.Set("burst", json::Value(quotas_.burst()));
    quota.Set("tenants", json::Value(uint64_t{quotas_.num_tenants()}));
  }
  result.Set("tenant_quota", std::move(quota));
  return result;
}

json::Value Server::HandleServerInfo() {
  json::Value versions = json::Value::Array();
  for (int64_t v = kServeSchemaVersionMin; v <= kServeSchemaVersion; ++v) {
    versions.Append(json::Value(v));
  }
  json::Value verbs = json::Value::Array();
  for (const VerbSpec& spec : registry_.verbs()) {
    if (spec.is_test_only() && !options_.enable_test_verbs) continue;
    json::Value verb = json::Value::Object();
    verb.Set("verb", json::Value(spec.name));
    json::Value params = json::Value::Array();
    for (const ParamSpec& p : spec.params) {
      // Not repeated per verb: the generic params every compute verb takes.
      if (FindParam(VerbParams().generic, p.name) != nullptr) continue;
      json::Value param = json::Value::Object();
      param.Set("name", json::Value(p.name));
      param.Set("type", json::Value(JsonTypeName(p.type)));
      param.Set("required", json::Value(p.required));
      params.Append(std::move(param));
    }
    verb.Set("params", std::move(params));
    if (spec.is_control()) verb.Set("control", json::Value(true));
    if (spec.is_v2_only()) {
      verb.Set("min_schema_version", json::Value(int64_t{2}));
    }
    verbs.Append(std::move(verb));
  }
  json::Value limits = json::Value::Object();
  limits.Set("max_line_bytes", json::Value(uint64_t{options_.max_line_bytes}));
  limits.Set("max_batch_items",
             json::Value(uint64_t{options_.max_batch_items}));
  limits.Set("workers", json::Value(uint64_t{options_.workers}));
  limits.Set("queue_capacity",
             json::Value(uint64_t{options_.queue_capacity}));
  limits.Set("dataset_cache_capacity",
             json::Value(uint64_t{options_.dataset_cache_capacity}));
  limits.Set("default_deadline_ms",
             json::Value(uint64_t{options_.default_deadline_ms}));
  json::Value quota = json::Value::Object();
  quota.Set("enabled", json::Value(quotas_.enabled()));
  if (quotas_.enabled()) {
    quota.Set("rate_per_s", json::Value(quotas_.rate()));
    quota.Set("burst", json::Value(quotas_.burst()));
  }

  json::Value result = json::Value::Object();
  // The attacker models `assess_risk`'s `adversary` param accepts, with
  // their capability surface — clients discover them here instead of
  // hard-coding the registry.
  json::Value adversaries = json::Value::Array();
  for (const adversary::Adversary* adv : adversary::Adversary::All()) {
    adversaries.Append(adv->Describe().ToJson());
  }

  result.Set("server", json::Value("anonsafe-serve"));
  result.Set("schema_versions", std::move(versions));
  result.Set("verbs", std::move(verbs));
  result.Set("adversaries", std::move(adversaries));
  result.Set("limits", std::move(limits));
  result.Set("tenant_quota", std::move(quota));
  result.Set("simd_isa", json::Value(internal::Kernels().name));
  return result;
}

}  // namespace serve
}  // namespace anonsafe
