// perfbench harness: drives one workload against a spawned
// `anonsafe serve` over loopback TCP and prints one JSON result line.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --server PATH --work-dir DIR [--smoke]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, which add a separate,
// untimed in-process traced run (see README.md).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "server_process.h"
#include "stats.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace json = anonsafe::json;
using Clock = std::chrono::steady_clock;

/// Server start-ups per run; setup_s reports their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir = ".";
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->server.empty() &&
         args->seconds > 0;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Request tallies shared by the client threads.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};

/// Sends `line`, waits for its answer and checks it. `expected` is the
/// reference bytes of `member`; an empty member only requires an ok
/// envelope containing `must_contain`.
bool Exchange(Connection* conn, const std::string& line,
              const std::string& member, const std::string& expected,
              const std::string& must_contain, double* latency_ms,
              Tally* tally) {
  ++tally->attempted;
  std::string response;
  const auto t0 = Clock::now();
  const bool delivered = conn->Send(line) && conn->Receive(&response);
  if (latency_ms != nullptr) *latency_ms = MsSince(t0);
  bool ok = delivered;
  if (ok && !member.empty()) {
    ok = ResponseMember(response, member) == expected;
  } else if (ok) {
    ok = response.find("\"ok\":true") != std::string::npos &&
         response.find(must_contain) != std::string::npos;
  }
  if (!ok) {
    ++tally->failed;
    std::fprintf(stderr, "perfbench: failed or wrong answer (%zu bytes)\n",
                 response.size());
  }
  return ok;
}

const char* MemberOf(const Shape& shape) {
  return shape.verb == "recommend_defense" ? "frontier" : "report";
}

std::string DatasetMarker(const Dataset& ds) {
  return "\"dataset\":\"" + ds.key + "\"";
}

/// Loads the resident datasets, then answers every distinct request shape
/// once, spread over up to `connections` connections.
void WarmUp(const Workload& w, uint16_t port, Tally* tally) {
  std::vector<size_t> loads;
  std::vector<size_t> shapes;
  for (size_t d = 0; d < w.datasets.size(); ++d) {
    if (!w.churn || d == w.warm_dataset) loads.push_back(d);
  }
  for (size_t s = 0; s < w.shapes.size(); ++s) {
    if (!w.churn || w.shapes[s].dataset == w.warm_dataset) shapes.push_back(s);
  }
  const size_t threads = std::max<size_t>(w.connections, 1);
  ParallelFor(loads.size(), threads, [&](size_t i) {
    Connection conn;
    if (!conn.Open(port)) {
      ++tally->attempted;
      ++tally->failed;
      return;
    }
    const Dataset& ds = w.datasets[loads[i]];
    Exchange(&conn, ds.load_line, "", "", DatasetMarker(ds), nullptr, tally);
  });
  ParallelFor(shapes.size(), threads, [&](size_t i) {
    Connection conn;
    if (!conn.Open(port)) {
      ++tally->attempted;
      ++tally->failed;
      return;
    }
    const Shape& shape = w.shapes[shapes[i]];
    Exchange(&conn, shape.line, MemberOf(shape), shape.expected, "", nullptr,
             tally);
  });
}

/// Counter values from the server's `metrics` verb, keyed by name plus
/// labels.
std::map<std::string, double> ServerCounters(uint16_t port) {
  std::map<std::string, double> counters;
  Connection conn;
  std::string response;
  if (!conn.Open(port) ||
      !conn.Send("{\"schema_version\":2,\"id\":1,\"verb\":\"metrics\"}") ||
      !conn.Receive(&response)) {
    return counters;
  }
  auto parsed = json::Value::Parse(response);
  if (!parsed.ok()) return counters;
  const json::Value* result = parsed->Find("result");
  const json::Value* metrics = result ? result->Find("metrics") : nullptr;
  const json::Value* list = metrics ? metrics->Find("counters") : nullptr;
  if (list == nullptr || !list->is_array()) return counters;
  for (const json::Value& c : list->items()) {
    auto name = c.GetString("name");
    auto value = c.GetNumber("value");
    if (!name.ok() || !value.ok()) continue;
    std::string key = *name;
    if (const json::Value* labels = c.Find("labels")) {
      for (const auto& [k, v] : labels->members()) {
        key += "," + k + "=" + (v.is_string() ? v.AsString() : "");
      }
    }
    counters[key] = *value;
  }
  return counters;
}

/// Sub-window k of the measured window ends at the first answer after
/// (k+1)/kSubWindows of the window has passed, and the server's CPU time
/// is read right then, so a sub-window's answers, its length and its CPU
/// time cover the same span. Throughput, p50 latency and CPU time per
/// request report the median over the sub-windows, so a burst of
/// interference on the shared host moves one sub-window rather than the
/// whole figure.
constexpr int kSubWindows = 10;

struct Completion {
  double at_s;  ///< since the window started
  double ms;    ///< client latency
};

struct Boundary {
  double at_s;
  double server_cpu_s;
};

struct Window {
  std::vector<double> latency_ms;
  /// The same latencies split by verb: `load_dataset`, and the rest.
  std::vector<double> load_latency_ms, other_latency_ms;
  /// Every answer, sorted by completion time.
  std::vector<Completion> completions;
  /// Sub-window boundaries; the first is the window's start.
  std::vector<Boundary> boundaries;
  uint64_t completed = 0;  ///< answered correctly
  uint64_t assess_ok = 0;  ///< correct answers that looked up a dataset
  uint64_t loads_ok = 0;
  double unix_start = 0.0;
  double unix_end = 0.0;
};

/// The closed loop: `w.connections` clients, each waiting for every
/// answer before sending its next request, walking the shared cycle
/// until `seconds` have passed.
Window MeasureWindow(const Workload& w, const ServerProcess& server,
                     double seconds, Tally* tally) {
  Window out;
  const uint16_t port = server.port();
  std::mutex mu;
  std::atomic<uint64_t> next{0};
  int next_boundary = 1;  // guarded by mu
  out.unix_start = UnixNow();
  out.boundaries.push_back({0.0, server.Usage().cpu_seconds});
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  // Called after every answer; closes the current sub-window when its
  // time has passed. One long answer may pass several boundaries.
  auto mark = [&](double at) {
    std::lock_guard<std::mutex> lock(mu);
    if (next_boundary > kSubWindows ||
        at < seconds * next_boundary / kSubWindows) {
      return;
    }
    out.boundaries.push_back({at, server.Usage().cpu_seconds});
    while (next_boundary <= kSubWindows &&
           at >= seconds * next_boundary / kSubWindows) {
      ++next_boundary;
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < w.connections; ++c) {
    clients.emplace_back([&] {
      std::vector<double> latencies, loads, others;
      std::vector<Completion> completions;
      auto record = [&](double ms, bool load) {
        const double at = MsSince(start) / 1e3;
        mark(at);
        latencies.push_back(ms);
        (load ? loads : others).push_back(ms);
        completions.push_back({at, ms});
      };
      uint64_t assess_ok = 0;
      uint64_t loads_ok = 0;
      Connection conn;
      if (!conn.Open(port)) {
        ++tally->attempted;
        ++tally->failed;
        return;
      }
      while (Clock::now() < deadline) {
        const Shape& shape = w.shapes[w.cycle[next++ % w.cycle.size()]];
        double ms = 0.0;
        if (w.churn) {
          const Dataset& ds = w.datasets[shape.dataset];
          if (!Exchange(&conn, ds.load_line, "", "", DatasetMarker(ds), &ms,
                        tally)) {
            break;
          }
          record(ms, true);
          ++loads_ok;
        }
        if (!Exchange(&conn, shape.line, MemberOf(shape), shape.expected, "",
                      &ms, tally)) {
          break;
        }
        record(ms, false);
        ++assess_ok;
      }
      std::lock_guard<std::mutex> lock(mu);
      out.latency_ms.insert(out.latency_ms.end(), latencies.begin(),
                            latencies.end());
      out.load_latency_ms.insert(out.load_latency_ms.end(), loads.begin(),
                                 loads.end());
      out.other_latency_ms.insert(out.other_latency_ms.end(), others.begin(),
                                  others.end());
      out.completions.insert(out.completions.end(), completions.begin(),
                             completions.end());
      out.assess_ok += assess_ok;
      out.loads_ok += loads_ok;
    });
  }
  for (std::thread& t : clients) t.join();
  out.unix_end = UnixNow();
  out.completed = out.latency_ms.size();
  std::sort(out.completions.begin(), out.completions.end(),
            [](const Completion& a, const Completion& b) {
              return a.at_s < b.at_s;
            });
  return out;
}

/// The figures of one sub-window.
struct SubWindow {
  double rps = 0.0;
  double p50_ms = 0.0;
  double cpu_ms_per_req = 0.0;
};

/// Sub-window k holds the answers completed after boundary k and up to
/// boundary k+1; answers after the last boundary belong to none.
std::vector<SubWindow> SubWindows(const Window& window) {
  std::vector<SubWindow> out;
  auto it = window.completions.begin();
  for (size_t k = 0; k + 1 < window.boundaries.size(); ++k) {
    const Boundary& from = window.boundaries[k];
    const Boundary& to = window.boundaries[k + 1];
    std::vector<double> ms;
    for (; it != window.completions.end() && it->at_s <= to.at_s; ++it) {
      ms.push_back(it->ms);
    }
    if (ms.empty() || to.at_s <= from.at_s) continue;
    const double n = static_cast<double>(ms.size());
    out.push_back({n / (to.at_s - from.at_s), Percentile(ms, 0.50),
                   (to.server_cpu_s - from.server_cpu_s) * 1e3 / n});
  }
  return out;
}

/// queue/exec/total milliseconds of the access-log lines the measured
/// window produced (the server rate-limits the log, so this is a sample).
struct AccessLog {
  std::vector<double> queue_ms, exec_ms;
  /// total_ms split as Window splits client latencies.
  std::vector<double> load_total_ms, other_total_ms;
};

AccessLog ReadAccessLog(const std::string& path, const Window& window) {
  AccessLog log;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = json::Value::Parse(line);
    if (!parsed.ok()) continue;
    auto event = parsed->GetStringOr("event", "");
    auto verb = parsed->GetStringOr("verb", "");
    auto ts = parsed->GetNumberOr("ts", 0.0);
    if (!event.ok() || *event != "serve.request" || !verb.ok() ||
        (*verb != "assess_risk" && *verb != "load_dataset" &&
         *verb != "recommend_defense") ||
        !ts.ok() || *ts < window.unix_start || *ts > window.unix_end) {
      continue;
    }
    log.queue_ms.push_back(parsed->GetNumberOr("queue_ms", 0.0).value_or(0.0));
    log.exec_ms.push_back(parsed->GetNumberOr("exec_ms", 0.0).value_or(0.0));
    (*verb == "load_dataset" ? log.load_total_ms : log.other_total_ms)
        .push_back(parsed->GetNumberOr("total_ms", 0.0).value_or(0.0));
  }
  return log;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"throughput_rps", "1/s"},       {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},        {"setup_s", "s"},
      {"server_cpu_ms_per_req", "ms"}, {"server_peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"failed_ratio", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.transport_ms_p50", "ms"},
      {"serve.self_ms_per_req", "ms"},
      {"serve.dataset_cache_hit_ratio", "ratio"},
      {"serve.rejected_per_req", "count"},
      {"util.json_parse_ms_per_req", "ms"},
      {"util.json_emit_ms_per_req", "ms"},
      {"data.fimi_parse_ms_per_req", "ms"},
      {"data.frequency_ms_per_req", "ms"},
      {"data.frequency_calls_per_req", "count"},
      {"data.group_build_ms_per_req", "ms"},
      {"data.group_build_calls_per_req", "count"},
      {"adversary.bind_ms_per_req", "ms"},
      {"core.alpha_sweep_build_ms_per_req", "ms"},
      {"core.point_valued_ms_per_req", "ms"},
      {"core.interval_check_ms_per_req", "ms"},
      {"core.alpha_search_ms_per_req", "ms"},
      {"core.alpha_probes_per_req", "count"},
      {"core.artifact_hits_per_req", "count"},
      {"core.stab_cache_hits_per_req", "count"},
      {"graph.propagate_passes_per_req", "count"},
      {"core.similarity_ms_per_req", "ms"},
      {"estimator.plan_and_estimate_ms_per_req", "ms"},
      {"estimator.blocks_permanent_per_req", "count"},
      {"estimator.blocks_closed_form_per_req", "count"},
      {"estimator.blocks_oestimate_per_req", "count"},
      {"estimator.blocks_singleton_per_req", "count"},
      {"graph.ryser_skipped_products_per_req", "count"},
      {"defense.plan_ms_per_req", "ms"},
      {"defense.apply_ms_per_req", "ms"},
      {"defense.score_ms_per_req", "ms"},
      {"defense.utility_ms_per_req", "ms"},
      {"defense.candidates_per_req", "count"},
      {"defense.feasible_ratio", "ratio"},
      {"exec.defense_speedup", "ratio"},
      {"exec.scratch_reuse_ratio", "ratio"},
      {"trace.phase_sum_ratio", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"trace.replay_mismatches", "count"},
      {"bench.unstable_counts", "count"},
      {"bench.cache_design_flags", "count"},
  };
  return kSpecs;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int Run(const Args& args) {
  const size_t nproc =
      std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
  Workload w;
  std::string error;
  const auto gen_start = Clock::now();
  if (!BuildWorkload(args.workload, args.seed, nproc, args.smoke, &w,
                     &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu datasets, %zu shapes, inputs and "
               "references in %.2f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.datasets.size(), w.shapes.size(), MsSince(gen_start) / 1e3);
  for (const Shape& s : w.shapes) {
    if (s.verb == "assess_risk" && s.label != "churn") {
      std::fprintf(stderr, "perfbench:   %s on dataset %zu: %s\n",
                   s.label.c_str(), s.dataset,
                   s.decision.c_str());
    }
  }

  Tally tally;
  std::vector<double> setups;
  ServerProcess server;
  std::string log_path;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) server.Stop();
    log_path = args.work_dir + "/access-" + std::to_string(k) + ".log";
    std::remove(log_path.c_str());
    const auto t0 = Clock::now();
    if (!server.Start(args.server, nproc, log_path, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
    WarmUp(w, server.port(), &tally);
    setups.push_back(MsSince(t0) / 1e3);
  }

  const std::map<std::string, double> counters_before =
      ServerCounters(server.port());
  const Window window = MeasureWindow(w, server, args.seconds, &tally);
  const ProcessUsage usage_after = server.Usage();
  const std::map<std::string, double> counters_after =
      ServerCounters(server.port());
  if (!server.Stop()) {
    std::fprintf(stderr, "perfbench: server did not shut down cleanly\n");
    ++tally.failed;
  }
  auto delta = [&](const std::string& name) {
    auto a = counters_after.find(name);
    auto b = counters_before.find(name);
    return (a == counters_after.end() ? 0.0 : a->second) -
           (b == counters_before.end() ? 0.0 : b->second);
  };

  const double completed = static_cast<double>(window.completed);
  std::map<std::string, double> values;
  // Medians over the sub-windows; answers completing after the last
  // boundary (requests in flight at the deadline) count in none, so a
  // long request then does not stretch a sub-window.
  const std::vector<SubWindow> subs = SubWindows(window);
  std::vector<double> sub_rps, sub_p50, sub_cpu;
  for (const SubWindow& sub : subs) {
    sub_rps.push_back(sub.rps);
    sub_p50.push_back(sub.p50_ms);
    sub_cpu.push_back(sub.cpu_ms_per_req);
  }
  std::fprintf(stderr,
               "perfbench: %zu requests in %zu sub-windows; their throughput "
               "spread (IQR/median) %.3f\n",
               window.latency_ms.size(), subs.size(),
               sub_rps.size() >= 2 ? RelativeIqr(sub_rps) : 0.0);
  values["throughput_rps"] = Median(sub_rps);
  values["latency_p50_ms"] = Median(sub_p50);
  values["latency_p95_ms"] = Percentile(window.latency_ms, 0.95);
  values["setup_s"] = Median(setups);
  values["server_cpu_ms_per_req"] = Median(sub_cpu);
  values["server_peak_rss_mb"] = usage_after.peak_rss_mib;
  if (window.latency_ms.size() < 200) {
    std::fprintf(stderr,
                 "perfbench: only %zu samples; fewer than ten lie beyond "
                 "p95\n",
                 window.latency_ms.size());
  }

  // Cache design: hot workloads hit on every lookup after warm-up; churn
  // loads always miss. Loads and assess lookups both count in the server
  // counters; a correct assess answer implies its lookup hit.
  const double hits = delta("anonsafe_serve_dataset_cache_hits_total");
  const double misses = delta("anonsafe_serve_dataset_cache_misses_total");
  const double loads = static_cast<double>(window.loads_ok);
  const double hit_ratio =
      loads > 0 ? Ratio(hits - static_cast<double>(window.assess_ok), loads)
                : Ratio(hits, hits + misses);
  const bool cache_flag = w.churn ? hit_ratio != 0.0 : hit_ratio != 1.0;
  if (cache_flag) {
    std::fprintf(stderr, "perfbench: dataset cache hit ratio %g departs from "
                 "the workload's design\n", hit_ratio);
  }

  bool correct = tally.failed.load() == 0;
  const std::vector<MetricSpec>* specs = &EndToEndSpecs();
  if (args.trace) {
    specs = &PerLayerSpecs();
    const AccessLog log = ReadAccessLog(log_path, window);
    const auto trace_start = Clock::now();
    TraceOutcome trace = RunTraced(w);
    std::fprintf(stderr, "perfbench: traced run of %zu requests in %.2f s\n",
                 trace.requests, MsSince(trace_start) / 1e3);
    trace.spans.Write(args.work_dir + "/spans.jsonl");
    correct = correct && trace.failures == 0 && trace.mismatches == 0;

    const double n = static_cast<double>(trace.requests);
    auto span_ms = [&](const char* name) {
      return Ratio(trace.spans.TotalMs(name), n);
    };
    auto span_calls = [&](const char* name) {
      return Ratio(static_cast<double>(trace.spans.Count(name)), n);
    };
    auto per_req = [&](const char* counter) {
      return Ratio(delta(counter), completed);
    };
    double handle_total = 0.0;
    for (double ms : trace.handle_ms) handle_total += ms;
    const double exec_p50 = Median(log.exec_ms);
    const uint64_t attempted = tally.attempted.load();
    values["failed_ratio"] =
        Ratio(static_cast<double>(tally.failed.load()),
              static_cast<double>(attempted));
    values["serve.queue_ms_p50"] = Median(log.queue_ms);
    values["serve.exec_ms_p50"] = exec_p50;
    // Client latency minus server total, per verb (a churn mix is bimodal
    // and its overall median falls between the modes), weighted by each
    // verb's share of the window's requests.
    double transport = 0.0;
    for (auto [client, server] :
         {std::pair{&window.load_latency_ms, &log.load_total_ms},
          std::pair{&window.other_latency_ms, &log.other_total_ms}}) {
      if (client->empty() || server->empty()) continue;
      transport += (Median(*client) - Median(*server)) *
                   Ratio(static_cast<double>(client->size()), completed);
    }
    values["serve.transport_ms_p50"] = transport;
    values["serve.self_ms_per_req"] = Ratio(trace.spans.RootSelfMs(), n);
    values["serve.dataset_cache_hit_ratio"] = hit_ratio;
    double rejected = 0.0;
    for (const char* outcome : {"queue_full", "quota_exceeded",
                                "shutting_down"}) {
      for (const char* verb : {"assess_risk", "load_dataset",
                               "recommend_defense"}) {
        rejected += delta(std::string("anonsafe_serve_requests_total,verb=") +
                          verb + ",outcome=" + outcome);
      }
    }
    values["serve.rejected_per_req"] = Ratio(rejected, completed);
    values["util.json_parse_ms_per_req"] = span_ms("util.json_parse");
    values["util.json_emit_ms_per_req"] = span_ms("util.json_emit");
    values["data.fimi_parse_ms_per_req"] = span_ms("data.fimi_parse");
    values["data.frequency_ms_per_req"] = span_ms("data.frequency");
    values["data.frequency_calls_per_req"] = span_calls("data.frequency");
    values["data.group_build_ms_per_req"] = span_ms("data.group_build");
    values["data.group_build_calls_per_req"] = span_calls("data.group_build");
    values["adversary.bind_ms_per_req"] = span_ms("adversary.bind");
    values["core.alpha_sweep_build_ms_per_req"] =
        span_ms("core.alpha_sweep_build");
    values["core.point_valued_ms_per_req"] = span_ms("core.point_valued");
    values["core.interval_check_ms_per_req"] = span_ms("core.interval_check");
    values["core.alpha_search_ms_per_req"] = span_ms("core.alpha_search");
    values["core.alpha_probes_per_req"] = per_req("anonsafe_alpha_probes_total");
    values["core.artifact_hits_per_req"] =
        per_req("anonsafe_recipe_artifact_hits_total");
    values["core.stab_cache_hits_per_req"] =
        per_req("anonsafe_stab_cache_hits_total");
    values["graph.propagate_passes_per_req"] =
        per_req("anonsafe_propagation_passes_total");
    values["core.similarity_ms_per_req"] = span_ms("core.similarity");
    values["estimator.plan_and_estimate_ms_per_req"] =
        span_ms("estimator.plan_and_estimate");
    values["estimator.blocks_permanent_per_req"] =
        Ratio(trace.counts["blocks_permanent"], n);
    values["estimator.blocks_closed_form_per_req"] =
        Ratio(trace.counts["blocks_closed_form"], n);
    values["estimator.blocks_oestimate_per_req"] =
        Ratio(trace.counts["blocks_oestimate"], n);
    values["estimator.blocks_singleton_per_req"] =
        Ratio(trace.counts["blocks_singleton"], n);
    values["graph.ryser_skipped_products_per_req"] =
        per_req("anonsafe_ryser_skipped_products_total");
    values["defense.plan_ms_per_req"] = span_ms("defense.plan");
    values["defense.apply_ms_per_req"] = span_ms("defense.apply");
    values["defense.score_ms_per_req"] = span_ms("defense.score");
    values["defense.utility_ms_per_req"] = span_ms("defense.utility");
    values["defense.candidates_per_req"] =
        per_req("defense.recommend.candidates");
    values["defense.feasible_ratio"] =
        Ratio(trace.counts["feasible"], trace.counts["candidates"]);
    values["exec.defense_speedup"] = trace.defense_speedup;
    const double reuse = delta("anonsafe_scratch_reuse_total");
    values["exec.scratch_reuse_ratio"] =
        Ratio(reuse, reuse + delta("anonsafe_scratch_alloc_total"));
    values["trace.phase_sum_ratio"] =
        Ratio(trace.spans.RootTotalMs(), handle_total);
    values["trace.overhead_ms"] = trace.handle_as_sent_ms - exec_p50;
    values["trace.replay_mismatches"] = static_cast<double>(trace.mismatches);
    values["bench.unstable_counts"] =
        static_cast<double>(trace.unstable_counts);
    values["bench.cache_design_flags"] = cache_flag ? 1.0 : 0.0;
    std::fprintf(stderr,
                 "perfbench: replayed spans cover %.1f%% of HandleLine time; "
                 "%zu replay mismatches, %zu traced failures\n",
                 100.0 * values["trace.phase_sum_ratio"], trace.mismatches,
                 trace.failures);
  }

  json::Value metrics = json::Value::Object();
  for (const MetricSpec& spec : *specs) {
    if (!IsValidMetricName(spec.name) || !IsValidUnit(spec.unit)) {
      std::fprintf(stderr, "perfbench: invalid metric %s\n", spec.name);
      return 2;
    }
    json::Value m = json::Value::Object();
    m.Set("value", json::Value(values[spec.name]));
    m.Set("unit", json::Value(spec.unit));
    metrics.Set(spec.name, std::move(m));
  }
  json::Value result = json::Value::Object();
  result.Set("correct", json::Value(correct));
  result.Set("attempted", json::Value(tally.attempted.load()));
  result.Set("failed", json::Value(tally.failed.load()));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 --server PATH --work-dir DIR "
                 "[--smoke]\n");
    return 2;
  }
  return perfbench::Run(args);
}
