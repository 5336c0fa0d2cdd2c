#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "util/json.h"

// Allocation counter for the disabled-mode zero-cost test. Overriding the
// global operators in this translation unit makes every heap allocation in
// the test binary observable.
namespace {
std::atomic<size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace anonsafe {
namespace {

/// Restores the process-wide observability switches a test flipped.
struct ObsSwitchGuard {
  ~ObsSwitchGuard() {
    obs::SetMetricsEnabled(false);
    obs::SetTracingEnabled(false);
  }
};

// ----------------------------------------------------------------- Counter

TEST(MetricsTest, CounterIncrements) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c_total");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, RegistryIsIdempotentWithStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("same_total");
  a->Increment(5);
  obs::Counter* b = registry.GetCounter("same_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("r_total");
  obs::Gauge* g = registry.GetGauge("r_gauge");
  obs::Histogram* h = registry.GetHistogram("r_seconds", {1.0});
  c->Increment(3);
  g->Set(2.5);
  h->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  // Same pointers still valid and re-usable after Reset.
  EXPECT_EQ(registry.GetCounter("r_total"), c);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("depth");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->Add(-0.75);
  EXPECT_DOUBLE_EQ(g->value(), 0.75);
}

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketBoundsAreInclusiveUpper) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("b_seconds", {1.0, 2.0, 5.0});
  h->Observe(-1.0);  // below everything -> first bucket
  h->Observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h->Observe(2.0);
  h->Observe(2.0000001);
  h->Observe(5.0);
  h->Observe(6.0);  // above the last bound -> overflow bucket
  obs::Histogram::Snapshot snap = h->Snap();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);  // -1, 1
  EXPECT_EQ(snap.counts[1], 1u);  // 2
  EXPECT_EQ(snap.counts[2], 2u);  // 2.0000001, 5
  EXPECT_EQ(snap.counts[3], 1u);  // 6
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 15.0000001, 1e-6);
}

TEST(HistogramTest, QuantilesInterpolateWithinBucket) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("q_seconds", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(10.0);
  obs::Histogram::Snapshot snap = h->Snap();
  // rank(0.5) = 1.5 lands halfway through the (1, 2] bucket.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.5);
  // High quantiles land in the overflow bucket, which reports the largest
  // finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.95), 2.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 2.0);
  // Degenerate q values clamp instead of misbehaving.
  EXPECT_DOUBLE_EQ(snap.Quantile(-1.0), snap.Quantile(0.0));
  EXPECT_DOUBLE_EQ(snap.Quantile(2.0), snap.Quantile(1.0));
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("e_seconds", {1.0});
  EXPECT_DOUBLE_EQ(h->Snap().Quantile(0.5), 0.0);
}

TEST(HistogramTest, DefaultLatencyBucketsAreSorted) {
  std::vector<double> bounds = obs::Histogram::LatencySecondsBuckets();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 60.0);
}

TEST(MetricsTest, ConcurrentRecordingLosesNothing) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("mt_total");
  obs::Histogram* h = registry.GetHistogram("mt_seconds", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kIterations; ++i) {
        c->Increment();
        h->Observe(0.25);
        // Concurrent registration of an existing name must also be safe.
        registry.GetCounter("mt_total");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIterations);
  obs::Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(snap.counts[0], static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_NEAR(snap.sum, 0.25 * kThreads * kIterations, 1e-6);
}

// ------------------------------------------------------------------ Spans

TEST(TraceTest, SpanTreeNesting) {
  ObsSwitchGuard guard;
  obs::SetTracingEnabled(true);
  obs::Tracer& tracer = obs::Tracer::ThreadLocal();
  tracer.Clear();
  {
    obs::ScopedTimer root("test.root");
    {
      obs::ScopedTimer child("test.child");
      obs::ScopedTimer grandchild("test.grandchild");
      grandchild.Annotate("k", "v");
    }
    obs::ScopedTimer sibling("test.sibling");
  }
  const std::vector<obs::SpanNode>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.num_open(), 0u);

  EXPECT_EQ(spans[0].name, "test.root");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[0].depth, 0u);

  EXPECT_EQ(spans[1].name, "test.child");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 1u);

  EXPECT_EQ(spans[2].name, "test.grandchild");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[2].depth, 2u);
  ASSERT_EQ(spans[2].annotations.size(), 1u);
  EXPECT_EQ(spans[2].annotations[0].first, "k");
  EXPECT_EQ(spans[2].annotations[0].second, "v");

  EXPECT_EQ(spans[3].name, "test.sibling");
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[3].depth, 1u);

  for (const obs::SpanNode& span : spans) {
    EXPECT_TRUE(span.closed);
    EXPECT_GE(span.duration_seconds, 0.0);
  }
  // Children cannot outlast their parent.
  EXPECT_LE(spans[1].duration_seconds, spans[0].duration_seconds);
}

TEST(TraceTest, CloseSpanUnwindsNestedOpenSpans) {
  ObsSwitchGuard guard;
  obs::SetTracingEnabled(true);
  obs::Tracer& tracer = obs::Tracer::ThreadLocal();
  tracer.Clear();
  size_t outer = tracer.OpenSpan("outer");
  tracer.OpenSpan("inner");
  tracer.CloseSpan(outer);  // must close "inner" too
  EXPECT_EQ(tracer.num_open(), 0u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_TRUE(tracer.spans()[0].closed);
  EXPECT_TRUE(tracer.spans()[1].closed);
}

TEST(TraceTest, RenderTableIndentsByDepth) {
  ObsSwitchGuard guard;
  obs::SetTracingEnabled(true);
  obs::Tracer& tracer = obs::Tracer::ThreadLocal();
  tracer.Clear();
  {
    obs::ScopedTimer root("phase.outer");
    obs::ScopedTimer child("phase.inner");
    child.Annotate("items", "7");
  }
  std::string table = tracer.RenderTable();
  EXPECT_NE(table.find("phase.outer"), std::string::npos);
  EXPECT_NE(table.find("  phase.inner"), std::string::npos);
  EXPECT_NE(table.find("% of root"), std::string::npos);
  EXPECT_NE(table.find("items=7"), std::string::npos);
}

TEST(TraceTest, ToJsonListsSpansInPreorder) {
  ObsSwitchGuard guard;
  obs::SetTracingEnabled(true);
  obs::Tracer& tracer = obs::Tracer::ThreadLocal();
  tracer.Clear();
  {
    obs::ScopedTimer root("j.root");
    obs::ScopedTimer child("j.child");
  }
  std::string json = tracer.ToJson();
  size_t root_pos = json.find("\"j.root\"");
  size_t child_pos = json.find("\"j.child\"");
  EXPECT_NE(root_pos, std::string::npos);
  EXPECT_NE(child_pos, std::string::npos);
  EXPECT_LT(root_pos, child_pos);

  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.ToJson(), "[]");
}

// ------------------------------------------------------------ ScopedTimer

TEST(ScopedTimerTest, RecordsHistogramAndCounterWhenMetricsOn) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Histogram* h = obs::TimerHistogram("test.metered_phase");
  obs::Counter* c = obs::TimerCounter("test.metered_phase");
  EXPECT_EQ(h->name(), "anonsafe_test_metered_phase_seconds");
  EXPECT_EQ(c->name(), "anonsafe_test_metered_phase_total");
  uint64_t histogram_before = h->count();
  uint64_t counter_before = c->value();
  { obs::ScopedTimer timer("test.metered_phase"); }
  EXPECT_EQ(h->count(), histogram_before + 1);
  EXPECT_EQ(c->value(), counter_before + 1);
}

TEST(ScopedTimerTest, StopIsIdempotent) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Counter* c = obs::TimerCounter("test.stop_once");
  uint64_t before = c->value();
  {
    obs::ScopedTimer timer("test.stop_once");
    timer.Stop();
    timer.Stop();
  }  // destructor must not double-record
  EXPECT_EQ(c->value(), before + 1);
}

TEST(ScopedTimerTest, CountIfAndGaugeIfAreGated) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(true);
  obs::CountIf("anonsafe_obs_test_gated_total", 2);
  obs::GaugeIf("anonsafe_obs_test_gated_gauge", 1.25);
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("anonsafe_obs_test_gated_total");
  obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("anonsafe_obs_test_gated_gauge");
  EXPECT_EQ(c->value(), 2u);
  EXPECT_DOUBLE_EQ(g->value(), 1.25);
  obs::SetMetricsEnabled(false);
  obs::CountIf("anonsafe_obs_test_gated_total", 5);
  obs::GaugeIf("anonsafe_obs_test_gated_gauge", 9.0);
  EXPECT_EQ(c->value(), 2u);
  EXPECT_DOUBLE_EQ(g->value(), 1.25);
}

TEST(ScopedTimerTest, DisabledModeAllocatesNothing) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(false);
  obs::SetTracingEnabled(false);
  // Warm up any lazy statics outside the measured window.
  { obs::ScopedTimer warmup("test.disabled_path"); }
  size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::ScopedTimer timer("test.disabled_path");
    obs::CountIf("anonsafe_obs_test_disabled_total");
    if (timer.tracing()) {
      timer.Annotate("iteration", std::to_string(i));
    }
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before);
}

// Each thread looks a timer's histogram and counter (and a CountIf
// counter) up once. Timers stopped on four threads, before and after a
// Reset of the global registry, land in one series, and a warm stop
// builds no string.
TEST(ScopedTimerTest, HandlesAreLookedUpOncePerThread) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  constexpr size_t kThreads = 4;
  constexpr uint64_t kStops = 50;
  std::barrier sync(kThreads + 1);
  auto stop_timers = [] {
    for (uint64_t i = 0; i < kStops; ++i) {
      obs::ScopedTimer timer("test.cached_phase");
      obs::CountIf("anonsafe_obs_test_cached_total");
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      stop_timers();
      sync.arrive_and_wait();  // the first round is in
      sync.arrive_and_wait();  // the registry is reset
      stop_timers();
    });
  }
  sync.arrive_and_wait();
  obs::Histogram* h = obs::TimerHistogram("test.cached_phase");
  obs::Counter* c = obs::TimerCounter("test.cached_phase");
  obs::Counter* counted =
      registry.GetCounter("anonsafe_obs_test_cached_total");
  EXPECT_EQ(h->count(), kThreads * kStops);
  EXPECT_EQ(c->value(), kThreads * kStops);
  EXPECT_EQ(counted->value(), kThreads * kStops);
  registry.Reset();
  sync.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h->count(), kThreads * kStops);
  EXPECT_EQ(c->value(), kThreads * kStops);
  EXPECT_EQ(counted->value(), kThreads * kStops);
  size_t series = 0;
  for (const obs::Histogram* each : registry.histograms()) {
    series += each->name() == "anonsafe_test_cached_phase_seconds" ? 1 : 0;
  }
  for (const obs::Counter* each : registry.counters()) {
    series += each->name() == "anonsafe_test_cached_phase_total" ||
                      each->name() == "anonsafe_obs_test_cached_total"
                  ? 1
                  : 0;
  }
  EXPECT_EQ(series, 3u);

  stop_timers();  // warms this thread
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  stop_timers();
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before);
  EXPECT_EQ(c->value(), (kThreads + 2) * kStops);
}

// A name need not be a literal: a buffer reused for another name at the
// same address records under the new name.
TEST(ScopedTimerTest, ReusedNameBufferRecordsUnderItsNewName) {
  ObsSwitchGuard guard;
  obs::SetMetricsEnabled(true);
  char name[40];
  const uint64_t a_before = obs::TimerCounter("test.buffer_a")->value();
  const uint64_t b_before = obs::TimerCounter("test.buffer_b")->value();
  for (const char* each : {"test.buffer_a", "test.buffer_b", "test.buffer_b"}) {
    std::snprintf(name, sizeof(name), "%s", each);
    obs::ScopedTimer timer(name);
  }
  EXPECT_EQ(obs::TimerCounter("test.buffer_a")->value(), a_before + 1);
  EXPECT_EQ(obs::TimerCounter("test.buffer_b")->value(), b_before + 2);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const char* each :
       {"anonsafe_obs_test_buffer_a_total", "anonsafe_obs_test_buffer_b_total"}) {
    std::snprintf(name, sizeof(name), "%s", each);
    obs::CountIf(name, 3);
  }
  EXPECT_EQ(registry.GetCounter("anonsafe_obs_test_buffer_a_total")->value(),
            3u);
  EXPECT_EQ(registry.GetCounter("anonsafe_obs_test_buffer_b_total")->value(),
            3u);
}

// ----------------------------------------------------------------- Export

TEST(ExportTest, JsonGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(1.5);
  obs::Histogram* h = registry.GetHistogram("latency_seconds", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(10.0);
  EXPECT_EQ(obs::ExportJson(registry),
            "{\n"
            "  \"counters\": [\n"
            "    {\"name\": \"requests_total\", \"value\": 3}\n"
            "  ],\n"
            "  \"gauges\": [\n"
            "    {\"name\": \"queue_depth\", \"value\": 1.5}\n"
            "  ],\n"
            "  \"histograms\": [\n"
            "    {\"name\": \"latency_seconds\", \"count\": 3, \"sum\": 12, "
            "\"p50\": 1.5, \"p95\": 2, \"p99\": 2, \"overflow\": 1, "
            "\"buckets\": "
            "[{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
            "{\"le\": \"+Inf\", \"count\": 1}]}\n"
            "  ]\n"
            "}\n");
}

TEST(ExportTest, EmptyRegistryJsonIsValid) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(obs::ExportJson(registry),
            "{\n  \"counters\": [],\n  \"gauges\": [],\n"
            "  \"histograms\": []\n}\n");
}

TEST(ExportTest, PrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests_total", "total requests")->Increment(3);
  registry.GetGauge("queue_depth")->Set(1.5);
  obs::Histogram* h = registry.GetHistogram("latency_seconds", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(10.0);
  EXPECT_EQ(obs::ExportPrometheus(registry),
            "# HELP requests_total total requests\n"
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 1.5\n"
            "# TYPE latency_seconds histogram\n"
            "latency_seconds_bucket{le=\"1\"} 1\n"
            "latency_seconds_bucket{le=\"2\"} 2\n"
            "latency_seconds_bucket{le=\"+Inf\"} 3\n"
            "latency_seconds_sum 12\n"
            "latency_seconds_count 3\n"
            "# TYPE latency_seconds_p50 gauge\n"
            "latency_seconds_p50 1.5\n"
            "# TYPE latency_seconds_p95 gauge\n"
            "latency_seconds_p95 2\n"
            "# TYPE latency_seconds_p99 gauge\n"
            "latency_seconds_p99 2\n");
}

TEST(ExportTest, PrometheusEscapesHostileHelpText) {
  obs::MetricsRegistry registry;
  registry.GetCounter("hostile_total",
                      "line one\nline \"two\" with \\ backslash")
      ->Increment();
  std::string text = obs::ExportPrometheus(registry);
  // The exposition format requires \n, \" and \\ escapes; a raw newline in
  // HELP would break every scraper.
  EXPECT_NE(text.find("# HELP hostile_total "
                      "line one\\nline \\\"two\\\" with \\\\ backslash\n"),
            std::string::npos);
  EXPECT_EQ(text.find("line one\nline"), std::string::npos);
}

TEST(ExportTest, LabeledCountersExport) {
  obs::MetricsRegistry registry;
  registry.GetCounter("other_total")->Increment(7);
  obs::Counter* ok = registry.GetCounterWithLabels(
      "requests_total", {{"verb", "assess_risk"}, {"outcome", "ok"}},
      "requests by verb/outcome");
  obs::Counter* bad = registry.GetCounterWithLabels(
      "requests_total", {{"verb", "assess_risk"}, {"outcome", "bad_request"}});
  ok->Increment(3);
  ok->Increment(2);
  bad->Increment();
  // Same (name, labels) key returns the same series.
  EXPECT_EQ(registry.GetCounterWithLabels(
                "requests_total",
                {{"verb", "assess_risk"}, {"outcome", "ok"}}),
            ok);

  std::string json = obs::ExportJson(registry);
  EXPECT_NE(json.find("{\"name\": \"requests_total\", \"labels\": "
                      "{\"verb\": \"assess_risk\", \"outcome\": "
                      "\"bad_request\"}, \"value\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"ok\"}, \"value\": 5}"),
            std::string::npos);

  std::string prom = obs::ExportPrometheus(registry);
  // One HELP/TYPE header for the family, labeled series right after it.
  EXPECT_EQ(prom.find("# TYPE requests_total counter"),
            prom.rfind("# TYPE requests_total counter"));
  EXPECT_NE(
      prom.find("requests_total{verb=\"assess_risk\",outcome=\"ok\"} 5\n"),
      std::string::npos);
  EXPECT_NE(prom.find("requests_total{verb=\"assess_risk\","
                      "outcome=\"bad_request\"} 1\n"),
            std::string::npos);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry registry;
  registry
      .GetCounterWithLabels("evil_total", {{"verb", "a\"b\\c\nd"}})
      ->Increment();
  std::string prom = obs::ExportPrometheus(registry);
  EXPECT_NE(prom.find("evil_total{verb=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(ExportTest, ChromeTraceShape) {
  obs::Tracer tracer;
  tracer.Clear();
  size_t root = tracer.OpenSpan("assess_risk");
  size_t child = tracer.OpenSpan("oestimate");
  tracer.Annotate(child, "blocks", "4");
  tracer.CloseSpan(child);
  tracer.CloseSpan(root);

  std::string text = obs::ExportChromeTrace(tracer, "cli-assess");
  Result<json::Value> parsed = json::Value::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const json::Value& doc = parsed.value();
  EXPECT_EQ(doc.GetStringOr("displayTimeUnit", "").value(), "ms");
  const json::Value* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->GetStringOr("trace_id", "").value(), "cli-assess");

  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata event + one "X" event per span.
  ASSERT_EQ(events->items().size(), 3u);
  EXPECT_EQ(events->items()[0].GetStringOr("ph", "").value(), "M");
  const json::Value& root_event = events->items()[1];
  EXPECT_EQ(root_event.GetStringOr("ph", "").value(), "X");
  EXPECT_EQ(root_event.GetStringOr("name", "").value(), "assess_risk");
  const json::Value& child_event = events->items()[2];
  EXPECT_EQ(child_event.GetStringOr("name", "").value(), "oestimate");
  const json::Value* args = child_event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->GetNumberOr("parent", -1).value(), 0.0);
  EXPECT_EQ(args->GetStringOr("blocks", "").value(), "4");
  EXPECT_EQ(args->GetStringOr("trace_id", "").value(), "cli-assess");
}

TEST(ExportTest, PrometheusPathReplacesExtension) {
  EXPECT_EQ(obs::PrometheusPathFor("metrics.json"), "metrics.prom");
  EXPECT_EQ(obs::PrometheusPathFor("out/m.json"), "out/m.prom");
  EXPECT_EQ(obs::PrometheusPathFor("noext"), "noext.prom");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(obs::PrometheusPathFor("dir.v2/metrics"), "dir.v2/metrics.prom");
}

TEST(ExportTest, WriteMetricsFilesWritesBothSiblings) {
  obs::MetricsRegistry registry;
  registry.GetCounter("w_total")->Increment();
  const std::string json_path = testing::TempDir() + "/obs_export.json";
  ASSERT_TRUE(obs::WriteMetricsFiles(registry, json_path).ok());
  std::FILE* json = std::fopen(json_path.c_str(), "r");
  ASSERT_NE(json, nullptr);
  std::fclose(json);
  std::FILE* prom =
      std::fopen((testing::TempDir() + "/obs_export.prom").c_str(), "r");
  ASSERT_NE(prom, nullptr);
  std::fclose(prom);
  EXPECT_TRUE(
      obs::WriteMetricsFiles(registry, "/no/such/dir/x.json").IsIOError());
}

}  // namespace
}  // namespace anonsafe
