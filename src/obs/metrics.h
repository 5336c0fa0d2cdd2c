#ifndef ANONSAFE_OBS_METRICS_H_
#define ANONSAFE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace anonsafe {
namespace obs {

/// \name Observability switches
///
/// Both default to off so the analysis core pays only an atomic load per
/// instrumentation site. The environment variables `ANONSAFE_METRICS` and
/// `ANONSAFE_TRACE` (any value except "0") turn them on process-wide; the
/// CLI (`--metrics-out`, `--trace`), bench telemetry and tests flip them
/// programmatically. The metric *primitives* below always record when
/// called directly — the switches gate the instrumentation layer
/// (`ScopedTimer`, `CountIf`) threaded through the hot paths.
/// @{
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);
/// @}

/// \brief Ordered label key/value pairs for one metric series. Order is
/// fixed by the first registration of the series and preserved in
/// exports.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonically increasing event count (Prometheus counter).
///
/// Lock-free on the hot path: one relaxed fetch_add. A counter may carry
/// a label set (`GetCounterWithLabels`); labeled series of one family
/// share the family name and export contiguously.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const LabelSet& labels() const { return labels_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help, LabelSet labels = {})
      : name_(std::move(name)),
        help_(std::move(help)),
        labels_(std::move(labels)) {}

  std::string name_, help_;
  LabelSet labels_;
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (Prometheus gauge).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);

  std::string name_, help_;
  // Stored as bit pattern: atomic<double> RMW support predates C++20 only
  // partially across toolchains, and a CAS loop over the bits is portable.
  std::atomic<uint64_t> bits_{0};
};

/// \brief Fixed-bucket histogram with lock-free observation.
///
/// Buckets are defined by inclusive upper bounds (`le` in Prometheus
/// terms) plus an implicit +Inf overflow bucket; `Observe` is a linear
/// bound scan (the default latency layout has 24 bounds) and two relaxed
/// atomic adds. Quantiles (p50/p95/p99) are estimated from a snapshot by
/// linear interpolation inside the covering bucket — exact enough for
/// phase-level latency tracking, and stable for golden tests.
class Histogram {
 public:
  void Observe(double v);

  /// \brief Consistent-enough copy of the current state (each field is
  /// read atomically; concurrent observers may move between buckets).
  struct Snapshot {
    std::vector<double> bounds;    ///< upper bounds, +Inf bucket implicit
    std::vector<uint64_t> counts;  ///< size bounds.size() + 1
    uint64_t count = 0;
    double sum = 0.0;

    /// \brief Interpolated quantile, `q` in [0, 1]; 0 for empty data.
    /// Values in the overflow bucket report the largest finite bound.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& bounds() const { return bounds_; }

  /// \brief Default layout for operation latencies in seconds:
  /// 1µs … 60s on a 1-2.5-5 grid.
  static std::vector<double> LatencySecondsBuckets();

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help, std::vector<double> bounds);

  std::string name_, help_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> bucket_counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  ///< double stored as bits, CAS-added
};

/// \brief Process-wide, name-keyed metric registry.
///
/// Registration (`GetCounter` etc.) takes a mutex and is idempotent:
/// the first call creates the metric, later calls return the same stable
/// pointer, so call sites cache it in a function-local static and the hot
/// path never touches the lock. Export walks the sorted name map, giving
/// deterministic JSON/Prometheus output.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  /// \brief One series of the counter family `name` distinguished by
  /// `labels` (e.g. {{"verb", "assess_risk"}, {"outcome", "ok"}}). Same
  /// idempotency contract as GetCounter; the label order of the first
  /// call sticks. Series of one family sort together in exports.
  Counter* GetCounterWithLabels(const std::string& name,
                                const LabelSet& labels,
                                const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// Empty `bounds` selects `Histogram::LatencySecondsBuckets()`. Bounds
  /// must be strictly increasing; they are fixed by the first caller.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          const std::string& help = "");

  /// \brief Snapshot accessors for exporters (sorted by name).
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

  /// \brief Zeroes every value, keeping registrations (and therefore any
  /// cached pointers) valid. Used between CLI runs and bench sections.
  void Reset();

 private:
  mutable std::mutex mu_;
  // Sorted maps => deterministic export order; unique_ptr values => stable
  // metric addresses across later registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief Convenience: bump `name` by `delta` iff metrics are enabled.
/// For hot-path event counts where creating a ScopedTimer is overkill.
/// Each thread looks the counter up once per name.
void CountIf(const char* name, uint64_t delta = 1);

/// \brief Convenience: set gauge `name` iff metrics are enabled.
void GaugeIf(const char* name, double value);

}  // namespace obs
}  // namespace anonsafe

#endif  // ANONSAFE_OBS_METRICS_H_
