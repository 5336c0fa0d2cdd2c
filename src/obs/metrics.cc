#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "obs/handle_cache.h"

namespace anonsafe {
namespace obs {
namespace {

/// Reads a boolean environment toggle: unset or "0" is off.
bool EnvEnabled(const char* var) {
  const char* env = std::getenv(var);
  return env != nullptr && std::string(env) != "0";
}

std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> flag{EnvEnabled("ANONSAFE_METRICS")};
  return flag;
}

/// CAS-adds `delta` to the double stored as bits in `bits`.
void AtomicDoubleAdd(std::atomic<uint64_t>* bits, double delta) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  for (;;) {
    double updated = std::bit_cast<double>(observed) + delta;
    if (bits->compare_exchange_weak(observed, std::bit_cast<uint64_t>(updated),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

bool MetricsEnabled() {
  return MetricsFlag().load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Gauge

uint64_t Gauge::Encode(double v) { return std::bit_cast<uint64_t>(v); }
double Gauge::Decode(uint64_t bits) { return std::bit_cast<double>(bits); }

void Gauge::Add(double delta) { AtomicDoubleAdd(&bits_, delta); }

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      bucket_counts_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  bucket_counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(&sum_bits_, v);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = bucket_counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  return s;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based ceiling, like Prometheus'
  // histogram_quantile on cumulative counts).
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (b >= bounds.size()) {
      // Overflow bucket: no upper bound to interpolate against.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    double lower = b == 0 ? 0.0 : bounds[b - 1];
    double upper = bounds[b];
    double within = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(in_bucket);
    return lower + (upper - lower) * within;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> Histogram::LatencySecondsBuckets() {
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
          0.25, 0.5,    1.0,  2.5,  5.0,  10.0, 30.0, 60.0};
}

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// Map key for a labeled series: the family name plus the label pairs
/// joined with control separators. '\t' (0x09) sorts before every
/// printable character, so all series of family "f" sort directly after
/// the unlabeled "f" and before any longer name like "f_total" — export
/// order stays family-contiguous.
std::string SeriesKey(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\t';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter(name, help));
  return slot.get();
}

Counter* MetricsRegistry::GetCounterWithLabels(const std::string& name,
                                               const LabelSet& labels,
                                               const std::string& help) {
  if (labels.empty()) return GetCounter(name, help);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[SeriesKey(name, labels)];
  if (slot == nullptr) slot.reset(new Counter(name, help, labels));
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge(name, help));
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::LatencySecondsBuckets();
    assert(std::is_sorted(bounds.begin(), bounds.end()));
    slot.reset(new Histogram(name, help, std::move(bounds)));
  }
  return slot.get();
}

std::vector<const Counter*> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back(c.get());
  return out;
}

std::vector<const Gauge*> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back(g.get());
  return out;
}

std::vector<const Histogram*> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(h.get());
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->bits_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    for (size_t i = 0; i <= h->bounds_.size(); ++i) {
      h->bucket_counts_[i].store(0, std::memory_order_relaxed);
    }
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_bits_.store(0, std::memory_order_relaxed);
  }
}

void CountIf(const char* name, uint64_t delta) {
  if (!MetricsEnabled()) return;
  internal::CachedHandles<Counter*>(name, [](const char* counter) {
    return MetricsRegistry::Global().GetCounter(counter);
  })->Increment(delta);
}

void GaugeIf(const char* name, double value) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().GetGauge(name)->Set(value);
}

}  // namespace obs
}  // namespace anonsafe
