#include "obs/scoped_timer.h"

#include "obs/handle_cache.h"

namespace anonsafe {
namespace obs {
namespace {

std::string MetricBaseName(const std::string& name) {
  std::string flat = name;
  for (char& c : flat) {
    if (c == '.' || c == '-' || c == '/') c = '_';
  }
  return "anonsafe_" + flat;
}

}  // namespace

Histogram* TimerHistogram(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(
      MetricBaseName(name) + "_seconds", {},
      "wall seconds spent in " + name);
}

Counter* TimerCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(
      MetricBaseName(name) + "_total", "invocations of " + name);
}

ScopedTimer::ScopedTimer(const char* name) : name_(name) {
  metrics_ = MetricsEnabled();
  tracer_ = Tracer::CurrentOrNull();
  if (!metrics_ && tracer_ == nullptr) return;
  if (tracer_ != nullptr) span_ = tracer_->OpenSpan(name);
  start_ = std::chrono::steady_clock::now();
  timing_ = true;
}

void ScopedTimer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!timing_) return;
  if (metrics_) {
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    struct Handles {
      Histogram* histogram;
      Counter* counter;
    };
    const Handles& handles =
        internal::CachedHandles<Handles>(name_, [](const char* name) {
          return Handles{TimerHistogram(name), TimerCounter(name)};
        });
    handles.histogram->Observe(seconds);
    handles.counter->Increment();
  }
  if (span_ != kNoSpan) tracer_->CloseSpan(span_);
}

void ScopedTimer::Annotate(const char* key, std::string value) {
  if (span_ == kNoSpan || stopped_) return;
  tracer_->Annotate(span_, key, std::move(value));
}

double ScopedTimer::ElapsedSeconds() const {
  if (!timing_ || stopped_) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace obs
}  // namespace anonsafe
