#ifndef ANONSAFE_OBS_SCOPED_TIMER_H_
#define ANONSAFE_OBS_SCOPED_TIMER_H_

#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace anonsafe {
namespace obs {

/// \brief Plain wall-clock stopwatch (steady clock). The non-RAII
/// building block for benches that need the elapsed time as a value.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// \brief RAII instrumentation scope: one object per timed phase.
///
/// When metrics are enabled, destruction observes the elapsed seconds in
/// the histogram `anonsafe_<name>_seconds` (dots mapped to underscores)
/// and bumps the counter `anonsafe_<name>_total`; each thread looks the
/// pair up once per name (obs/handle_cache.h). When a tracer is
/// current on this thread (an installed request `TraceContext`, or the
/// thread-local tracer under the global switch — see
/// `Tracer::CurrentOrNull`), the scope is a span in that trace tree, so
/// nested timers produce the hierarchical phase breakdown. When both are
/// off (the default), construction is two relaxed atomic loads plus a
/// thread-local read and nothing else — no clock read, no allocation.
///
/// Usage: `obs::ScopedTimer timer("core.oestimate");`
/// or, without naming a variable, `ANONSAFE_SCOPED_TIMER("graph.build");`.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// \brief Ends the scope early (idempotent; the destructor is a no-op
  /// afterwards).
  void Stop();

  /// \brief Attaches a key=value note to the trace span (no-op when
  /// tracing is off).
  void Annotate(const char* key, std::string value);

  /// \brief True when this scope records a trace span. Guard annotation
  /// argument construction with it so the disabled path stays
  /// allocation-free: `if (t.tracing()) t.Annotate("n", std::to_string(n));`
  bool tracing() const { return span_ != kNoSpan; }

  /// \brief Elapsed seconds so far (0 when observability is off).
  double ElapsedSeconds() const;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  Tracer* tracer_ = nullptr;  ///< tracer the span was opened on
  size_t span_ = kNoSpan;
  bool timing_ = false;   ///< clock was read at construction
  bool metrics_ = false;  ///< record into the registry at Stop()
  bool stopped_ = false;
};

/// \brief Looks up (once) the histogram/counter pair ScopedTimer records
/// into for `name`; exposed so exports and tests can address them.
Histogram* TimerHistogram(const std::string& name);
Counter* TimerCounter(const std::string& name);

#define ANONSAFE_OBS_CONCAT_INNER_(a, b) a##b
#define ANONSAFE_OBS_CONCAT_(a, b) ANONSAFE_OBS_CONCAT_INNER_(a, b)
/// \brief Anonymous ScopedTimer covering the rest of the enclosing scope.
#define ANONSAFE_SCOPED_TIMER(name)              \
  ::anonsafe::obs::ScopedTimer ANONSAFE_OBS_CONCAT_( \
      anonsafe_obs_timer_, __LINE__)(name)

}  // namespace obs
}  // namespace anonsafe

#endif  // ANONSAFE_OBS_SCOPED_TIMER_H_
