#include "exec/exec.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace anonsafe {
namespace exec {
namespace {

// splitmix64 finalizer: a full-avalanche 64-bit mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// True while the calling thread of a region helps drain the pool: the
// chunks it runs then keep their nested regions inline, as a worker's do.
thread_local bool tls_helping = false;

}  // namespace

uint64_t SplitSeed(uint64_t seed, uint64_t stream) {
  // stream + 1 so stream 0 does not collapse onto the raw seed.
  return Mix64(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
}

double PairwiseSum(const double* values, size_t n) {
  if (n == 0) return 0.0;
  if (n == 1) return values[0];
  if (n == 2) return values[0] + values[1];
  size_t half = n / 2;
  return PairwiseSum(values, half) + PairwiseSum(values + half, n - half);
}

double PairwiseSum(const std::vector<double>& values) {
  return PairwiseSum(values.data(), values.size());
}

ExecContext::ExecContext(const ExecOptions& options) : options_(options) {
  num_threads_ = options.threads;
  if (num_threads_ == 0) {
    num_threads_ = std::thread::hardware_concurrency();
    if (num_threads_ == 0) num_threads_ = 1;
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

ExecContext::~ExecContext() = default;

namespace {

// Shared completion state for one ParallelForChunks fan-out. Chunk
// outcomes land in fixed per-chunk slots so the merged result does not
// depend on completion order.
struct ForState {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining;
  std::vector<Status> statuses;
  std::vector<std::exception_ptr> exceptions;
  // Per-chunk trace fragments (empty vectors when untraced/skipped);
  // merged into the spawning tracer in index order after the join.
  std::vector<std::vector<obs::SpanNode>> fragments;

  explicit ForState(size_t chunks)
      : remaining(chunks),
        statuses(chunks),
        exceptions(chunks),
        fragments(chunks) {}
};

Status MergeForState(ForState* state, size_t chunks) {
  // Lowest chunk index wins — deterministic regardless of which chunk
  // happened to fail first in wall-clock order.
  for (size_t c = 0; c < chunks; ++c) {
    if (state->exceptions[c]) std::rethrow_exception(state->exceptions[c]);
    if (!state->statuses[c].ok()) return state->statuses[c];
  }
  return Status::OK();
}

/// Runs one chunk under a private fragment tracer on the spawning
/// tracer's timeline: an `exec.chunk` root span (annotated with the
/// chunk index and range) wraps whatever spans `body` opens, the
/// fragment is installed as the running thread's current tracer for the
/// duration, and the recorded spans land in `*slot` — the caller merges
/// the slots in chunk-index order. Used verbatim by the sequential and
/// the parallel path so the merged structure cannot differ.
Status RunChunkTraced(const std::function<Status(size_t, size_t)>& body,
                      size_t c, size_t begin, size_t end,
                      std::chrono::steady_clock::time_point epoch,
                      std::vector<obs::SpanNode>* slot) {
  obs::Tracer fragment;
  fragment.SetEpoch(epoch);
  obs::Tracer* previous = obs::Tracer::Install(&fragment);
  size_t span = fragment.OpenSpan("exec.chunk");
  fragment.Annotate(span, "chunk", std::to_string(c));
  fragment.Annotate(span, "range",
                    std::to_string(begin) + ".." + std::to_string(end));
  Status status;
  try {
    status = body(begin, end);
  } catch (...) {
    fragment.CloseAllOpen();
    obs::Tracer::Install(previous);
    *slot = fragment.TakeSpans();
    throw;
  }
  fragment.CloseAllOpen();
  obs::Tracer::Install(previous);
  *slot = fragment.TakeSpans();
  return status;
}

}  // namespace

Status ParallelForChunks(ExecContext* ctx, size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& body) {
  if (grain == 0) grain = 1;
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return Status::OK();

  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  // The spawning tracer, read on the calling thread: the request tracer
  // installed by the owner, or the thread-local one under the global
  // switch. Chunk bodies never record into it directly — they get
  // fragments (below) so caller-helps stealing and worker scheduling
  // cannot reorder or interleave spans.
  obs::Tracer* tracer = obs::Tracer::CurrentOrNull();
  const size_t parent_span =
      tracer != nullptr ? tracer->InnermostOpenSpan() : obs::kNoSpan;

  const bool sequential = pool == nullptr || chunks == 1 ||
                          ThreadPool::OnWorkerThread() || tls_helping;
  if (sequential) {
    // Same chunk boundaries and order as the parallel path so a null
    // context is bit-identical to any thread count.
    if (tracer == nullptr) {
      for (size_t c = 0; c < chunks; ++c) {
        if (ctx != nullptr && ctx->cancelled()) break;
        size_t begin = c * grain;
        size_t end = begin + grain < n ? begin + grain : n;
        ANONSAFE_RETURN_IF_ERROR(body(begin, end));
      }
      return Status::OK();
    }
    std::vector<std::vector<obs::SpanNode>> fragments(chunks);
    Status status;
    try {
      for (size_t c = 0; c < chunks; ++c) {
        if (ctx != nullptr && ctx->cancelled()) break;
        size_t begin = c * grain;
        size_t end = begin + grain < n ? begin + grain : n;
        status = RunChunkTraced(body, c, begin, end, tracer->EnsureEpoch(),
                                &fragments[c]);
        if (!status.ok()) break;
      }
    } catch (...) {
      tracer->MergeChunkFragments(parent_span, std::move(fragments));
      throw;
    }
    tracer->MergeChunkFragments(parent_span, std::move(fragments));
    return status;
  }

  const bool traced = tracer != nullptr;
  auto epoch = traced ? tracer->EnsureEpoch()
                      : std::chrono::steady_clock::time_point();
  auto state = std::make_shared<ForState>(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    size_t begin = c * grain;
    size_t end = begin + grain < n ? begin + grain : n;
    pool->Submit([state, ctx, &body, c, begin, end, traced, epoch] {
      if (!ctx->cancelled()) {
        try {
          state->statuses[c] =
              traced ? RunChunkTraced(body, c, begin, end, epoch,
                                      &state->fragments[c])
                     : body(begin, end);
        } catch (...) {
          state->exceptions[c] = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->remaining == 0) state->cv.notify_all();
    });
  }

  // The caller lends a hand instead of blocking; between steals it
  // naps briefly on the condvar so the final chunks finishing on
  // workers wake it promptly. A chunk it runs here fans out no further:
  // its nested regions run inline, so whichever thread takes a chunk
  // does all of it. Chunks never throw out of their closures, so the
  // flag is always reset.
  tls_helping = true;
  for (;;) {
    if (pool->TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lock(state->mu);
    if (state->remaining == 0) break;
    state->cv.wait_for(lock, std::chrono::milliseconds(1),
                       [&] { return state->remaining == 0; });
    if (state->remaining == 0) break;
  }
  tls_helping = false;
  // All chunks joined: splice the fragments back in index order. This
  // runs on the spawning thread, so `tracer` is touched single-threaded.
  if (traced) {
    tracer->MergeChunkFragments(parent_span, std::move(state->fragments));
  }
  return MergeForState(state.get(), chunks);
}

Result<double> ParallelSumChunks(
    ExecContext* ctx, size_t n, size_t grain,
    const std::function<Result<double>(size_t, size_t)>& chunk_sum) {
  if (grain == 0) grain = 1;
  const size_t chunks = NumChunks(n, grain);
  std::vector<double> partials(chunks, 0.0);
  Status st = ParallelForChunks(
      ctx, n, grain, [&partials, grain, &chunk_sum](size_t begin, size_t end) {
        ANONSAFE_ASSIGN_OR_RETURN(partials[begin / grain],
                                  chunk_sum(begin, end));
        return Status::OK();
      });
  ANONSAFE_RETURN_IF_ERROR(st);
  return PairwiseSum(partials);
}

}  // namespace exec
}  // namespace anonsafe
