#include "exec/exec.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "exec/thread_pool.h"
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

// True while the thread runs a chunk of a region that has helpers: a
// region started there runs inline, so no chunk fans out again onto a
// pool that is busy with its siblings.
thread_local bool tls_in_shared_chunk = false;

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

ExecContext::ExecContext(const ExecOptions& options)
    : options_(options),
      num_threads_(options.threads == 0
                       ? HostCores()
                       : std::min(options.threads, HostCores())) {}

namespace {

using ChunkBody = std::function<Status(size_t, size_t)>;

/// The state of one ParallelForChunks call, shared by its caller and
/// its helpers. Trace fragments land in fixed per-chunk slots and the
/// lowest failed index wins, so the merged result does not depend on
/// which thread ran which chunk. A helper that starts after the region
/// has ended claims nothing, so it never touches `body` or `ctx`, which
/// live only as long as the call.
struct Region {
  Region(ExecContext* ctx, const ChunkBody& body, size_t n, size_t grain,
         size_t chunks, bool has_helpers, obs::Tracer* tracer)
      : ctx(ctx),
        body(body),
        n(n),
        grain(grain),
        chunks(chunks),
        has_helpers(has_helpers),
        traced(tracer != nullptr),
        epoch(traced ? tracer->EnsureEpoch()
                     : std::chrono::steady_clock::time_point()),
        fragments(traced ? chunks : 0) {}

  /// Runs chunks claimed in index order until every chunk is claimed.
  void ClaimChunks() {
    for (size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      RunChunk(c);
    }
  }

  /// Runs chunk `c` unless the context is cancelled or an earlier chunk
  /// has failed, then counts it finished.
  void RunChunk(size_t c) {
    Status status;
    std::exception_ptr thrown;
    if ((ctx == nullptr || !ctx->cancelled()) &&
        failed.load(std::memory_order_relaxed) > c) {
      const size_t begin = c * grain;
      const size_t end = std::min(begin + grain, n);
      const bool outer = tls_in_shared_chunk;
      tls_in_shared_chunk = outer || has_helpers;
      // Traced, the chunk records into a private fragment tracer on the
      // spawning tracer's timeline, under an `exec.chunk` root span; the
      // caller merges the fragments in chunk-index order.
      std::optional<obs::Tracer> fragment;
      obs::Tracer* previous = nullptr;
      try {
        if (traced) {
          fragment.emplace();
          fragment->SetEpoch(epoch);
          previous = obs::Tracer::Install(&*fragment);
          const size_t span = fragment->OpenSpan("exec.chunk");
          fragment->Annotate(span, "chunk", std::to_string(c));
          fragment->Annotate(span, "range", std::to_string(begin) + ".." +
                                                std::to_string(end));
        }
        status = body(begin, end);
      } catch (...) {
        thrown = std::current_exception();
      }
      if (traced) {
        fragment->CloseAllOpen();
        obs::Tracer::Install(previous);
        fragments[c] = fragment->TakeSpans();
      }
      tls_in_shared_chunk = outer;
    }
    std::lock_guard<std::mutex> lock(mu);
    if ((thrown || !status.ok()) &&
        c < failed.load(std::memory_order_relaxed)) {
      failed.store(c, std::memory_order_relaxed);
      error = std::move(status);
      exception = thrown;
    }
    if (++finished == chunks) done.notify_all();
  }

  ExecContext* const ctx;
  const ChunkBody& body;
  const size_t n;
  const size_t grain;
  const size_t chunks;
  const bool has_helpers;
  const bool traced;
  const std::chrono::steady_clock::time_point epoch;

  std::atomic<size_t> next{0};  // the next chunk index to claim
  // Lowest chunk index that failed; written under `mu`.
  std::atomic<size_t> failed{std::numeric_limits<size_t>::max()};
  std::mutex mu;
  std::condition_variable done;
  size_t finished = 0;           // guarded by mu
  Status error;                  // of chunk `failed`; guarded by mu
  std::exception_ptr exception;  // of chunk `failed`; guarded by mu
  // Per-chunk trace fragments (empty when skipped); merged into the
  // spawning tracer in index order after the last chunk finishes.
  std::vector<std::vector<obs::SpanNode>> fragments;
};

}  // namespace

Status ParallelForChunks(ExecContext* ctx, size_t n, size_t grain,
                         const ChunkBody& body) {
  if (grain == 0) grain = 1;
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return Status::OK();

  // The spawning tracer, read on the calling thread: the request tracer
  // installed by the owner, or the thread-local one under the global
  // switch. Chunk bodies never record into it directly — they get
  // fragments, so the threads that run chunks cannot reorder or
  // interleave spans.
  obs::Tracer* tracer = obs::Tracer::CurrentOrNull();
  const size_t parent_span =
      tracer != nullptr ? tracer->InnermostOpenSpan() : obs::kNoSpan;
  const size_t threads = ctx == nullptr || tls_in_shared_chunk
                             ? 1
                             : std::min(ctx->num_threads(), chunks);
  auto region = std::make_shared<Region>(ctx, body, n, grain, chunks,
                                         threads > 1, tracer);
  for (size_t h = 1; h < threads; ++h) {
    ThreadPool::Shared().Submit([region] { region->ClaimChunks(); });
  }
  region->ClaimChunks();
  {
    // Every chunk is claimed by now; wait for those still running.
    std::unique_lock<std::mutex> lock(region->mu);
    region->done.wait(lock, [&] { return region->finished == chunks; });
  }
  // This runs on the spawning thread, so `tracer` is touched
  // single-threaded.
  if (tracer != nullptr) {
    tracer->MergeChunkFragments(parent_span, std::move(region->fragments));
  }
  if (region->exception) std::rethrow_exception(region->exception);
  return region->error;
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
