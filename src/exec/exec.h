#ifndef ANONSAFE_EXEC_EXEC_H_
#define ANONSAFE_EXEC_EXEC_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace anonsafe {
namespace obs {
class TraceContext;
}  // namespace obs
namespace exec {

/// \brief Shared execution knobs, embedded once in every top-level
/// options struct (RecipeOptions, SamplerOptions, SimulationOptions,
/// SimilarityOptions, ...).
struct ExecOptions {
  /// Master RNG seed. Every parallel unit (run, chain, chunk) derives
  /// its own stream via SplitSeed(seed, stream), so results are
  /// reproducible and independent of the thread count.
  uint64_t seed = 7;
  /// Generic replicate count: alpha runs for the recipe/sweep,
  /// simulation runs for SimulateCracks.
  size_t runs = 5;
  /// Threads a parallel region may use, its caller included. 1 =
  /// sequential (default, matches the seed baseline); 0 = all of the
  /// host's cores; a larger count runs at the host's cores.
  size_t threads = 1;
};

/// \brief Derives an independent RNG stream from a master seed by
/// counter-based splitting (splitmix64 finalizer over seed + stream *
/// odd constant). Streams for distinct counters are decorrelated even
/// for adjacent seeds; the mapping depends only on (seed, stream), never
/// on thread scheduling.
uint64_t SplitSeed(uint64_t seed, uint64_t stream);

/// \brief Sums `n` doubles with a fixed-order pairwise tree. The
/// association depends only on `n`, so parallel reductions that collect
/// per-chunk partials into slot arrays and then PairwiseSum them are
/// bit-identical regardless of thread count (and more accurate than a
/// left fold).
double PairwiseSum(const double* values, size_t n);
double PairwiseSum(const std::vector<double>& values);

/// \brief Per-invocation execution state: the seed, the resolved thread
/// count, a cooperative cancellation flag, an optional deadline and the
/// request's trace. It owns no thread: parallel regions borrow helpers
/// from `ThreadPool::Shared()`. Passed by pointer through the hot paths;
/// `nullptr` means sequential execution with the same chunking and
/// reduction order, so a null context and a 1-thread context are
/// bit-identical.
class ExecContext {
 public:
  explicit ExecContext(const ExecOptions& options);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const ExecOptions& options() const { return options_; }
  /// Threads a region may use, its caller included: `threads`, with 0
  /// and any larger count resolved to the host's cores.
  size_t num_threads() const { return num_threads_; }
  uint64_t seed() const { return options_.seed; }

  /// \brief RNG for stream index `stream`, split off the master seed.
  Rng StreamRng(uint64_t stream) const {
    return Rng(SplitSeed(options_.seed, stream));
  }

  /// \brief Requests cooperative cancellation: chunks not yet started
  /// are skipped. Callers observe `cancelled()` after the parallel call
  /// returns.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  /// \brief Cancels once `deadline` has passed: from then on
  /// `cancelled()` reads true, with no thread watching the clock. Set it
  /// before the context is shared with other threads.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  bool cancelled() const {
    return cancel_.load(std::memory_order_relaxed) ||
           (deadline_ != kNoDeadline &&
            std::chrono::steady_clock::now() >= deadline_);
  }

  /// \name Request trace attachment
  /// The (optional, non-owned) trace context of the request this
  /// execution belongs to. Set by the request owner (the server, the
  /// CLI); `ParallelForChunks` gives every chunk a fragment tracer on
  /// the same timeline and merges the fragments back in chunk order, so
  /// spans recorded on pool workers land in this request's single tree.
  /// @{
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }
  obs::TraceContext* trace() const { return trace_; }
  /// @}

 private:
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  ExecOptions options_;
  size_t num_threads_;
  std::atomic<bool> cancel_{false};
  std::chrono::steady_clock::time_point deadline_ = kNoDeadline;
  obs::TraceContext* trace_ = nullptr;
};

/// \brief Number of chunks ParallelForChunks splits `n` items into for
/// a given grain — depends only on (n, grain), never on thread count.
inline size_t NumChunks(size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// \brief Runs `body(begin, end)` over [0, n) in chunks of `grain`
/// items. Chunk boundaries depend only on (n, grain). The calling thread
/// and up to `min(ctx->num_threads(), chunks) - 1` helpers from
/// `ThreadPool::Shared()` claim chunk indices in order from one counter;
/// with a null context, 1 thread or one chunk the caller claims them
/// all, in index order. The caller never waits for a helper to start,
/// only for chunks already claimed, and runs no other region's chunks.
/// A region nested inside a chunk of a region that has helpers runs
/// inline on the thread that runs that chunk, be it a helper or the
/// caller: such a chunk never fans out again onto a pool that is busy
/// with its siblings.
///
/// The returned Status is deterministic: when several chunks fail, the
/// error from the lowest chunk index wins. Exceptions thrown by `body`
/// are captured per chunk and the lowest-index one is rethrown on the
/// calling thread. A claimed chunk is skipped when `ctx->cancelled()`
/// or when an earlier chunk has failed (OkStatus is still returned on
/// cancellation; callers check the flag).
///
/// When a tracer is current on the calling thread (see
/// `obs::Tracer::CurrentOrNull`), every chunk runs under an `exec.chunk`
/// span in a private fragment tracer sharing the caller's epoch; the
/// fragments are merged under the innermost open span in chunk-index
/// order, so the span *structure* is bit-identical at any thread count.
Status ParallelForChunks(ExecContext* ctx, size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& body);

/// \brief Parallel sum reduction: `chunk_sum(begin, end)` returns the
/// partial sum of each chunk; partials land in per-chunk slots and are
/// combined with PairwiseSum, so the result is bit-identical for any
/// thread count. First (lowest-chunk) error wins.
Result<double> ParallelSumChunks(
    ExecContext* ctx, size_t n, size_t grain,
    const std::function<Result<double>(size_t, size_t)>& chunk_sum);

}  // namespace exec
}  // namespace anonsafe

#endif  // ANONSAFE_EXEC_EXEC_H_
