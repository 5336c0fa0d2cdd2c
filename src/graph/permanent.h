#ifndef ANONSAFE_GRAPH_PERMANENT_H_
#define ANONSAFE_GRAPH_PERMANENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/cpu.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec

/// \brief Hard cap for Ryser evaluations (2^26 subsets ≈ seconds).
inline constexpr size_t kMaxPermanentN = 26;

/// \brief Matrices of at least this order split the Gray-code iteration
/// space into kRyserChunks independent ranges (each chunk reseeds its
/// per-row column sums from its start subset). Smaller matrices keep the
/// single-pass evaluation. The split is a function of n only — never of
/// the thread count — so results are reproducible either way.
inline constexpr size_t kRyserParallelMinN = 14;
inline constexpr size_t kRyserChunks = 64;

/// \brief Permanent of a 0/1 matrix given as row bitmasks, via Ryser's
/// inclusion–exclusion with Gray-code column updates, O(2^n · n).
///
/// The permanent of the consistency graph's adjacency matrix counts its
/// perfect matchings — the size of the space of consistent crack mappings
/// (Section 4.1). Exact but exponential: the paper cites Valiant's
/// #P-completeness and the O(n^22) JSV approximation to motivate the
/// O-estimate; this implementation is the small-n ground truth oracle.
/// Fails with OutOfRange for n > kMaxPermanentN.
///
/// With a non-null `ctx` and n >= kRyserParallelMinN the subset chunks
/// evaluate on the pool; partial sums land in per-chunk slots and are
/// folded in chunk order, so the value is bit-identical for any thread
/// count.
Result<double> PermanentRyser(const std::vector<uint64_t>& rows,
                              exec::ExecContext* ctx = nullptr);

/// \brief PermanentRyser evaluated with a specific SIMD tier instead of
/// the runtime-dispatched one. Fails with InvalidArgument when the tier
/// is unsupported by the CPU or was not compiled in. All tiers return
/// bit-identical values (differential-test / bench hook).
Result<double> PermanentRyserForIsa(const std::vector<uint64_t>& rows,
                                    cpu::Isa isa,
                                    exec::ExecContext* ctx = nullptr);

/// \brief Permanents of a batch of small matrices, evaluated with one
/// kernel resolution and one shared scratch plan across the whole batch.
/// Each entry is bit-identical to PermanentRyser on that matrix alone.
/// The planner's per-block minor sweep is the intended caller: a block of
/// order k evaluates 1 + k matrices back to back.
Result<std::vector<double>> PermanentBatch(
    const std::vector<std::vector<uint64_t>>& matrices,
    exec::ExecContext* ctx = nullptr);

/// \brief The chunk decomposition PermanentRyser uses for an order-n
/// matrix: half-open subset ranges within [1, 2^n), a function of n only.
/// Exposed so differential tests can reproduce the exact fold order.
std::vector<std::pair<uint64_t, uint64_t>> RyserChunkRanges(size_t n);

/// \brief Number of perfect matchings of the graph (permanent of A_G).
Result<double> CountPerfectMatchings(const BipartiteGraph& graph,
                                     exec::ExecContext* ctx = nullptr);

/// \brief Exact expected number of cracks by the direct method of
/// Section 4.1: E[X] = Σ_x  perm(A with row x' and column x removed) /
/// perm(A), summed over the diagonal edges (x', x) present in G.
///
/// Fails with OutOfRange for n > kMaxPermanentN and FailedPrecondition
/// when the graph has no perfect matching (permanent 0). With a non-null
/// `ctx` the per-item minors evaluate on the pool (one minor per task;
/// each minor's own Ryser stays sequential).
Result<double> ExactExpectedCracksByPermanent(
    const BipartiteGraph& graph, exec::ExecContext* ctx = nullptr);

/// \brief Exact crack distribution by exhaustive enumeration of all
/// perfect matchings (backtracking). `distribution[c]` is P(X = c).
struct CrackDistribution {
  std::vector<double> probability;  ///< index = crack count, size n+1
  double expected = 0.0;
  uint64_t num_matchings = 0;
};

/// \brief Enumerates every perfect matching of `graph`, tallying crack
/// counts (fixed points): `EnumerateMatchings` (graph/matching_walk.h)
/// over the graph's edges. Aborts with OutOfRange once more than
/// `max_matchings` matchings are seen — use only on tiny graphs.
Result<CrackDistribution> EnumerateCrackDistribution(
    const BipartiteGraph& graph, uint64_t max_matchings = 20'000'000);

}  // namespace anonsafe

#endif  // ANONSAFE_GRAPH_PERMANENT_H_
