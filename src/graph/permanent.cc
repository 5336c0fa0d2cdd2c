#include "graph/permanent.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "exec/exec.h"
#include "exec/scratch.h"
#include "graph/matching_walk.h"
#include "graph/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace {

using internal::KernelVTable;
using internal::kRyserLanes;
using internal::kRyserLowBits;
using internal::NeumaierAdd;
using internal::RyserPlan;

static_assert(internal::kMaxRyserRows == kMaxPermanentN,
              "lane kernel row capacity must match the public Ryser cap");

/// Caller-owned scratch behind a RyserPlan. The low table must be 64-byte
/// aligned (the SIMD tiers use aligned loads; each [p][i] row slice is
/// exactly one cache line). Reusable across matrices — PermanentBatch
/// builds every plan of a batch into the same buffers.
struct RyserScratch {
  exec::AlignedScratchVec<double> low;
  exec::ScratchVec<uint64_t> rows_hi;
  exec::ScratchVec<uint64_t> colhi;
};

/// Precomputes the lane decomposition of `rows` (see simd_kernels.h):
/// subset iter = 8t + j has gray(iter) = (gray(t) << 3) | low3(j, t & 1)
/// with low3(j, p) = (j ^ (j >> 1)) ^ (p << 2), so each row's subset sum
/// splits into a per-block scalar over the high columns plus this
/// per-lane table over the three low columns.
RyserPlan BuildRyserPlan(const std::vector<uint64_t>& rows,
                         RyserScratch* scratch) {
  const size_t n = rows.size();
  RyserPlan plan;
  plan.n = n;
  scratch->low.resize(2 * n * kRyserLanes);
  scratch->rows_hi.resize(n);
  const size_t hi_cols = n > kRyserLowBits ? n - kRyserLowBits : 0;
  scratch->colhi.assign(hi_cols, 0);
  constexpr uint64_t kLowMask = (1ULL << kRyserLowBits) - 1;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t low_bits = rows[i] & kLowMask;
    if (low_bits == 0) plan.low_zero_rows |= 1ULL << i;
    for (size_t p = 0; p < 2; ++p) {
      for (size_t j = 0; j < kRyserLanes; ++j) {
        const uint64_t low3 = (j ^ (j >> 1)) ^ (p << 2);
        scratch->low[(p * n + i) * kRyserLanes + j] =
            static_cast<double>(std::popcount(low_bits & low3));
      }
    }
    const uint64_t hi = rows[i] >> kRyserLowBits;
    scratch->rows_hi[i] = hi;
    for (uint64_t m = hi; m != 0; m &= m - 1) {
      scratch->colhi[static_cast<size_t>(std::countr_zero(m))] |= 1ULL << i;
    }
  }
  plan.low = scratch->low.data();
  plan.rows_hi = scratch->rows_hi.data();
  plan.colhi = scratch->colhi.data();
  return plan;
}

/// Ryser with Gray code on the *columns included* set:
///   perm(A) = (-1)^n Σ_{∅≠S⊆[n]} (-1)^{|S|} Π_i row_sum_i(S),
/// evaluated 8 subsets at a time by the dispatched lane kernel. For
/// n >= kRyserParallelMinN the 2^n - 1 subsets split into kRyserChunks
/// ranges — a function of n alone — and each chunk's Neumaier pair lands
/// in a fixed slot; pairs fold in chunk order (sums first, then
/// compensations, mirroring the kernel's lane fold), so the value is
/// bit-identical for any thread count and any ISA tier.
double RyserImpl(const KernelVTable& kernel, const std::vector<uint64_t>& rows,
                 exec::ExecContext* ctx, RyserScratch* scratch,
                 uint64_t* skipped) {
  const size_t n = rows.size();
  if (n == 0) return 1.0;  // empty product convention
  const uint64_t limit = 1ULL << n;
  const RyserPlan plan = BuildRyserPlan(rows, scratch);

  if (n < kRyserParallelMinN) {
    double sum = 0.0;
    double comp = 0.0;
    kernel.ryser_range(plan, 1, limit, &sum, &comp, skipped);
    return sum + comp;
  }

  const size_t iters = static_cast<size_t>(limit - 1);
  const size_t grain = (iters + kRyserChunks - 1) / kRyserChunks;
  const size_t chunks = exec::NumChunks(iters, grain);
  std::vector<double> sums(chunks, 0.0);
  std::vector<double> comps(chunks, 0.0);
  std::vector<uint64_t> skipped_slots(chunks, 0);
  // The body cannot fail; the Status channel is unused here. Workers only
  // read the shared plan.
  Status st = exec::ParallelForChunks(
      ctx, iters, grain, [&](size_t begin, size_t end) {
        kernel.ryser_range(plan, 1 + begin, 1 + end, &sums[begin / grain],
                           &comps[begin / grain],
                           &skipped_slots[begin / grain]);
        return Status::OK();
      });
  (void)st;
  double fs = 0.0;
  double fc = 0.0;
  for (size_t c = 0; c < chunks; ++c) NeumaierAdd(&fs, &fc, sums[c]);
  for (size_t c = 0; c < chunks; ++c) NeumaierAdd(&fs, &fc, comps[c]);
  if (skipped != nullptr) {
    for (size_t c = 0; c < chunks; ++c) *skipped += skipped_slots[c];
  }
  return fs + fc;
}

Status ValidateRows(const std::vector<uint64_t>& rows) {
  if (rows.size() > kMaxPermanentN) {
    return Status::OutOfRange(
        "permanent limited to n <= " + std::to_string(kMaxPermanentN) +
        ", got " + std::to_string(rows.size()));
  }
  for (uint64_t row : rows) {
    if (rows.size() < 64 && (row >> rows.size()) != 0) {
      return Status::InvalidArgument("row mask wider than the matrix");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> RyserChunkRanges(size_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  if (n == 0) return ranges;
  const uint64_t limit = 1ULL << n;
  if (n < kRyserParallelMinN) {
    ranges.emplace_back(1, limit);
    return ranges;
  }
  const uint64_t iters = limit - 1;
  const uint64_t grain = (iters + kRyserChunks - 1) / kRyserChunks;
  for (uint64_t b = 0; b < iters; b += grain) {
    ranges.emplace_back(1 + b, 1 + std::min(iters, b + grain));
  }
  return ranges;
}

Result<double> PermanentRyser(const std::vector<uint64_t>& rows,
                              exec::ExecContext* ctx) {
  ANONSAFE_RETURN_IF_ERROR(ValidateRows(rows));
  RyserScratch scratch;
  uint64_t skipped = 0;
  const double result =
      RyserImpl(internal::Kernels(), rows, ctx, &scratch, &skipped);
  obs::CountIf("anonsafe_ryser_skipped_products_total", skipped);
  return result;
}

Result<double> PermanentRyserForIsa(const std::vector<uint64_t>& rows,
                                    cpu::Isa isa, exec::ExecContext* ctx) {
  const KernelVTable* kernel = internal::KernelsFor(isa);
  if (kernel == nullptr) {
    return Status::InvalidArgument(
        std::string("ISA tier not available on this host/build: ") +
        cpu::IsaName(isa));
  }
  ANONSAFE_RETURN_IF_ERROR(ValidateRows(rows));
  RyserScratch scratch;
  uint64_t skipped = 0;
  const double result = RyserImpl(*kernel, rows, ctx, &scratch, &skipped);
  obs::CountIf("anonsafe_ryser_skipped_products_total", skipped);
  return result;
}

Result<std::vector<double>> PermanentBatch(
    const std::vector<std::vector<uint64_t>>& matrices,
    exec::ExecContext* ctx) {
  for (const std::vector<uint64_t>& rows : matrices) {
    ANONSAFE_RETURN_IF_ERROR(ValidateRows(rows));
  }
  const KernelVTable& kernel = internal::Kernels();
  RyserScratch scratch;
  std::vector<double> out;
  out.reserve(matrices.size());
  uint64_t skipped = 0;
  for (const std::vector<uint64_t>& rows : matrices) {
    out.push_back(RyserImpl(kernel, rows, ctx, &scratch, &skipped));
  }
  obs::CountIf("anonsafe_ryser_skipped_products_total", skipped);
  return out;
}

Result<double> CountPerfectMatchings(const BipartiteGraph& graph,
                                     exec::ExecContext* ctx) {
  ANONSAFE_SCOPED_TIMER("graph.permanent_count");
  if (graph.num_items() > kMaxPermanentN) {
    return Status::OutOfRange(
        "matching count limited to n <= " + std::to_string(kMaxPermanentN));
  }
  ANONSAFE_ASSIGN_OR_RETURN(std::vector<uint64_t> rows, graph.ToRowMasks());
  return PermanentRyser(rows, ctx);
}

Result<double> ExactExpectedCracksByPermanent(const BipartiteGraph& graph,
                                              exec::ExecContext* ctx) {
  ANONSAFE_SCOPED_TIMER("graph.permanent_exact_cracks");
  const size_t n = graph.num_items();
  if (n > kMaxPermanentN) {
    return Status::OutOfRange(
        "direct method limited to n <= " + std::to_string(kMaxPermanentN));
  }
  ANONSAFE_ASSIGN_OR_RETURN(std::vector<uint64_t> rows, graph.ToRowMasks());
  ANONSAFE_ASSIGN_OR_RETURN(double total, PermanentRyser(rows, ctx));
  if (total <= 0.0) {
    return Status::FailedPrecondition(
        "graph has no perfect matching; expected cracks undefined");
  }

  // One minor per task; per-item ratios land in fixed slots and fold
  // with a fixed-order pairwise sum, so the value is thread-count
  // independent. Each minor's own Ryser runs sequentially (the fan-out
  // lives at this level).
  ANONSAFE_ASSIGN_OR_RETURN(
      double expected,
      exec::ParallelSumChunks(
          ctx, n, /*grain=*/1,
          [&](size_t x, size_t /*end*/) -> Result<double> {
            if (!(rows[x] & (1ULL << x))) return 0.0;  // diagonal absent
            // Minor: drop row x and column x (pooled scratch: one minor
            // per item, recycled within each worker thread).
            exec::ScratchVec<uint64_t> minor;
            minor.vec().reserve(n - 1);
            const uint64_t low_mask = (1ULL << x) - 1;
            for (size_t i = 0; i < n; ++i) {
              if (i == x) continue;
              uint64_t row = rows[i];
              minor.push_back((row & low_mask) | ((row >> (x + 1)) << x));
            }
            ANONSAFE_ASSIGN_OR_RETURN(double sub, PermanentRyser(minor.vec()));
            return sub / total;
          }));
  return expected;
}

Result<CrackDistribution> EnumerateCrackDistribution(
    const BipartiteGraph& graph, uint64_t max_matchings) {
  ANONSAFE_SCOPED_TIMER("graph.crack_distribution");
  return EnumerateMatchings(
      GraphEdges{&graph}, [](ItemId x, ItemId a) { return x == a; },
      max_matchings);
}

}  // namespace anonsafe
