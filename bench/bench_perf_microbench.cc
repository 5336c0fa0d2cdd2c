// E7 — performance microbenchmarks (google-benchmark) backing the
// paper's complexity claims:
//   * Figure 5 claims the O-estimate runs in O(|D| + n log n): BM_OEstimate
//     sweeps the domain size and should scale near-linearly;
//   * Section 7.2 remarks the RETAIL O-estimate "takes only a few
//     seconds" on 2005 hardware: BM_OEstimateRetail measures it here;
//   * Ryser's permanent is O(2^n n): BM_Permanent shows the exponential
//     wall that motivates the O-estimate;
//   * sampler sweeps and propagation are the costs of the simulated
//     estimator and of Figure 7.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "belief/builders.h"
#include "datagen/quest.h"
#include "mining/miner.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "datagen/profile.h"
#include "graph/bipartite_graph.h"
#include "graph/consistency.h"
#include "graph/hopcroft_karp.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "graph/simd_kernels.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

/// Synthetic frequency table: n items, ~n/4 groups, m = 16n transactions.
FrequencyTable MakeTable(size_t n) {
  Rng rng(n * 2654435761u + 1);
  const size_t m = 16 * n;
  std::vector<SupportCount> supports(n);
  const size_t groups = std::max<size_t>(2, n / 4);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = 1 + (rng.UniformUint64(groups) * m) / (groups + 1);
  }
  return *FrequencyTable::FromSupports(std::move(supports), m);
}

void BM_FrequencyGroupsBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  for (auto _ : state) {
    FrequencyGroups fg = FrequencyGroups::Build(table);
    benchmark::DoNotOptimize(fg.num_groups());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FrequencyGroupsBuild)->Range(1 << 10, 1 << 17)->Complexity();

void BM_OEstimate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(table, groups.MedianGap());
  OEstimateOptions options;
  options.propagate = false;
  for (auto _ : state) {
    auto oe = ComputeOEstimate(groups, belief, options);
    benchmark::DoNotOptimize(oe->expected_cracks);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_OEstimate)->Range(1 << 10, 1 << 17)->Complexity();

void BM_OEstimateWithPropagation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(table, groups.MedianGap());
  for (auto _ : state) {
    auto oe = ComputeOEstimate(groups, belief);
    benchmark::DoNotOptimize(oe->expected_cracks);
  }
}
BENCHMARK(BM_OEstimateWithPropagation)->Range(1 << 10, 1 << 15);

void BM_OEstimateRetail(benchmark::State& state) {
  // The Section 7.2 claim, on the full-size RETAIL stand-in.
  Rng rng(2005);
  auto profile = MakeBenchmarkProfile(Benchmark::kRetail, &rng);
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(),
                                            profile->num_transactions());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(*table, groups.MedianGap());
  for (auto _ : state) {
    auto oe = ComputeOEstimate(groups, belief);
    benchmark::DoNotOptimize(oe->expected_cracks);
  }
}
BENCHMARK(BM_OEstimateRetail);

void BM_ConsistencyBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(table, 2.0 * groups.MedianGap());
  for (auto _ : state) {
    auto cs = ConsistencyStructure::Build(groups, belief);
    benchmark::DoNotOptimize(cs->num_groups());
  }
}
BENCHMARK(BM_ConsistencyBuild)->Range(1 << 10, 1 << 16);

void BM_SamplerSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(table, groups.MedianGap());
  SamplerOptions options;
  options.num_samples = 8;
  options.burn_in_sweeps = 1;
  options.burn_in_scale = 0.0;  // measure sweeps, not adaptive burn-in
  options.thinning_sweeps = 1;
  options.samples_per_seed = 8;
  auto sampler = MatchingSampler::Create(groups, belief, options);
  for (auto _ : state) {
    // Eight samples at thinning 1 == eight sweeps + eight crack counts.
    benchmark::DoNotOptimize(sampler->SampleCrackCounts());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SamplerSweep)->Range(1 << 10, 1 << 13);

void BM_Permanent(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(n);
  std::vector<uint64_t> rows(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6)) rows[i] |= (1ULL << j);
    }
    rows[i] |= (1ULL << i);  // keep a perfect matching plausible
  }
  for (auto _ : state) {
    auto p = PermanentRyser(rows);
    benchmark::DoNotOptimize(*p);
  }
}
BENCHMARK(BM_Permanent)->DenseRange(8, 24, 2);

void BM_PermanentBatch(benchmark::State& state) {
  // The planner's block shape: a run of small matrices evaluated with one
  // kernel resolution and one shared scratch plan (EvalPermanentBlock
  // batches the block plus all its diagonal minors this way).
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(k * 77 + 5);
  std::vector<std::vector<uint64_t>> matrices(32);
  for (auto& rows : matrices) {
    rows.assign(k, 0);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (rng.Bernoulli(0.6)) rows[i] |= (1ULL << j);
      }
      rows[i] |= (1ULL << i);
    }
  }
  for (auto _ : state) {
    auto perms = PermanentBatch(matrices);
    benchmark::DoNotOptimize((*perms)[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(matrices.size()));
}
BENCHMARK(BM_PermanentBatch)->DenseRange(8, 12, 2);

void BM_SamplerProbe(benchmark::State& state) {
  // The dispatched fixed-point probe on its own: one crack count per
  // sample is the sampler's per-sample epilogue cost.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(123);
  std::vector<ItemId> v(n);
  std::vector<uint8_t> interest(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Bernoulli(0.5) ? static_cast<ItemId>(i)
                              : static_cast<ItemId>(rng.UniformUint64(n));
    interest[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  const auto& kernels = internal::Kernels();
  for (auto _ : state) {
    size_t cracks =
        kernels.count_fixed_points(v.data(), interest.data(), n);
    benchmark::DoNotOptimize(cracks);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SamplerProbe)->Arg(8192);

void BM_GraphBuildHK(benchmark::State& state) {
  // Explicit-graph pipeline: CSR build from belief + Hopcroft–Karp
  // maximum matching (the perfect-matching existence check).
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  BeliefFunction belief =
      *MakeCompliantIntervalBelief(table, 2.0 * groups.MedianGap());
  for (auto _ : state) {
    auto graph = BipartiteGraph::Build(groups, belief);
    Matching matching = HopcroftKarp(*graph);
    benchmark::DoNotOptimize(matching.size);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_GraphBuildHK)->Range(1 << 8, 1 << 12)->Complexity();

void BM_AssessRiskBisection(benchmark::State& state) {
  // Macro-bench of the recipe's δ-bisection: a tolerance low enough that
  // both disclose short-circuits fail, so every iteration pays runs ×
  // binary_search_iterations α probes. Single-threaded: this measures the
  // kernels (stab caching, consistency build, propagation), not the pool.
  const size_t n = static_cast<size_t>(state.range(0));
  FrequencyTable table = MakeTable(n);
  RecipeOptions options;
  options.tolerance = 0.001;
  options.binary_search_iterations = 8;
  options.exec.runs = 3;
  options.exec.threads = 1;
  for (auto _ : state) {
    auto result = AssessRisk(table, options);
    benchmark::DoNotOptimize(result->alpha_max);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AssessRiskBisection)->Range(1 << 10, 1 << 13);

void BM_Propagation(benchmark::State& state) {
  // Worst-case staircase: every pass forces one item (Figure 6(a) at n).
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = 4 * n;
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) supports[i] = i + 1;
  auto table = FrequencyTable::FromSupports(supports, m);
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  std::vector<BeliefInterval> intervals(n);
  for (size_t i = 0; i < n; ++i) {
    intervals[i] = {0.0, (static_cast<double>(i + 1) + 0.5) /
                             static_cast<double>(m)};
  }
  BeliefFunction belief = *BeliefFunction::Create(std::move(intervals));
  for (auto _ : state) {
    auto cs = ConsistencyStructure::Build(groups, belief);
    auto stats = cs->PropagateDegreeOne();
    benchmark::DoNotOptimize(stats.forced_pairs);
  }
}
BENCHMARK(BM_Propagation)->Range(1 << 6, 1 << 10);

Database QuestFixture(size_t num_transactions) {
  QuestParams params;
  params.num_items = 120;
  params.num_transactions = num_transactions;
  params.avg_txn_size = 8.0;
  params.num_patterns = 40;
  params.seed = 9;
  return *GenerateQuestDatabase(params);
}

void BM_MineApriori(benchmark::State& state) {
  Database db = QuestFixture(static_cast<size_t>(state.range(0)));
  MiningOptions options;
  options.min_support = 0.05;
  for (auto _ : state) {
    auto result = MineApriori(db, options);
    benchmark::DoNotOptimize(result->size());
  }
}
BENCHMARK(BM_MineApriori)->Range(512, 4096);

void BM_MineFPGrowth(benchmark::State& state) {
  Database db = QuestFixture(static_cast<size_t>(state.range(0)));
  MiningOptions options;
  options.min_support = 0.05;
  for (auto _ : state) {
    auto result = MineFPGrowth(db, options);
    benchmark::DoNotOptimize(result->size());
  }
}
BENCHMARK(BM_MineFPGrowth)->Range(512, 4096);

}  // namespace
}  // namespace anonsafe

int main(int argc, char** argv) {
  // Stamp the run with the resolved SIMD tier and CPU model: check_perf.sh
  // refuses to compare against a baseline recorded on a different ISA.
  benchmark::AddCustomContext("anonsafe_simd_isa",
                              anonsafe::internal::Kernels().name);
  benchmark::AddCustomContext("anonsafe_cpu_model",
                              anonsafe::cpu::CpuModelName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
