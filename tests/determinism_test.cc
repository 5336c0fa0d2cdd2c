// Bit-identity of the parallel analysis paths: every estimator must
// produce the exact same bits at 1, 2 and 8 threads (and with no
// context at all), because chunk boundaries, RNG streams, and
// reduction order are functions of the problem size only — never of
// the scheduling. See docs/PARALLELISM.md for the contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "belief/belief_function.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/direct_method.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/simulated.h"
#include "data/frequency.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

// A mid-size synthetic frequency profile: enough items that the
// parallel paths split into many chunks, small enough for fast tests.
Result<FrequencyTable> MakeProfile(size_t num_items, uint64_t seed) {
  Rng rng(seed);
  std::vector<SupportCount> supports;
  supports.reserve(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    supports.push_back(1 + rng.UniformUint64(500));
  }
  return FrequencyTable::FromSupports(std::move(supports), 1000);
}

exec::ExecOptions WithThreads(size_t threads) {
  exec::ExecOptions options;
  options.threads = threads;
  return options;
}

// --------------------------------------------------------- Assess-Risk

TEST(DeterminismTest, AssessRiskBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(300, 17);
  ASSERT_TRUE(table.ok());
  RecipeOptions base;
  base.tolerance = 0.1;

  std::vector<RecipeResult> results;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    RecipeOptions options = base;
    options.exec.threads = threads;
    auto r = AssessRisk(*table, options);
    ASSERT_TRUE(r.ok()) << threads << " threads: " << r.status();
    results.push_back(*r);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].decision, results[0].decision);
    EXPECT_EQ(results[i].interval_oe, results[0].interval_oe);
    EXPECT_EQ(results[i].alpha_max, results[0].alpha_max);
    EXPECT_EQ(results[i].delta_med, results[0].delta_med);
  }
}

TEST(DeterminismTest, AverageOEstimateBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(200, 23);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *belief, 5, 7);
  ASSERT_TRUE(sweep.ok());
  const AlphaCompliancySweep::ProbeCache cache = sweep->MakeProbeCache(groups);

  std::vector<double> averages;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto avg = sweep->AverageOEstimate(groups, cache, 0.6, {}, &ctx);
    ASSERT_TRUE(avg.ok()) << avg.status();
    averages.push_back(*avg);
  }
  // Null context must match too (the default API path).
  auto null_ctx = sweep->AverageOEstimate(groups, cache, 0.6);
  ASSERT_TRUE(null_ctx.ok());
  EXPECT_EQ(averages[0], averages[1]);
  EXPECT_EQ(averages[0], averages[2]);
  EXPECT_EQ(averages[0], *null_ctx);
}

TEST(DeterminismTest, OEstimateBitIdenticalWithAndWithoutContext) {
  auto table = MakeProfile(400, 31);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  auto none = ComputeOEstimate(groups, *belief);
  ASSERT_TRUE(none.ok());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto with = ComputeOEstimate(groups, *belief, {}, &ctx);
    ASSERT_TRUE(with.ok());
    EXPECT_EQ(with->expected_cracks, none->expected_cracks) << threads;
    EXPECT_EQ(with->forced_items, none->forced_items) << threads;
  }
}

// ------------------------------------------------------------- Sampler

TEST(DeterminismTest, SamplerChainsBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(60, 41);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  SamplerOptions options;
  options.num_samples = 120;
  options.samples_per_seed = 25;  // 5 chains, last one short
  options.burn_in_sweeps = 30;
  options.thinning_sweeps = 2;
  auto sampler = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(sampler.ok());

  std::vector<size_t> sequential = sampler->SampleCrackCounts();
  ASSERT_EQ(sequential.size(), 120u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    std::vector<size_t> parallel = sampler->SampleCrackCounts(&ctx);
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
  EXPECT_TRUE(sampler->CurrentStateConsistent());
}

TEST(DeterminismTest, SimulatedCracksBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(40, 43);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  SimulationOptions base;
  base.exec.runs = 4;
  base.sampler.num_samples = 60;
  base.sampler.burn_in_sweeps = 20;
  base.sampler.thinning_sweeps = 2;

  std::vector<SimulationResult> results;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SimulationOptions options = base;
    options.exec.threads = threads;
    auto r = SimulateExpectedCracks(groups, *belief, options);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*r);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].mean, results[0].mean);
    EXPECT_EQ(results[i].stddev, results[0].stddev);
    EXPECT_EQ(results[i].run_means, results[0].run_means);
  }
}

// ----------------------------------------------------------- Permanent

TEST(DeterminismTest, RyserPermanentBitIdenticalAcrossThreadCounts) {
  // n = 16 crosses kRyserParallelMinN, so the chunked path runs.
  const size_t n = 16;
  Rng rng(53);
  std::vector<uint64_t> rows(n, 0);
  for (size_t i = 0; i < n; ++i) {
    rows[i] |= uint64_t{1} << i;  // diagonal keeps the permanent positive
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.4)) rows[i] |= uint64_t{1} << j;
    }
  }
  auto none = PermanentRyser(rows);
  ASSERT_TRUE(none.ok());
  EXPECT_GT(*none, 0.0);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto with = PermanentRyser(rows, &ctx);
    ASSERT_TRUE(with.ok());
    EXPECT_EQ(*with, *none) << threads << " threads";
  }
}

// ------------------------------------------------------------- Planner

// Differential test for the block-decomposed planner: on 200 random
// small instances (n <= 12, mixed belief shapes) the auto estimator
// must be bit-identical to the monolithic direct method at every
// thread count. Whole-graph permanents at n <= 12 stay below 2^53, so
// each per-item crack probability is a single correctly-rounded IEEE
// division on both sides and the fixed-shape reduction makes the sum
// order-independent of scheduling — EXPECT_EQ, not EXPECT_NEAR.
TEST(DeterminismTest, PlannerMatchesDirectAcrossThreadCounts) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(11);  // n in [2, 12]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(300));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);

    // Rotate through belief shapes: point-valued, uniform compliant
    // width, and per-item intervals stretched to an adjacent group's
    // frequency (the shape that produces chain blocks).
    Result<BeliefFunction> belief = Status::Internal("unset");
    switch (trial % 3) {
      case 0:
        belief = MakeCompliantIntervalBelief(*table, 0.0);
        break;
      case 1:
        belief = MakeCompliantIntervalBelief(
            *table, groups.MedianGap() * rng.UniformDouble(0.2, 2.2));
        break;
      default: {
        std::vector<BeliefInterval> intervals(n);
        for (ItemId x = 0; x < n; ++x) {
          const size_t g = groups.group_of_item(x);
          double lo = groups.group_frequency(g);
          double hi = lo;
          if (g + 1 < groups.num_groups() && rng.Bernoulli(0.4)) {
            hi = groups.group_frequency(g + 1);
          } else if (g > 0 && rng.Bernoulli(0.4)) {
            lo = groups.group_frequency(g - 1);
          }
          intervals[x] = {lo, hi};
        }
        belief = BeliefFunction::Create(std::move(intervals));
        break;
      }
    }
    ASSERT_TRUE(belief.ok());

    auto direct = DirectExpectedCracks(groups, *belief);
    ASSERT_TRUE(direct.ok()) << "trial " << trial;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      exec::ExecContext ctx(WithThreads(threads));
      auto planned = PlanAndEstimate(groups, *belief, {}, &ctx);
      ASSERT_TRUE(planned.ok())
          << "trial " << trial << ", " << threads << " threads";
      EXPECT_TRUE(planned->exact) << "trial " << trial;
      EXPECT_EQ(planned->expected_cracks, *direct)
          << "trial " << trial << ", " << threads << " threads";
    }
  }
}

// ---------------------------------------- Adversary-seam differential

// The adversary registry must be invisible for the default model: on
// 200 random frequency profiles the full recipe — which now routes its
// belief construction through `Adversary::Find("interval")->Bind` —
// must be bit-identical across 1/4/8 threads AND reproduce the legacy
// replica computed inline here: the compliant interval belief at the
// recipe's own δ_med fed to ComputeOEstimate. Every quantity is the
// same IEEE arithmetic on both sides, so EXPECT_EQ, not EXPECT_NEAR.
TEST(DeterminismTest, IntervalAdversaryMatchesLegacyAcrossThreadCounts) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 40 + rng.UniformUint64(21);  // n in [40, 60]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(500));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok()) << "trial " << trial;

    std::vector<RecipeResult> results;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      RecipeOptions options;
      options.exec.threads = threads;
      auto r = AssessRisk(*table, options);
      ASSERT_TRUE(r.ok()) << "trial " << trial << ", " << threads
                          << " threads: " << r.status();
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].decision, results[0].decision) << trial;
      EXPECT_EQ(results[i].interval_oe, results[0].interval_oe) << trial;
      EXPECT_EQ(results[i].alpha_max, results[0].alpha_max) << trial;
      EXPECT_EQ(results[i].delta_med, results[0].delta_med) << trial;
    }
    EXPECT_EQ(results[0].adversary, "interval") << trial;

    if (results[0].decision == RecipeDecision::kDiscloseAtPointValued) {
      continue;  // the interval check never ran; nothing to replicate
    }
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto belief = MakeCompliantIntervalBelief(*table, results[0].delta_med);
    ASSERT_TRUE(belief.ok()) << "trial " << trial;
    auto legacy = ComputeOEstimate(groups, *belief);
    ASSERT_TRUE(legacy.ok()) << "trial " << trial;
    EXPECT_EQ(results[0].interval_oe, legacy->expected_cracks) << trial;
  }
}

// The non-default adversaries make the same bit-identity promise: the
// weighted O-estimate reduction uses fixed per-chunk slots like the
// uniform one, and exact-support binding is pure selection.
TEST(DeterminismTest, NonIntervalAdversariesBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(300, 19);
  ASSERT_TRUE(table.ok());

  RecipeOptions probabilistic;
  probabilistic.adversary = "probabilistic";
  probabilistic.adversary_params.Set("span", 2.0);
  probabilistic.adversary_params.Set("sigma", 1.0);

  RecipeOptions exact_support;
  exact_support.adversary = "exact_support";
  exact_support.adversary_params.Set("k", 12.0);

  for (const RecipeOptions& base : {probabilistic, exact_support}) {
    std::vector<RecipeResult> results;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      RecipeOptions options = base;
      options.exec.threads = threads;
      auto r = AssessRisk(*table, options);
      ASSERT_TRUE(r.ok()) << base.adversary << ", " << threads
                          << " threads: " << r.status();
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].decision, results[0].decision) << base.adversary;
      EXPECT_EQ(results[i].interval_oe, results[0].interval_oe)
          << base.adversary;
      EXPECT_EQ(results[i].alpha_max, results[0].alpha_max) << base.adversary;
      EXPECT_EQ(results[i].delta_med, results[0].delta_med) << base.adversary;
    }
  }
}

// --------------------------------------------- Validation regressions

TEST(ValidationTest, RecipeRejectsMalformedOptions) {
  auto table = MakeProfile(20, 3);
  ASSERT_TRUE(table.ok());

  RecipeOptions zero_iters;
  zero_iters.binary_search_iterations = 0;
  EXPECT_TRUE(AssessRisk(*table, zero_iters).status().IsInvalidArgument());

  RecipeOptions zero_runs;
  zero_runs.exec.runs = 0;
  EXPECT_TRUE(AssessRisk(*table, zero_runs).status().IsInvalidArgument());

  RecipeOptions bad_tolerance;
  bad_tolerance.tolerance = 1.5;
  EXPECT_TRUE(
      AssessRisk(*table, bad_tolerance).status().IsInvalidArgument());

  EXPECT_TRUE(ValidateRecipeOptions(RecipeOptions{}).ok());
}

TEST(ValidationTest, SamplerRejectsMalformedOptions) {
  auto table = MakeProfile(20, 3);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  SamplerOptions zero_per_seed;
  zero_per_seed.samples_per_seed = 0;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, zero_per_seed)
                  .status().IsInvalidArgument());

  SamplerOptions bad_fraction;
  bad_fraction.cycle_move_fraction = 1.5;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, bad_fraction)
                  .status().IsInvalidArgument());

  SamplerOptions negative_scale;
  negative_scale.burn_in_scale = -1.0;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, negative_scale)
                  .status().IsInvalidArgument());
}

TEST(ValidationTest, BeliefAtRejectsOutOfRangeRun) {
  auto table = MakeProfile(30, 5);
  ASSERT_TRUE(table.ok());
  auto belief = MakeCompliantIntervalBelief(
      *table, FrequencyGroups::Build(*table).MedianGap());
  ASSERT_TRUE(belief.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *belief, 3, 7);
  ASSERT_TRUE(sweep.ok());
  EXPECT_TRUE(sweep->BeliefAt(3, 0.5).status().IsOutOfRange());
  EXPECT_TRUE(sweep->BeliefAt(0, 0.5).ok());
}

// ------------------------------------------------ exec.* determinism

TEST(ExecOptionsTest, RecipeSeedDeterminesResult) {
  auto table = MakeProfile(80, 29);
  ASSERT_TRUE(table.ok());

  RecipeOptions options;
  options.exec.seed = 123;
  options.exec.runs = 4;
  auto a = AssessRisk(*table, options);
  ASSERT_TRUE(a.ok());
  auto b = AssessRisk(*table, options);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->alpha_max, b->alpha_max);
  EXPECT_EQ(a->interval_oe, b->interval_oe);
  EXPECT_EQ(a->decision, b->decision);
}

TEST(ExecOptionsTest, SamplerSeedDeterminesSamples) {
  auto table = MakeProfile(30, 37);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  SamplerOptions options;
  options.exec.seed = 77;
  options.num_samples = 40;
  options.burn_in_sweeps = 10;
  auto a = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(a.ok());
  auto b = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->SampleCrackCounts(), b->SampleCrackCounts());
}

}  // namespace
}  // namespace anonsafe
