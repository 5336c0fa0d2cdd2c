// End-to-end integration tests: the full owner/hacker workflows at small
// scale, exercising the same code paths as the bench binaries (attack
// simulation in the anonymized id space, recipe + similarity + defense
// pipelines, permutation invariance of the decision metrics).

#include <gtest/gtest.h>

#include "anonymize/anonymizer.h"
#include "anonymize/crack.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "core/simulated.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "datagen/benchmark_profiles.h"
#include "defense/scheme.h"
#include "graph/matching_sampler.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

// ---------------------------------------------------------------------
// The full consortium attack, asserted: a partner with a transaction
// sample attacks the released (permuted) database; their realized crack
// rate must match the owner's O-estimate prediction.
// ---------------------------------------------------------------------
TEST(EndToEndAttackTest, SampleBasedAttackMatchesPrediction) {
  Rng rng(2024);
  auto db = MakeBenchmarkDatabase(Benchmark::kChess, &rng, /*scale=*/0.4);
  ASSERT_TRUE(db.ok());

  // Owner releases a randomly permuted copy.
  Anonymizer truth = Anonymizer::Random(db->num_items(), &rng);
  auto released = truth.AnonymizeDatabase(*db);
  ASSERT_TRUE(released.ok());

  // Partner holds a 30% sample and builds its belief function.
  auto partner_data = SampleFraction(*db, 0.30, &rng);
  ASSERT_TRUE(partner_data.ok());
  auto partner_sample = CountedDatabase::Count(std::move(*partner_data));
  ASSERT_TRUE(partner_sample.ok());
  auto partner_belief = MakeBeliefFromSample(*partner_sample);
  ASSERT_TRUE(partner_belief.ok());

  // Attack frame: re-index the belief into the released id space (the
  // identity-surrogate convention; see consortium_attack example).
  std::vector<BeliefInterval> reindexed(db->num_items());
  for (ItemId x = 0; x < db->num_items(); ++x) {
    reindexed[truth.Anonymize(x)] = partner_belief->interval(x);
  }
  auto attack_belief = BeliefFunction::Create(std::move(reindexed));
  ASSERT_TRUE(attack_belief.ok());

  auto released_table = FrequencyTable::Compute(*released);
  ASSERT_TRUE(released_table.ok());
  FrequencyGroups observed = FrequencyGroups::Build(*released_table);

  SamplerOptions sampler_options;
  sampler_options.exec.seed = 5;
  sampler_options.num_samples = 300;
  sampler_options.thinning_sweeps = 5;
  auto sampler =
      MatchingSampler::Create(observed, *attack_belief, sampler_options);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  double attack_mean = 0.0;
  for (size_t c : counts) attack_mean += static_cast<double>(c);
  attack_mean /= static_cast<double>(counts.size());

  auto mask = attack_belief->ComplianceMask(*released_table);
  ASSERT_TRUE(mask.ok());
  auto prediction =
      ComputeOEstimate(observed, *attack_belief, {}, nullptr, &*mask);
  ASSERT_TRUE(prediction.ok());

  // OE and the simulated attack agree within 25% (+1 crack slack).
  EXPECT_NEAR(attack_mean, prediction->expected_cracks,
              0.25 * prediction->expected_cracks + 1.0);
}

// ---------------------------------------------------------------------
// Permutation invariance of every decision metric: assessing the raw
// database and an anonymized copy must produce identical numbers.
// ---------------------------------------------------------------------
TEST(EndToEndInvarianceTest, RecipeInvariantUnderAnonymization) {
  Rng rng(7);
  auto db = MakeBenchmarkDatabase(Benchmark::kMushroom, &rng, 0.2);
  ASSERT_TRUE(db.ok());
  Anonymizer mapping = Anonymizer::Random(db->num_items(), &rng);
  auto anon_db = mapping.AnonymizeDatabase(*db);
  ASSERT_TRUE(anon_db.ok());

  RecipeOptions options;
  options.tolerance = 0.1;
  auto counted = CountedDatabase::Count(std::move(*db));
  auto anon_counted = CountedDatabase::Count(std::move(*anon_db));
  ASSERT_TRUE(counted.ok());
  ASSERT_TRUE(anon_counted.ok());
  auto original = AssessRisk(*counted, options);
  auto anonymized = AssessRisk(*anon_counted, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(anonymized.ok());
  EXPECT_EQ(original->decision, anonymized->decision);
  EXPECT_EQ(original->num_groups, anonymized->num_groups);
  EXPECT_DOUBLE_EQ(original->delta_med, anonymized->delta_med);
  EXPECT_DOUBLE_EQ(original->interval_oe, anonymized->interval_oe);
  // alpha_max involves randomized subsets over item ids; the *identity*
  // of non-compliant items differs under permutation but the averaged
  // estimate concentrates: bounds must agree closely.
  EXPECT_NEAR(original->alpha_max, anonymized->alpha_max, 0.08);
}

// ---------------------------------------------------------------------
// Owner pipeline: report -> defense -> report, on a risky stand-in.
// ---------------------------------------------------------------------
TEST(EndToEndPipelineTest, ReportDefendReport) {
  Rng rng(99);
  auto db = MakeBenchmarkDatabase(Benchmark::kChess, &rng, 0.4);
  ASSERT_TRUE(db.ok());

  RiskReportOptions report_options;
  report_options.recipe.tolerance = 0.15;
  report_options.similarity.sample_fractions = {0.2, 0.6};
  report_options.similarity.samples_per_fraction = 3;
  auto before = BuildRiskReport(*db, report_options);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->recipe.decision, RecipeDecision::kAlphaBound);

  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  const defense::DefenseScheme* scheme =
      defense::DefenseScheme::Find("group_merge");
  defense::DefenseParams defense;
  defense.Set("tolerance", 0.15);
  defense.Set("point_valued", 1.0);
  auto plan = scheme->Plan(*table, defense);
  ASSERT_TRUE(plan.ok());
  auto defended = scheme->Apply(*db, *plan, &rng);
  ASSERT_TRUE(defended.ok());

  auto after = BuildRiskReport(*defended, report_options);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->recipe.decision, RecipeDecision::kDiscloseAtPointValued);
  EXPECT_LT(after->num_groups, before->num_groups);
  // The rendered report is complete and self-consistent.
  std::string text = after->ToText();
  EXPECT_NE(text.find("DiscloseAtPointValued"), std::string::npos);
}

// ---------------------------------------------------------------------
// Small-scale Figure 10: OE within a few percent of the simulation on
// two benchmark stand-ins.
// ---------------------------------------------------------------------
class SmallFig10Test : public ::testing::TestWithParam<Benchmark> {};

TEST_P(SmallFig10Test, OEstimateTracksSimulation) {
  Rng rng(11);
  auto profile = MakeBenchmarkProfile(GetParam(), &rng);
  ASSERT_TRUE(profile.ok());
  auto scaled = profile->Scaled(0.25);
  ASSERT_TRUE(scaled.ok());
  auto table = FrequencyTable::FromSupports(scaled->ItemSupports(),
                                            scaled->num_transactions());
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  auto oe = ComputeOEstimate(groups, *belief);
  ASSERT_TRUE(oe.ok());
  SimulationOptions sim;
  sim.exec.runs = 3;
  sim.sampler.num_samples = 300;
  sim.sampler.thinning_sweeps = 5;
  sim.exec.seed = 13;
  auto simulated = SimulateExpectedCracks(groups, *belief, sim);
  ASSERT_TRUE(simulated.ok());
  EXPECT_NEAR(oe->expected_cracks, simulated->mean,
              0.10 * simulated->mean + 1.0)
      << GetBenchmarkSpec(GetParam()).name;
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, SmallFig10Test,
                         ::testing::Values(Benchmark::kChess,
                                           Benchmark::kMushroom),
                         [](const ::testing::TestParamInfo<Benchmark>& i) {
                           return GetBenchmarkSpec(i.param).name;
                         });

// ---------------------------------------------------------------------
// Alpha sweep monotone & anchored on a stand-in (the Fig. 11 machinery).
// ---------------------------------------------------------------------
TEST(EndToEndAlphaTest, SweepMonotoneOnBenchmarkStandIn) {
  Rng rng(17);
  auto profile = MakeBenchmarkProfile(Benchmark::kChess, &rng);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(),
                                            profile->num_transactions());
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto base = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(base.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *base, 5, 3);
  ASSERT_TRUE(sweep.ok());
  const AlphaCompliancySweep::ProbeCache cache = sweep->MakeProbeCache(groups);
  double prev = -1.0;
  for (double alpha = 0.0; alpha <= 1.0001; alpha += 0.1) {
    auto value = sweep->AverageOEstimate(groups, cache, alpha);
    ASSERT_TRUE(value.ok());
    EXPECT_GE(*value, prev - 1e-9) << "alpha=" << alpha;
    prev = *value;
  }
}

// ---------------------------------------------------------------------
// Similarity curve is sane on a stand-in: alphas in range; large samples
// at least as compliant as the recipe's alpha_max would require to warn.
// ---------------------------------------------------------------------
TEST(EndToEndSimilarityTest, CurveBehavesOnStandIn) {
  Rng rng(23);
  auto db = MakeBenchmarkDatabase(Benchmark::kMushroom, &rng, 0.25);
  ASSERT_TRUE(db.ok());
  SimilarityOptions options;
  options.sample_fractions = {0.1, 0.4, 0.8};
  options.samples_per_fraction = 4;
  auto curve = SimilarityBySampling(*db, options);
  ASSERT_TRUE(curve.ok());
  for (const auto& point : *curve) {
    EXPECT_GE(point.mean_alpha, 0.0);
    EXPECT_LE(point.mean_alpha, 1.0);
    EXPECT_GT(point.mean_delta, 0.0);
  }
  // MUSHROOM-like data: sampling compliancy is substantial even at 10%.
  EXPECT_GT(curve->front().mean_alpha, 0.2);
}

}  // namespace
}  // namespace anonsafe
