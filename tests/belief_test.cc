#include <gtest/gtest.h>

#include <limits>

#include "belief/belief_function.h"
#include "belief/builders.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "datagen/profile.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Result<FrequencyTable> Truth() {
  // 6 items over 10 transactions: frequencies .5 .4 .5 .5 .3 .5 (BigMart).
  return FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
}

// ---------------------------------------------------------- BeliefInterval

TEST(BeliefIntervalTest, ContainsAndSubset) {
  BeliefInterval iv{0.2, 0.6};
  EXPECT_TRUE(iv.Contains(0.2));
  EXPECT_TRUE(iv.Contains(0.6));
  EXPECT_TRUE(iv.Contains(0.4));
  EXPECT_FALSE(iv.Contains(0.19));
  EXPECT_FALSE(iv.Contains(0.61));
  EXPECT_FALSE(iv.IsPoint());
  EXPECT_DOUBLE_EQ(iv.Width(), 0.4);
  EXPECT_TRUE(BeliefInterval({0.3, 0.5}).IsSubsetOf(iv));
  EXPECT_FALSE(iv.IsSubsetOf(BeliefInterval{0.3, 0.5}));
  EXPECT_TRUE(BeliefInterval({0.5, 0.5}).IsPoint());
}

// ---------------------------------------------------------- BeliefFunction

TEST(BeliefFunctionTest, CreateValidates) {
  EXPECT_TRUE(BeliefFunction::Create({{0.5, 0.2}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(BeliefFunction::Create({{-0.1, 0.2}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(BeliefFunction::Create({{0.5, 1.2}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(BeliefFunction::Create({{0.0, 1.0}, {0.5, 0.5}}).ok());
}

TEST(BeliefFunctionTest, CreateRejectsNonFiniteBounds) {
  // NaN compares false against every range check, so without an
  // explicit guard a NaN bound would slip through the inverted/range
  // validation and poison every downstream stab query.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (BeliefInterval bad :
       {BeliefInterval{nan, 0.5}, BeliefInterval{0.5, nan},
        BeliefInterval{nan, nan}, BeliefInterval{0.0, inf},
        BeliefInterval{-inf, 1.0}}) {
    auto result = BeliefFunction::Create({{0.2, 0.4}, bad});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
    // The error names the offending item and the non-finite cause.
    EXPECT_NE(result.status().message().find("non-finite"),
              std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find("1"), std::string::npos)
        << result.status().message();
  }
}

TEST(BeliefFunctionTest, PointVsIntervalClassification) {
  auto point = BeliefFunction::Create({{0.5, 0.5}, {0.1, 0.1}});
  ASSERT_TRUE(point.ok());
  EXPECT_TRUE(point->IsPointValued());
  EXPECT_FALSE(point->IsIntervalValued());
  auto mixed = BeliefFunction::Create({{0.5, 0.5}, {0.1, 0.2}});
  ASSERT_TRUE(mixed.ok());
  EXPECT_TRUE(mixed->IsIntervalValued());
}

TEST(BeliefFunctionTest, RefinesPartialOrder) {
  auto narrow = BeliefFunction::Create({{0.4, 0.6}, {0.2, 0.3}});
  auto wide = BeliefFunction::Create({{0.3, 0.7}, {0.2, 0.35}});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_TRUE(narrow->Refines(*wide));
  EXPECT_FALSE(wide->Refines(*narrow));
  EXPECT_TRUE(narrow->Refines(*narrow));  // reflexive
  auto other_size = BeliefFunction::Create({{0.0, 1.0}});
  ASSERT_TRUE(other_size.ok());
  EXPECT_FALSE(narrow->Refines(*other_size));
}

TEST(BeliefFunctionTest, ComplianceFractionAndMask) {
  auto truth = Truth();
  ASSERT_TRUE(truth.ok());
  // Compliant on items 0-2, non-compliant on 3-5.
  auto beta = BeliefFunction::Create({{0.4, 0.6},
                                      {0.4, 0.4},
                                      {0.0, 1.0},
                                      {0.6, 0.7},
                                      {0.0, 0.2},
                                      {0.51, 0.9}});
  ASSERT_TRUE(beta.ok());
  auto alpha = beta->ComplianceFraction(*truth);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 0.5);
  auto mask = beta->ComplianceMask(*truth);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(*mask, (std::vector<bool>{true, true, true, false, false,
                                      false}));
}

TEST(BeliefFunctionTest, DomainMismatchFails) {
  auto truth = Truth();
  ASSERT_TRUE(truth.ok());
  auto beta = BeliefFunction::Create({{0.0, 1.0}});
  ASSERT_TRUE(beta.ok());
  EXPECT_TRUE(beta->ComplianceFraction(*truth)
                  .status().IsInvalidArgument());
}

// ---------------------------------------------------------------- Builders

TEST(BuildersTest, IgnorantBelief) {
  BeliefFunction beta = MakeIgnorantBelief(4);
  EXPECT_EQ(beta.num_items(), 4u);
  for (ItemId x = 0; x < 4; ++x) {
    EXPECT_EQ(beta.interval(x), (BeliefInterval{0.0, 1.0}));
  }
}

TEST(BuildersTest, PointValuedBeliefIsCompliantAndExact) {
  auto truth = Truth();
  ASSERT_TRUE(truth.ok());
  auto beta = MakePointValuedBelief(*truth);
  ASSERT_TRUE(beta.ok());
  EXPECT_TRUE(beta->IsPointValued());
  auto alpha = beta->ComplianceFraction(*truth);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 1.0);
  EXPECT_DOUBLE_EQ(beta->interval(4).lo, 0.3);
}

TEST(BuildersTest, CompliantIntervalBeliefClampsAndContains) {
  auto truth = Truth();
  ASSERT_TRUE(truth.ok());
  auto beta = MakeCompliantIntervalBelief(*truth, 0.45);
  ASSERT_TRUE(beta.ok());
  auto alpha = beta->ComplianceFraction(*truth);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 1.0);
  // Item 4 (f=0.3): [0, 0.75] after clamping at 0.
  EXPECT_DOUBLE_EQ(beta->interval(4).lo, 0.0);
  EXPECT_NEAR(beta->interval(4).hi, 0.75, 1e-12);
  EXPECT_TRUE(MakeCompliantIntervalBelief(*truth, -0.1)
                  .status().IsInvalidArgument());
}

TEST(BuildersTest, NonCompliantIntervalAlwaysExcludesTruth) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    double f = rng.UniformDouble();
    double w = rng.UniformDouble() * rng.UniformDouble();  // skew small
    double lo = std::max(0.0, f - w * rng.UniformDouble());
    double hi = std::min(1.0, lo + w);
    if (hi < f) hi = f;
    BeliefInterval base{lo, hi};
    ASSERT_TRUE(base.Contains(f));
    BeliefInterval out = MakeNonCompliantInterval(base, f, &rng);
    EXPECT_FALSE(out.Contains(f)) << "f=" << f << " [" << out.lo << ","
                                  << out.hi << "]";
    EXPECT_GE(out.lo, 0.0);
    EXPECT_LE(out.hi, 1.0);
    EXPECT_LE(out.lo, out.hi);
  }
}

TEST(BuildersTest, NonCompliantIntervalEdgeFrequencies) {
  Rng rng(19);
  for (double f : {0.0, 1.0}) {
    for (double w : {0.0, 0.2, 0.9}) {
      BeliefInterval base{std::max(0.0, f - w), std::min(1.0, f + w)};
      BeliefInterval out = MakeNonCompliantInterval(base, f, &rng);
      EXPECT_FALSE(out.Contains(f)) << "f=" << f << " w=" << w;
      EXPECT_GE(out.lo, 0.0);
      EXPECT_LE(out.hi, 1.0);
    }
  }
}

TEST(BuildersTest, AlphaCompliantHitsRequestedAlpha) {
  auto truth = FrequencyTable::FromSupports(
      std::vector<SupportCount>(100, 0), 10);
  // Give items distinct supports 1..100 over m=200.
  std::vector<SupportCount> supports(100);
  for (size_t i = 0; i < 100; ++i) supports[i] = i + 1;
  truth = FrequencyTable::FromSupports(supports, 200);
  ASSERT_TRUE(truth.ok());
  auto base = MakeCompliantIntervalBelief(*truth, 0.01);
  ASSERT_TRUE(base.ok());

  Rng rng(23);
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto ab = MakeAlphaCompliantBelief(*base, *truth, alpha, &rng);
    ASSERT_TRUE(ab.ok());
    auto measured = ab->belief.ComplianceFraction(*truth);
    ASSERT_TRUE(measured.ok());
    EXPECT_NEAR(*measured, alpha, 0.01) << "alpha=" << alpha;
    // The mask agrees with actual compliance.
    for (ItemId x = 0; x < 100; ++x) {
      EXPECT_EQ(ab->compliant_mask[x],
                ab->belief.IsCompliantFor(x, truth->frequency(x)));
    }
  }
}

TEST(BuildersTest, AlphaCompliantValidatesInputs) {
  auto truth = Truth();
  ASSERT_TRUE(truth.ok());
  auto base = MakeCompliantIntervalBelief(*truth, 0.05);
  ASSERT_TRUE(base.ok());
  Rng rng(1);
  EXPECT_TRUE(MakeAlphaCompliantBelief(*base, *truth, -0.1, &rng)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(MakeAlphaCompliantBelief(*base, *truth, 1.1, &rng)
                  .status().IsInvalidArgument());
  // Non-compliant base is rejected.
  auto bad = BeliefFunction::Create(
      std::vector<BeliefInterval>(6, BeliefInterval{0.9, 1.0}));
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(MakeAlphaCompliantBelief(*bad, *truth, 0.5, &rng)
                  .status().IsFailedPrecondition());
}

TEST(BuildersTest, BeliefFromSampleUsesSampledMedianGap) {
  // A database whose 50% sample still has multiple groups.
  Rng rng(31);
  auto profile = FrequencyProfile::Create(
      400, {{40, 3}, {120, 2}, {200, 2}, {360, 1}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto picked = SampleFraction(*db, 0.5, &rng);
  ASSERT_TRUE(picked.ok());
  auto sample = CountedDatabase::Count(std::move(*picked));
  ASSERT_TRUE(sample.ok());

  double delta = -1.0;
  auto beta = MakeBeliefFromSample(*sample, &delta);
  ASSERT_TRUE(beta.ok());
  EXPECT_GT(delta, 0.0);
  // Intervals centered on sampled frequencies with half-width delta.
  for (ItemId x = 0; x < beta->num_items(); ++x) {
    double f = sample->table().frequency(x);
    EXPECT_TRUE(beta->IsCompliantFor(x, f));
    EXPECT_NEAR(beta->interval(x).hi - beta->interval(x).lo,
                std::min(1.0, f + delta) - std::max(0.0, f - delta), 1e-12);
  }

  double avg_delta = -1.0;
  auto avg = MakeBeliefFromSampleAverageGap(*sample, &avg_delta);
  ASSERT_TRUE(avg.ok());
  // The mean gap is at least the median gap on skewed data.
  EXPECT_GE(avg_delta, delta);
}

}  // namespace
}  // namespace anonsafe
