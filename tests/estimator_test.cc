#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "belief/builders.h"
#include "core/direct_method.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "defense/scheme.h"
#include "estimator/closed_forms.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "graph/edge_pruning.h"
#include "graph/matching_sampler.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

Result<FrequencyGroups> GroupsFromSupports(std::vector<SupportCount> s,
                                           size_t m) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable t,
                            FrequencyTable::FromSupports(std::move(s), m));
  return FrequencyGroups::Build(t);
}

struct Instance {
  FrequencyTable table;
  FrequencyGroups groups;
  BeliefFunction belief;  // point-valued
};

Result<Instance> MakePointValuedInstance(std::vector<SupportCount> s,
                                         size_t m) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable t,
                            FrequencyTable::FromSupports(std::move(s), m));
  FrequencyGroups g = FrequencyGroups::Build(t);
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction b, MakePointValuedBelief(t));
  return Instance{std::move(t), std::move(g), std::move(b)};
}

/// Two frequency groups of two anons each, with one exclusive item per
/// group and two seam items spanning both — the smallest chain that is
/// neither complete nor singleton.
struct ChainFixture {
  FrequencyGroups groups;
  BeliefFunction belief;
};

Result<ChainFixture> MakeChain() {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyGroups groups,
                            GroupsFromSupports({10, 10, 20, 20}, 100));
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      BeliefFunction::Create({{0.05, 0.15},    // exclusive to group 0
                              {0.05, 0.25},    // seam
                              {0.05, 0.25},    // seam
                              {0.15, 0.25}})); // exclusive to group 1
  return ChainFixture{std::move(groups), std::move(belief)};
}

/// Twelve items over three groups forming ONE connected block that is
/// neither complete (two items have restricted intervals) nor a chain
/// (the middle items span all three groups): the planner must fall back
/// to the masked Ryser permanent or, beyond the cutoff, to an estimate.
Result<ChainFixture> MakeMessy() {
  std::vector<SupportCount> supports;
  for (SupportCount s : {10, 20, 30}) {
    for (int i = 0; i < 4; ++i) supports.push_back(s);
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      FrequencyTable table,
      FrequencyTable::FromSupports(std::move(supports), 100));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  std::vector<BeliefInterval> intervals(12, {0.1, 0.3});
  intervals[0] = {0.1, 0.1};
  intervals[11] = {0.3, 0.3};
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                            BeliefFunction::Create(std::move(intervals)));
  return ChainFixture{std::move(groups), std::move(belief)};
}

// ------------------------------------------------------------ enum names

TEST(EstimatorNamesTest, KindRoundTrip) {
  for (EstimatorKind kind :
       {EstimatorKind::kAuto, EstimatorKind::kOe, EstimatorKind::kExact,
        EstimatorKind::kSampler}) {
    auto parsed = ParseEstimatorKind(EstimatorKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  auto bogus = ParseEstimatorKind("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_TRUE(bogus.status().IsInvalidArgument());
}

TEST(EstimatorNamesTest, BlockMethodRoundTrip) {
  for (BlockMethod method :
       {BlockMethod::kSingleton, BlockMethod::kCompleteBipartite,
        BlockMethod::kChain, BlockMethod::kPermanent, BlockMethod::kOEstimate,
        BlockMethod::kSampler}) {
    auto parsed = ParseBlockMethod(BlockMethodName(method));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_TRUE(ParseBlockMethod("").status().IsInvalidArgument());
}

// ---------------------------------------------------------- closed forms

TEST(ClosedFormsTest, CompleteBipartiteExpectedCracks) {
  EXPECT_EQ(CompleteBipartiteExpectedCracks(0, 0), 0.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(0, 5), 0.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(5, 5), 1.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(1, 4), 0.25);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(3, 4), 0.75);
}

// -------------------------------------------------------------- planning

TEST(PlannerTest, ValidateOptions) {
  PlannerOptions ok;
  EXPECT_TRUE(ValidatePlannerOptions(ok).ok());

  PlannerOptions zero_cutoff;
  zero_cutoff.ryser_cutoff = 0;
  EXPECT_TRUE(ValidatePlannerOptions(zero_cutoff).IsInvalidArgument());

  PlannerOptions huge_cutoff;
  huge_cutoff.ryser_cutoff = kMaxPermanentN + 1;
  EXPECT_TRUE(ValidatePlannerOptions(huge_cutoff).IsInvalidArgument());

  PlannerOptions bad_sampler;
  bad_sampler.block_sampler.num_samples = 0;
  EXPECT_TRUE(ValidatePlannerOptions(bad_sampler).IsInvalidArgument());
}

TEST(PlannerTest, PointValuedBeliefYieldsCompleteBlocks) {
  // Point-valued: every frequency group is its own complete block.
  auto inst = MakePointValuedInstance({10, 20, 20, 20, 30}, 100);
  ASSERT_TRUE(inst.ok());
  auto plan = PlanBlocks(inst->groups, inst->belief);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 3u);
  EXPECT_EQ(plan->blocks[0].method, BlockMethod::kSingleton);
  EXPECT_EQ(plan->blocks[1].method, BlockMethod::kCompleteBipartite);
  EXPECT_EQ(plan->blocks[1].items.size(), 3u);
  EXPECT_EQ(plan->blocks[2].method, BlockMethod::kSingleton);

  auto estimate = EstimatePlanned(*plan);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->exact);
  // Lemma 3: one expected crack per group.
  EXPECT_EQ(estimate->expected_cracks, 3.0);
  ASSERT_EQ(estimate->blocks.size(), 3u);
  EXPECT_EQ(estimate->blocks[1].expected_cracks, 1.0);
}

TEST(PlannerTest, ChainBlockUsesClosedForm) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  auto plan = PlanBlocks(fixture->groups, fixture->belief);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 1u);
  EXPECT_EQ(plan->blocks[0].method, BlockMethod::kChain);
  EXPECT_TRUE(plan->blocks[0].exact);

  auto estimate = EstimatePlanned(*plan);
  ASSERT_TRUE(estimate.ok());
  // Exclusive items crack with 1/2 each, seam items with 1/4 each.
  EXPECT_EQ(estimate->expected_cracks, 1.5);

  auto direct = DirectExpectedCracks(fixture->groups, fixture->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(estimate->expected_cracks, *direct);
}

TEST(PlannerTest, MatchesDirectOnRandomInstances) {
  Rng rng(20260805);
  size_t chains_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.UniformUint64(9);  // n in [2, 10]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(200));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);

    // Mix belief shapes: point-valued, uniform compliant width, and
    // per-item intervals stretching to an adjacent frequency group (the
    // construction that actually produces chain-shaped blocks — a
    // uniform width is symmetric and only merges complete blocks).
    Result<BeliefFunction> belief = Status::Internal("unset");
    const uint64_t shape = rng.UniformUint64(3);
    if (shape == 0) {
      belief = MakeCompliantIntervalBelief(*table, 0.0);
    } else if (shape == 1) {
      belief = MakeCompliantIntervalBelief(
          *table, groups.MedianGap() * rng.UniformDouble(0.2, 2.2));
    } else {
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
    }
    ASSERT_TRUE(belief.ok());

    auto direct = DirectExpectedCracks(groups, *belief);
    ASSERT_TRUE(direct.ok());
    auto estimate = PlanAndEstimate(groups, *belief);
    ASSERT_TRUE(estimate.ok());
    EXPECT_TRUE(estimate->exact) << "trial " << trial;
    // Whole-graph permanents fit in 2^53 at n <= 10, so every leaf is one
    // correctly-rounded division on both sides: bit identity, not an
    // epsilon comparison.
    EXPECT_EQ(estimate->expected_cracks, *direct) << "trial " << trial;
    for (const BlockProvenance& block : estimate->blocks) {
      if (block.method == BlockMethod::kChain) ++chains_seen;
    }
  }
  // Make sure the chain closed form actually exercised.
  EXPECT_GT(chains_seen, 0u);
}

TEST(PlannerTest, MessyBlockUsesPermanentWithinCutoff) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  auto estimate = PlanAndEstimate(messy->groups, messy->belief);
  ASSERT_TRUE(estimate.ok());
  ASSERT_EQ(estimate->blocks.size(), 1u);
  EXPECT_EQ(estimate->blocks[0].method, BlockMethod::kPermanent);
  EXPECT_TRUE(estimate->exact);
  auto direct = DirectExpectedCracks(messy->groups, messy->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(estimate->expected_cracks, *direct);
}

TEST(PlannerTest, RequireExactFailsBeyondCutoff) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;  // the messy block has 12 items
  options.require_exact = true;
  auto estimate = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsOutOfRange());
}

TEST(PlannerTest, OversizedBlockFallsBackToOEstimate) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;
  auto estimate = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_FALSE(estimate->exact);
  ASSERT_EQ(estimate->blocks.size(), 1u);
  EXPECT_EQ(estimate->blocks[0].method, BlockMethod::kOEstimate);
  EXPECT_GT(estimate->expected_cracks, 0.0);
}

TEST(PlannerTest, SamplerFallbackIsDeterministicAndClose) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;
  options.prefer_sampler = true;
  auto first = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->blocks.size(), 1u);
  EXPECT_EQ(first->blocks[0].method, BlockMethod::kSampler);
  EXPECT_FALSE(first->exact);
  auto direct = DirectExpectedCracks(messy->groups, messy->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(first->expected_cracks, *direct, 0.5);

  auto second = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->expected_cracks, second->expected_cracks);

  // And determinism must hold across thread counts too.
  exec::ExecOptions eo;
  eo.threads = 4;
  exec::ExecContext ctx(eo);
  auto threaded = PlanAndEstimate(messy->groups, messy->belief, options, &ctx);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(first->expected_cracks, threaded->expected_cracks);
}

TEST(PlannerTest, ExactBeyondWholeGraphPermanent) {
  // Three independent messy 12-item clusters in disjoint frequency
  // bands: n = 36 > kMaxPermanentN, so the monolithic direct method is
  // structurally infeasible — yet every block is 12 items, so even
  // `require_exact` succeeds, with full per-block provenance.
  const size_t m = 10000;
  std::vector<SupportCount> supports;
  for (size_t c = 0; c < 3; ++c) {
    for (SupportCount s : {1000 * c + 100, 1000 * c + 200, 1000 * c + 300}) {
      for (int i = 0; i < 4; ++i) supports.push_back(s);
    }
  }
  auto table = FrequencyTable::FromSupports(std::move(supports), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  ASSERT_GT(groups.num_items(), kMaxPermanentN);
  std::vector<BeliefInterval> intervals(36);
  for (size_t c = 0; c < 3; ++c) {
    const double lo = static_cast<double>(1000 * c + 100) / m;
    const double hi = static_cast<double>(1000 * c + 300) / m;
    for (size_t i = 0; i < 12; ++i) intervals[c * 12 + i] = {lo, hi};
    intervals[c * 12] = {lo, lo};
    intervals[c * 12 + 11] = {hi, hi};
  }
  auto belief = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(belief.ok());

  PlannerOptions options;
  options.require_exact = true;
  auto estimate = PlanAndEstimate(groups, *belief, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->exact);
  ASSERT_EQ(estimate->blocks.size(), 3u);
  for (const BlockProvenance& block : estimate->blocks) {
    EXPECT_EQ(block.size, 12u);
    EXPECT_EQ(block.method, BlockMethod::kPermanent);
    EXPECT_TRUE(block.exact);
  }
  // Identical cluster structure at three frequency scales: each block
  // contributes the same expectation, and the totals are exact sums of
  // per-block permanent ratios.
  EXPECT_EQ(estimate->blocks[0].expected_cracks,
            estimate->blocks[1].expected_cracks);
  EXPECT_EQ(estimate->blocks[0].expected_cracks,
            estimate->blocks[2].expected_cracks);
  EXPECT_NEAR(estimate->expected_cracks,
              3.0 * estimate->blocks[0].expected_cracks, 1e-12);

  // The whole-graph oracle really cannot answer this instance.
  auto direct = DirectExpectedCracks(groups, *belief);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsOutOfRange());
}

// ----------------------------------------------------- crack distribution

TEST(PlannerTest, DistributionMatchesDirectEnumeration) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  auto direct =
      DirectCrackDistribution(fixture->groups, fixture->belief);
  ASSERT_TRUE(direct.ok());
  auto planned =
      PlannedCrackDistribution(fixture->groups, fixture->belief);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->num_matchings, direct->num_matchings);
  ASSERT_EQ(planned->probability.size(), direct->probability.size());
  for (size_t c = 0; c < direct->probability.size(); ++c) {
    EXPECT_NEAR(planned->probability[c], direct->probability[c], 1e-12)
        << "c=" << c;
  }
  EXPECT_NEAR(planned->expected, direct->expected, 1e-12);
}

TEST(PlannerTest, DistributionRejectsZeroMaxMatchings) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  auto planned =
      PlannedCrackDistribution(fixture->groups, fixture->belief, 0);
  ASSERT_FALSE(planned.ok());
  EXPECT_TRUE(planned.status().IsInvalidArgument());
  // The direct method rejects the same degenerate bound (it used to spin
  // up the whole graph build first).
  auto direct =
      DirectCrackDistribution(fixture->groups, fixture->belief, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInvalidArgument());
}

// ------------------------------------------------ explicit-graph oracle

/// The planner as it first ran, on the explicit consistency graph: build
/// every edge, prune with `ComputeMatchingCover`, read blocks off as the
/// connected components of the pruned graph and classify each from its
/// edges. It is kept as the reference `PlanBlocks` must match field for
/// field. Its plan is stated on the identity quotient: every item and
/// every anonymized item is a class of its own, one kept pair per edge.
constexpr size_t kNone = static_cast<size_t>(-1);

size_t OracleLocal(const std::vector<ItemId>& ids, ItemId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<size_t>(it - ids.begin())
                                      : kNone;
}

bool OracleChain(const BipartiteGraph& pruned, const FrequencyGroups& observed,
                 PlannedBlock* block) {
  const size_t k = block->items.size();
  std::vector<size_t> group_ids;
  for (ItemId a : block->anons) group_ids.push_back(observed.group_of_item(a));
  std::sort(group_ids.begin(), group_ids.end());
  group_ids.erase(std::unique(group_ids.begin(), group_ids.end()),
                  group_ids.end());
  const size_t g = group_ids.size();
  if (g < 2) return false;
  auto local_group = [&](size_t gid) {
    return static_cast<size_t>(
        std::lower_bound(group_ids.begin(), group_ids.end(), gid) -
        group_ids.begin());
  };
  std::vector<size_t> count(g, 0);
  for (ItemId a : block->anons) ++count[local_group(observed.group_of_item(a))];
  std::vector<size_t> exclusive(g, 0), shared(g - 1, 0);
  std::vector<std::pair<bool, size_t>> cls(k);  // (shared, group or seam)
  for (size_t lx = 0; lx < k; ++lx) {
    size_t lo = g, hi = 0, degree = 0;
    for (ItemId a : pruned.anons_of_item(block->items[lx])) {
      const size_t j = local_group(observed.group_of_item(a));
      lo = std::min(lo, j);
      hi = std::max(hi, j);
      ++degree;
    }
    if (lo == hi && degree == count[lo]) {
      cls[lx] = {false, lo};
      ++exclusive[lo];
    } else if (hi == lo + 1 && degree == count[lo] + count[hi]) {
      cls[lx] = {true, lo};
      ++shared[lo];
    } else {
      return false;
    }
  }
  std::vector<size_t> left(g - 1), right(g - 1);
  size_t carry = 0;
  for (size_t j = 0; j + 1 < g; ++j) {
    if (exclusive[j] + carry > count[j]) return false;
    left[j] = count[j] - exclusive[j] - carry;
    if (left[j] > shared[j]) return false;
    right[j] = carry = shared[j] - left[j];
  }
  if (exclusive[g - 1] + carry != count[g - 1]) return false;
  block->contrib.assign(k, 0.0);
  for (size_t lx = 0; lx < k; ++lx) {
    const ItemId x = block->items[lx];
    if (OracleLocal(block->anons, x) == kNone) continue;
    const size_t ag = local_group(observed.group_of_item(x));
    const auto [is_shared, j] = cls[lx];
    if (!is_shared) {
      if (ag == j) block->contrib[lx] = 1.0 / static_cast<double>(count[ag]);
    } else if (ag == j || ag == j + 1) {
      block->contrib[lx] =
          static_cast<double>(ag == j ? left[j] : right[j]) /
          static_cast<double>(shared[j] * count[ag]);
    }
  }
  block->method = BlockMethod::kChain;
  block->cost = static_cast<double>(k);
  return true;
}

Status OracleClassify(const BipartiteGraph& pruned,
                      const FrequencyGroups& observed,
                      const PlannerOptions& options, PlannedBlock* block) {
  const size_t k = block->items.size();
  for (ItemId a : block->anons) block->num_edges += pruned.anon_degree(a);
  if (k == 1) {
    block->method = BlockMethod::kSingleton;
    block->cost = 1.0;
    block->contrib = {block->anons[0] == block->items[0] ? 1.0 : 0.0};
    return Status::OK();
  }
  if (block->num_edges == k * k) {
    block->method = BlockMethod::kCompleteBipartite;
    block->cost = static_cast<double>(k);
    block->contrib.assign(k, 0.0);
    for (size_t lx = 0; lx < k; ++lx) {
      if (OracleLocal(block->anons, block->items[lx]) != kNone) {
        block->contrib[lx] = CompleteBipartiteExpectedCracks(1, k);
      }
    }
    return Status::OK();
  }
  if (OracleChain(pruned, observed, block)) return Status::OK();
  if (k <= options.ryser_cutoff) {
    block->method = BlockMethod::kPermanent;
    block->cost = std::ldexp(static_cast<double>(k) *
                                 static_cast<double>(k + 1),
                             static_cast<int>(k));
    return Status::OK();
  }
  if (options.require_exact) {
    return Status::OutOfRange(
        "estimator=exact: block of size " + std::to_string(k) +
        " exceeds the Ryser cutoff (" + std::to_string(options.ryser_cutoff) +
        ")");
  }
  block->exact = false;
  if (options.prefer_sampler) {
    if (block->num_edges > options.max_edges) {
      return Status::OutOfRange(
          "block graph would have " + std::to_string(block->num_edges) +
          " edges, budget is " + std::to_string(options.max_edges));
    }
    block->method = BlockMethod::kSampler;
    const SamplerOptions& so = options.block_sampler;
    block->cost = (static_cast<double>(so.EffectiveBurnIn(k)) +
                   static_cast<double>(so.num_samples) *
                       static_cast<double>(so.thinning_sweeps)) *
                  static_cast<double>(k);
    return Status::OK();
  }
  block->method = BlockMethod::kOEstimate;
  block->cost = static_cast<double>(block->num_edges);
  for (ItemId x : block->items) {
    block->contrib.push_back(1.0 /
                             static_cast<double>(pruned.item_outdegree(x)));
  }
  return Status::OK();
}

Result<BlockPlan> OraclePlanBlocks(const FrequencyGroups& observed,
                                   const BeliefFunction& belief,
                                   const PlannerOptions& options = {}) {
  ANONSAFE_ASSIGN_OR_RETURN(
      BipartiteGraph graph,
      BipartiteGraph::Build(observed, belief, options.max_edges));
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options));
  ANONSAFE_ASSIGN_OR_RETURN(MatchingCover cover, ComputeMatchingCover(graph));
  const BipartiteGraph& pruned = cover.graph;
  const size_t n = pruned.num_items();
  BlockPlan plan;
  plan.pruned_edges = cover.pruned_edges;
  plan.item_class.resize(n);
  std::iota(plan.item_class.begin(), plan.item_class.end(), uint32_t{0});
  plan.anon_class = plan.item_class;
  plan.pair_offsets = {0};
  std::vector<size_t> item_block(n, kNone), anon_block(n, kNone);
  for (ItemId x0 = 0; x0 < n; ++x0) {
    if (item_block[x0] != kNone) continue;
    const size_t b = plan.blocks.size();
    PlannedBlock& block = plan.blocks.emplace_back();
    item_block[x0] = b;
    block.items.push_back(x0);
    std::vector<std::pair<bool, ItemId>> frontier = {{true, x0}};
    while (!frontier.empty()) {
      const auto [is_item, v] = frontier.back();
      frontier.pop_back();
      for (ItemId w : is_item ? pruned.anons_of_item(v)
                              : pruned.items_of_anon(v)) {
        std::vector<size_t>& seen = is_item ? anon_block : item_block;
        if (seen[w] != kNone) continue;
        seen[w] = b;
        (is_item ? block.anons : block.items).push_back(w);
        frontier.emplace_back(!is_item, w);
      }
    }
    std::sort(block.anons.begin(), block.anons.end());
    std::sort(block.items.begin(), block.items.end());
    for (ItemId a : block.anons) {
      for (ItemId x : pruned.items_of_anon(a)) plan.pairs.emplace_back(a, x);
    }
    plan.pair_offsets.push_back(plan.pairs.size());
  }
  for (PlannedBlock& block : plan.blocks) {
    ANONSAFE_RETURN_IF_ERROR(OracleClassify(pruned, observed, options, &block));
  }
  return plan;
}

/// `PlanBlocks` against the oracle: the same status, every block field,
/// the pruned-edge count, each block graph edge for edge, and bitwise the
/// same estimate; the same crack distribution too when `distribution`.
void ExpectOraclePlan(const FrequencyGroups& observed,
                      const BeliefFunction& belief,
                      const PlannerOptions& options, const std::string& what,
                      bool distribution = false) {
  SCOPED_TRACE(what);
  auto got = PlanBlocks(observed, belief, options);
  auto want = OraclePlanBlocks(observed, belief, options);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got.status()).ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->pruned_edges, want->pruned_edges);
  ASSERT_EQ(got->blocks.size(), want->blocks.size());
  for (size_t b = 0; b < want->blocks.size(); ++b) {
    const PlannedBlock& g = got->blocks[b];
    const PlannedBlock& w = want->blocks[b];
    EXPECT_EQ(g.method, w.method) << "block " << b;
    EXPECT_EQ(g.exact, w.exact) << "block " << b;
    EXPECT_EQ(g.cost, w.cost) << "block " << b;
    EXPECT_EQ(g.num_edges, w.num_edges) << "block " << b;
    EXPECT_EQ(g.anons, w.anons) << "block " << b;
    ASSERT_EQ(g.items, w.items) << "block " << b;
    EXPECT_EQ(g.contrib, w.contrib) << "block " << b;
    if (w.num_edges > (1u << 16)) continue;
    auto g_graph = BlockGraph(*got, b);
    auto w_graph = BlockGraph(*want, b);
    ASSERT_TRUE(g_graph.ok() && w_graph.ok());
    for (ItemId a = 0; a < w.anons.size(); ++a) {
      auto g_row = g_graph->items_of_anon(a);
      auto w_row = w_graph->items_of_anon(a);
      ASSERT_TRUE(std::equal(g_row.begin(), g_row.end(), w_row.begin(),
                             w_row.end()))
          << "block " << b << ", anon row " << a;
    }
  }
  auto g_est = EstimatePlanned(*got, options);
  auto w_est = EstimatePlanned(*want, options);
  ASSERT_EQ(g_est.ok(), w_est.ok());
  if (!w_est.ok()) {
    EXPECT_EQ(g_est.status().ToString(), w_est.status().ToString());
    return;
  }
  EXPECT_EQ(g_est->expected_cracks, w_est->expected_cracks);
  EXPECT_EQ(g_est->exact, w_est->exact);
  EXPECT_EQ(g_est->num_components, w_est->num_components);
  EXPECT_EQ(g_est->pruned_edges, w_est->pruned_edges);
  ASSERT_EQ(g_est->blocks.size(), w_est->blocks.size());
  for (size_t b = 0; b < w_est->blocks.size(); ++b) {
    const BlockProvenance& g = g_est->blocks[b];
    const BlockProvenance& w = w_est->blocks[b];
    EXPECT_EQ(g.block, w.block);
    EXPECT_EQ(g.size, w.size);
    EXPECT_EQ(g.num_edges, w.num_edges);
    EXPECT_EQ(g.method, w.method);
    EXPECT_EQ(g.cost, w.cost);
    EXPECT_EQ(g.expected_cracks, w.expected_cracks) << "block " << b;
    EXPECT_EQ(g.exact, w.exact);
  }
  if (!distribution) return;
  constexpr uint64_t kMaxMatchings = 20'000;
  auto g_dist =
      PlannedCrackDistribution(observed, belief, kMaxMatchings, options);
  auto w_dist = PlannedCrackDistribution(*want, kMaxMatchings, options);
  ASSERT_EQ(g_dist.ok(), w_dist.ok());
  if (!w_dist.ok()) {
    EXPECT_EQ(g_dist.status().ToString(), w_dist.status().ToString());
    return;
  }
  EXPECT_EQ(g_dist->num_matchings, w_dist->num_matchings);
  EXPECT_EQ(g_dist->probability, w_dist->probability);
  EXPECT_EQ(g_dist->expected, w_dist->expected);
}

/// The planner variants every oracle input runs under: the defaults, a
/// small Ryser cutoff (O-estimate blocks) and a short sampler fallback.
std::vector<PlannerOptions> OracleOptions() {
  PlannerOptions oe;
  oe.ryser_cutoff = 3;
  PlannerOptions sampler = oe;
  sampler.prefer_sampler = true;
  sampler.block_sampler.burn_in_sweeps = 4;
  sampler.block_sampler.burn_in_scale = 0.0;
  sampler.block_sampler.thinning_sweeps = 2;
  sampler.block_sampler.num_samples = 8;
  sampler.block_sampler.samples_per_seed = 4;
  return {PlannerOptions{}, oe, sampler};
}

/// The compliant interval belief at δ_med of a table, as `plan`, the
/// defense sweep and the recipe's interval check bind it.
void ExpectOracleAtMedianGap(const FrequencyTable& table,
                             const std::string& what) {
  const FrequencyGroups groups = FrequencyGroups::Build(table);
  auto belief = MakeCompliantIntervalBelief(table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  for (const PlannerOptions& options : OracleOptions()) {
    ExpectOraclePlan(groups, *belief, options,
                     what + ", cutoff " + std::to_string(options.ryser_cutoff) +
                         (options.prefer_sampler ? ", sampler" : ""));
  }
}

TEST(QuotientOracleTest, RandomTablesMatchTheExplicitCover) {
  Rng rng(20261021);
  for (int trial = 0; trial < 150; ++trial) {
    const size_t n = 2 + rng.UniformUint64(11);  // n in [2, 12]
    std::vector<SupportCount> supports(n);
    // Few distinct supports, so groups and belief groups have twins.
    const uint64_t spread = 2 + rng.UniformUint64(30);
    for (SupportCount& s : supports) s = 10 + 5 * rng.UniformUint64(spread);
    auto table = FrequencyTable::FromSupports(supports, 1000);
    ASSERT_TRUE(table.ok());
    const FrequencyGroups groups = FrequencyGroups::Build(*table);
    std::vector<std::pair<std::string, BeliefFunction>> beliefs;
    auto point = MakePointValuedBelief(*table);
    ASSERT_TRUE(point.ok());
    beliefs.emplace_back("point-valued", *std::move(point));
    beliefs.emplace_back("ignorant", MakeIgnorantBelief(n));
    for (double scale : {0.5, 1.0, 2.5}) {
      auto compliant =
          MakeCompliantIntervalBelief(*table, groups.MedianGap() * scale);
      ASSERT_TRUE(compliant.ok());
      beliefs.emplace_back("delta x" + std::to_string(scale),
                           *std::move(compliant));
    }
    // Shifted onto a random permutation's frequencies: not compliant,
    // and with a narrow width often without a perfect matching at all.
    std::vector<ItemId> shift(n);
    std::iota(shift.begin(), shift.end(), ItemId{0});
    rng.Shuffle(&shift);
    const double width = 0.001 * static_cast<double>(rng.UniformUint64(40));
    std::vector<BeliefInterval> shifted(n);
    for (ItemId x = 0; x < n; ++x) {
      const double f = table->frequency(shift[x]);
      shifted[x] = {std::max(0.0, f - width), std::min(1.0, f + width)};
    }
    auto shifted_belief = BeliefFunction::Create(std::move(shifted));
    ASSERT_TRUE(shifted_belief.ok());
    beliefs.emplace_back("shifted", *std::move(shifted_belief));
    for (const auto& [name, belief] : beliefs) {
      for (const PlannerOptions& options : OracleOptions()) {
        ExpectOraclePlan(groups, belief, options,
                         "trial " + std::to_string(trial) + ", " + name +
                             ", cutoff " +
                             std::to_string(options.ryser_cutoff),
                         /*distribution=*/true);
      }
    }
  }
}

// No perfect matching fails with the explicit cover's status text: an
// item whose interval stabs no group, and a Hall violation (three items
// confined to a two-item group).
TEST(QuotientOracleTest, NoPerfectMatchingFailsAlike) {
  auto groups = GroupsFromSupports({10, 10, 20, 20, 30}, 100);
  ASSERT_TRUE(groups.ok());
  auto dead = BeliefFunction::Create(
      {{0.1, 0.1}, {0.1, 0.2}, {0.2, 0.3}, {0.2, 0.3}, {0.5, 0.6}});
  auto hall = BeliefFunction::Create(
      {{0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1}, {0.2, 0.3}, {0.2, 0.3}});
  ASSERT_TRUE(dead.ok() && hall.ok());
  for (const BeliefFunction* belief : {&*dead, &*hall}) {
    auto got = PlanBlocks(*groups, *belief);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(),
              "FailedPrecondition: graph has no perfect matching; the "
              "matching cover is empty");
    ExpectOraclePlan(*groups, *belief, {}, "no perfect matching",
                     /*distribution=*/true);
    auto estimate = PlanAndEstimate(*groups, *belief);
    ASSERT_FALSE(estimate.ok());
    EXPECT_EQ(estimate.status().ToString(), got.status().ToString());
  }
}

// The baseline and every release the defense sweep scores, on the four
// stand-ins of perfbench's `defense_sweep` (CONNECT x0.02, profile
// streams 400-403 of calibration seed 2005, transactions of run seed 1).
TEST(QuotientOracleTest, DefenseSweepReleasesMatchTheExplicitCover) {
  const uint64_t sweep_seed = exec::ExecOptions{}.seed;
  size_t releases = 0;
  for (uint64_t slot = 0; slot < 4; ++slot) {
    Rng profile_rng(exec::SplitSeed(2005, 400 + slot));
    auto profile = MakeBenchmarkProfile(Benchmark::kConnect, &profile_rng);
    ASSERT_TRUE(profile.ok());
    auto scaled = profile->Scaled(0.02);
    ASSERT_TRUE(scaled.ok());
    Rng rng(exec::SplitSeed(1, 400 + slot));
    auto db = GenerateDatabase(*scaled, &rng);
    ASSERT_TRUE(db.ok());
    auto table = FrequencyTable::Compute(*db);
    ASSERT_TRUE(table.ok());
    std::set<std::pair<size_t, std::vector<SupportCount>>> seen;
    std::vector<FrequencyTable> after = {*table};
    size_t index = 0;
    for (const defense::DefenseScheme* s : defense::DefenseScheme::All()) {
      for (const defense::DefenseParams& params : s->ParamSpace(*table)) {
        const size_t i = index++;
        auto plan = s->Plan(*table, params);
        if (!plan.ok()) continue;
        Rng walk_rng(exec::SplitSeed(sweep_seed, 2 * i + 2));
        auto released = s->Apply(*db, *plan, &walk_rng);
        if (!released.ok()) continue;
        auto counted = FrequencyTable::Compute(*released);
        if (counted.ok()) after.push_back(*std::move(counted));
      }
    }
    for (const FrequencyTable& t : after) {
      std::vector<SupportCount> alive;
      for (SupportCount s : t.supports()) {
        if (s > 0) alive.push_back(s);
      }
      if (alive.empty() ||
          !seen.insert({t.num_transactions(), alive}).second) {
        continue;
      }
      auto release = FrequencyTable::FromSupports(alive, t.num_transactions());
      ASSERT_TRUE(release.ok());
      ExpectOracleAtMedianGap(*release, "slot " + std::to_string(slot) +
                                            ", release " +
                                            std::to_string(releases++));
    }
  }
  EXPECT_GT(releases, 40u);
}

// The six `generate <name> --scale=0.05 --seed=3` stand-ins.
TEST(QuotientOracleTest, StandInsMatchTheExplicitCover) {
  for (Benchmark b : {Benchmark::kConnect, Benchmark::kPumsb,
                      Benchmark::kAccidents, Benchmark::kRetail,
                      Benchmark::kMushroom, Benchmark::kChess}) {
    Rng rng(3);
    auto db = MakeBenchmarkDatabase(b, &rng, 0.05);
    ASSERT_TRUE(db.ok());
    auto table = FrequencyTable::Compute(*db);
    ASSERT_TRUE(table.ok());
    ExpectOracleAtMedianGap(*table, GetBenchmarkSpec(b).name);
  }
}

// ------------------------------------------------------------ recipe knob

TEST(RecipeEstimatorTest, EachKindReportsItsEngine) {
  // The chain fixture's supports. Bound by exact_support:k=1 (item 0's
  // support known, the rest ignorant) the model is one chain block: item
  // 0 exclusive to group 0 and three seam items, where the O-estimate
  // (1.25) and the exact expectation (4/3) differ.
  auto table = FrequencyTable::FromSupports({10, 10, 20, 20}, 100);
  ASSERT_TRUE(table.ok());
  const FrequencyGroups groups = FrequencyGroups::Build(*table);
  RecipeOptions options;
  options.tolerance = 0.1;  // budget 0.4 < g = 2: the interval check runs
  options.adversary = "exact_support";
  options.adversary_params.Set("k", 1.0);
  auto model = adversary::Adversary::Find("exact_support")
                   ->Bind(*table, groups, groups.MedianGap(),
                          options.adversary_params);
  ASSERT_TRUE(model.ok());
  auto direct = DirectExpectedCracks(groups, model->belief);
  ASSERT_TRUE(direct.ok());

  // Each engine called directly, as the recipe's step 6-7 switch does.
  auto oe = ComputeOEstimateForModel(groups, *model, options.oestimate);
  ASSERT_TRUE(oe.ok());
  auto planned = PlanAndEstimate(groups, model->belief, options.planner);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->blocks.size(), 1u);
  EXPECT_EQ(planned->blocks[0].method, BlockMethod::kChain);
  PlannerOptions exact_planner = options.planner;
  exact_planner.require_exact = true;
  auto planned_exact = PlanAndEstimate(groups, model->belief, exact_planner);
  ASSERT_TRUE(planned_exact.ok());
  SamplerOptions sampler_options;
  sampler_options.exec = options.exec;
  auto sampler = MatchingSampler::Create(groups, model->belief,
                                         sampler_options);
  ASSERT_TRUE(sampler.ok());
  const std::vector<size_t> counts = sampler->SampleCrackCounts();
  double sum = 0.0;
  for (size_t c : counts) sum += static_cast<double>(c);
  const double sampled = sum / static_cast<double>(counts.size());

  EXPECT_EQ(planned->expected_cracks, *direct);
  EXPECT_EQ(planned_exact->expected_cracks, *direct);
  EXPECT_NE(oe->expected_cracks, *direct);
  EXPECT_NEAR(sampled, *direct, 0.5);

  struct Row {
    EstimatorKind kind;
    double interval_oe;
    bool interval_exact;
  };
  for (const Row& row : {Row{EstimatorKind::kOe, oe->expected_cracks, false},
                         Row{EstimatorKind::kAuto, *direct, true},
                         Row{EstimatorKind::kExact, *direct, true},
                         Row{EstimatorKind::kSampler, sampled, false}}) {
    options.estimator = row.kind;
    auto result = AssessRisk(*table, options);
    ASSERT_TRUE(result.ok()) << EstimatorKindName(row.kind);
    ASSERT_NE(result->decision, RecipeDecision::kDiscloseAtPointValued);
    EXPECT_EQ(result->estimator, row.kind);
    EXPECT_EQ(result->interval_oe, row.interval_oe)
        << EstimatorKindName(row.kind);
    EXPECT_EQ(result->interval_exact, row.interval_exact)
        << EstimatorKindName(row.kind);
  }
}

TEST(RecipeEstimatorTest, AutoFillsIntervalProvenance) {
  // Many tied groups with a tiny tolerance so the recipe reaches the
  // interval check instead of stopping at step 2.
  std::vector<SupportCount> supports;
  for (size_t i = 0; i < 24; ++i) {
    supports.push_back(static_cast<SupportCount>(10 + 10 * (i / 4)));
  }
  auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
  ASSERT_TRUE(table.ok());

  RecipeOptions options;
  options.tolerance = 0.05;
  options.estimator = EstimatorKind::kAuto;
  auto result = AssessRisk(*table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->decision, RecipeDecision::kDiscloseAtPointValued);
  EXPECT_EQ(result->estimator, EstimatorKind::kAuto);
  EXPECT_FALSE(result->interval_blocks.empty());

  // The default path reports its kind and no provenance.
  RecipeOptions oe_options;
  oe_options.tolerance = 0.05;
  auto oe_result = AssessRisk(*table, oe_options);
  ASSERT_TRUE(oe_result.ok());
  EXPECT_EQ(oe_result->estimator, EstimatorKind::kOe);
  EXPECT_TRUE(oe_result->interval_blocks.empty());
  // Both paths bisect α on the same O-estimate machinery (§5.3), so the
  // final bound agrees even when the interval check differs.
  EXPECT_EQ(result->alpha_max, oe_result->alpha_max);
}

TEST(RecipeEstimatorTest, ValidatesPlannerOptions) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.estimator = EstimatorKind::kAuto;
  options.planner.ryser_cutoff = 0;
  auto result = AssessRisk(*table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(RecipeEstimatorTest, ItemsVariantRejectsPlanner) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.estimator = EstimatorKind::kAuto;
  std::vector<bool> interest = {true, false, true};
  auto result = AssessRiskForItems(*table, interest, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace anonsafe
