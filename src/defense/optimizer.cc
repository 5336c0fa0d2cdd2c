#include "defense/optimizer.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "belief/builders.h"
#include "defense/k_anonymity.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/rng.h"

namespace anonsafe {
namespace defense {
namespace {

/// The release view of a table: the items actually published (support
/// > 0), as their own frequency table. Suppressed items keep their slot
/// in the full domain but are invisible to an attacker.
Result<FrequencyTable> ReleaseView(const FrequencyTable& table) {
  std::vector<SupportCount> alive;
  for (ItemId x = 0; x < table.num_items(); ++x) {
    if (table.support(x) > 0) alive.push_back(table.support(x));
  }
  return FrequencyTable::FromSupports(std::move(alive),
                                      table.num_transactions());
}

struct RiskScore {
  double expected_cracks = 0.0;
  bool exact = true;
  size_t num_components = 0;
  size_t k_anonymity = 0;
  size_t num_groups = 0;
  double group_entropy = 0.0;  ///< `GroupEntropy` of the release's groups
  bool sampled = false;  ///< a block drew from the sampler's stream
};

/// Expected cracks of a release under the recipe's compliant interval
/// belief at the release's own δ_med, scored by the estimator planner.
Result<RiskScore> ScoreRisk(const FrequencyTable& release,
                            const PlannerOptions& planner,
                            exec::ExecContext* ctx) {
  RiskScore score;
  if (release.num_items() == 0) return score;  // empty release leaks nothing
  FrequencyGroups groups = FrequencyGroups::Build(release);
  score.num_groups = groups.num_groups();
  score.group_entropy = GroupEntropy(groups);
  score.k_anonymity = FrequencyKAnonymity(groups);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(release, groups.MedianGap()));
  ANONSAFE_ASSIGN_OR_RETURN(CrackEstimate estimate,
                            PlanAndEstimate(groups, belief, planner, ctx));
  score.expected_cracks = estimate.expected_cracks;
  score.exact = estimate.exact;
  score.num_components = estimate.num_components;
  score.sampled = std::any_of(estimate.blocks.begin(), estimate.blocks.end(),
                              [](const BlockProvenance& b) {
                                return b.method == BlockMethod::kSampler;
                              });
  return score;
}

/// A candidate between the sweep's passes: which scheme and params, its
/// plan, the after-table its walk realized, and whose score it takes.
struct PendingCandidate {
  const DefenseScheme* scheme = nullptr;
  DefenseParams params;
  Result<DefensePlan> plan = Status::Internal("candidate not planned");
  std::optional<FrequencyTable> after;  ///< set when realizable
  size_t scorer = 0;  ///< the candidate whose risk and utility it takes
  RiskScore risk;     ///< set on a scorer
  UtilityLoss utility;
  Status error;       ///< a hard failure; the lowest index wins
};

}  // namespace

json::Value CandidateScore::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("index", json::Value(uint64_t{index}));
  obj.Set("scheme", json::Value(scheme));
  obj.Set("params", params.ToJson());
  obj.Set("feasible", json::Value(feasible));
  if (!feasible) {
    obj.Set("reason", json::Value(reason));
    return obj;
  }
  obj.Set("plan", plan.ToJson());
  json::Value risk = json::Value::Object();
  risk.Set("expected_cracks", json::Value(expected_cracks));
  risk.Set("exact", json::Value(exact));
  risk.Set("num_components", json::Value(uint64_t{num_components}));
  risk.Set("k_anonymity", json::Value(uint64_t{k_anonymity}));
  obj.Set("risk", std::move(risk));
  obj.Set("utility", utility.ToJson());
  obj.Set("on_frontier", json::Value(on_frontier));
  return obj;
}

json::Value DefenseFrontier::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("num_items", json::Value(uint64_t{num_items}));
  obj.Set("num_transactions", json::Value(uint64_t{num_transactions}));
  obj.Set("seed", json::Value(uint64_t{seed}));
  obj.Set("num_candidates", json::Value(uint64_t{candidates.size()}));
  uint64_t feasible = 0;
  for (const CandidateScore& c : candidates) feasible += c.feasible ? 1 : 0;
  obj.Set("feasible_candidates", json::Value(feasible));
  obj.Set("frontier_size", json::Value(uint64_t{frontier.size()}));
  json::Value baseline = json::Value::Object();
  baseline.Set("expected_cracks", json::Value(baseline_cracks));
  baseline.Set("exact", json::Value(baseline_exact));
  baseline.Set("num_groups", json::Value(uint64_t{baseline_groups}));
  obj.Set("baseline", std::move(baseline));
  json::Value cands = json::Value::Array();
  for (const CandidateScore& c : candidates) cands.Append(c.ToJson());
  obj.Set("candidates", std::move(cands));
  json::Value front = json::Value::Array();
  for (size_t i : frontier) {
    const CandidateScore& c = candidates[i];
    json::Value point = json::Value::Object();
    point.Set("candidate", json::Value(uint64_t{c.index}));
    point.Set("scheme", json::Value(c.scheme));
    point.Set("params", c.params.ToJson());
    point.Set("expected_cracks", json::Value(c.expected_cracks));
    point.Set("total_loss", json::Value(c.utility.total_loss));
    front.Append(std::move(point));
  }
  obj.Set("frontier", std::move(front));
  return obj;
}

Result<DefenseFrontier> RecommendDefense(const CountedDatabase& data,
                                         const OptimizerOptions& options,
                                         exec::ExecContext* ctx) {
  obs::ScopedTimer timer("defense.recommend");
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options.planner));
  const uint64_t seed =
      ctx != nullptr ? ctx->seed() : exec::ExecOptions{}.seed;

  const FrequencyTable& before = data.table();
  // Shared read-only by every candidate's realization walk; built in
  // the planning region, beside the ladders.
  std::optional<internal::HolderIndex> index;

  // The risk of releasing the original data unchanged, scored in the
  // planning region.
  RiskScore baseline;

  DefenseFrontier result;
  result.num_items = before.num_items();
  result.num_transactions = before.num_transactions();
  result.seed = seed;

  // Enumerate scheme-major through the registry — the optimizer never
  // names a concrete scheme. ladders[s]: scheme s's points, and where
  // its first candidate sits.
  const std::vector<const DefenseScheme*>& schemes = DefenseScheme::All();
  std::vector<std::pair<size_t, std::vector<DefenseParams>>> ladders;
  std::vector<PendingCandidate> pending;
  for (const DefenseScheme* scheme : schemes) {
    ladders.emplace_back(pending.size(), scheme->ParamSpace(before));
    for (const DefenseParams& params : ladders.back().second) {
      pending.emplace_back();
      pending.back().scheme = scheme;
      pending.back().params = params;
    }
  }
  obs::CountIf("defense.recommend.candidates", pending.size());
  if (timer.tracing()) {
    timer.Annotate("candidates", std::to_string(pending.size()));
  }

  // Four steps, each a function of candidate indices alone, so the
  // sweep is bit-identical at any thread count:
  //  1. In parallel, plan each scheme's ladder once, one scheme per
  //     chunk (the points of a ladder share their planning work), index
  //     the database in one more chunk, and score the baseline in a last
  //     one (sampler fallbacks on stream 1). Only the baseline can fail,
  //     so its error is the region's.
  //  2. In parallel, walk every planned candidate on sizes alone
  //     (stream 2i+2): the table Apply's database would count, without
  //     building that database.
  //  3. Pick one scorer per distinct after-table (same supports, same
  //     m): its lowest candidate index, the leader.
  //  4. In parallel, score the leaders (sampler fallbacks on stream
  //     2i+3). Risk and utility are functions of the after-table, so
  //     the other candidates take their leader's; only a sampler
  //     estimate also depends on its stream, so the followers of a
  //     leader that sampled are scored on their own streams.
  const size_t n = pending.size();
  result.candidates.resize(n);
  // One candidate per chunk; each keeps its own error.
  auto in_parallel = [&](const std::vector<size_t>& which,
                         const std::function<Status(size_t)>& step) {
    return exec::ParallelForChunks(
        ctx, which.size(), /*grain=*/1, [&](size_t c, size_t) -> Status {
          pending[which[c]].error = step(which[c]);
          return Status::OK();
        });
  };
  auto walk = [&](size_t i) -> Status {
    PendingCandidate& cand = pending[i];
    CandidateScore& score = result.candidates[i];
    score.index = i;
    score.scheme = cand.scheme->name();
    score.params = cand.params;
    Result<DefensePlan>& plan = cand.plan;
    if (!plan.ok()) {
      if (plan.status().code() != StatusCode::kFailedPrecondition) {
        return plan.status();
      }
      score.reason = plan.status().message();  // unreachable, not fatal
      return Status::OK();
    }
    Rng realize_rng(exec::SplitSeed(seed, 2 * i + 2));
    Result<internal::Realized> realized =
        internal::Realize(*index, *plan, &realize_rng);
    Result<FrequencyTable> after =
        realized.ok() ? realized->Table()
                      : Result<FrequencyTable>(realized.status());
    if (!after.ok()) {
      // Unrealizable on this database, or it emptied the release.
      score.reason = after.status().message();
      return Status::OK();
    }
    score.plan = std::move(*plan);
    cand.after = std::move(*after);
    return Status::OK();
  };
  auto score = [&](size_t i) -> Status {
    PendingCandidate& cand = pending[i];
    ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable release,
                              ReleaseView(*cand.after));
    PlannerOptions planner = options.planner;
    planner.block_sampler.exec.seed = exec::SplitSeed(seed, 2 * i + 3);
    ANONSAFE_ASSIGN_OR_RETURN(cand.risk, ScoreRisk(release, planner, ctx));
    cand.utility = ComputeUtilityLoss(before, *cand.after,
                                      baseline.group_entropy,
                                      cand.risk.group_entropy);
    return Status::OK();
  };

  ANONSAFE_RETURN_IF_ERROR(exec::ParallelForChunks(
      ctx, schemes.size() + 2, /*grain=*/1, [&](size_t s, size_t) -> Status {
        if (s == schemes.size()) {
          index.emplace(data.database());
          return Status::OK();
        }
        if (s == schemes.size() + 1) {
          PlannerOptions planner = options.planner;
          planner.block_sampler.exec.seed = exec::SplitSeed(seed, 1);
          ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable release,
                                    ReleaseView(before));
          ANONSAFE_ASSIGN_OR_RETURN(baseline,
                                    ScoreRisk(release, planner, ctx));
          return Status::OK();
        }
        const auto& [first, ladder] = ladders[s];
        if (ladder.empty()) return Status::OK();
        std::vector<Result<DefensePlan>> plans =
            schemes[s]->PlanLadder(before, ladder);
        for (size_t j = 0; j < plans.size(); ++j) {
          pending[first + j].plan = std::move(plans[j]);
        }
        return Status::OK();
      }));
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  result.baseline_cracks = baseline.expected_cracks;
  result.baseline_exact = baseline.exact;
  result.baseline_groups = baseline.num_groups;
  ANONSAFE_RETURN_IF_ERROR(in_parallel(all, walk));
  std::vector<size_t> leaders;
  for (size_t i = 0; i < n; ++i) {
    PendingCandidate& cand = pending[i];
    if (!cand.after) continue;
    auto same = std::find_if(leaders.begin(), leaders.end(), [&](size_t j) {
      const FrequencyTable& other = *pending[j].after;
      return other.num_transactions() == cand.after->num_transactions() &&
             other.supports() == cand.after->supports();
    });
    cand.scorer = same != leaders.end() ? *same : i;
    if (cand.scorer == i) leaders.push_back(i);
  }
  ANONSAFE_RETURN_IF_ERROR(in_parallel(leaders, score));
  std::vector<size_t> own;
  for (size_t i = 0; i < n; ++i) {
    PendingCandidate& cand = pending[i];
    if (cand.after && cand.scorer != i && pending[cand.scorer].risk.sampled) {
      cand.scorer = i;
      own.push_back(i);
    }
  }
  ANONSAFE_RETURN_IF_ERROR(in_parallel(own, score));
  for (const PendingCandidate& cand : pending) {
    ANONSAFE_RETURN_IF_ERROR(cand.error);
  }
  if (ctx != nullptr && ctx->cancelled()) {
    return Status::Cancelled("recommend_defense cancelled");
  }
  for (size_t i = 0; i < n; ++i) {
    if (!pending[i].after) continue;
    const PendingCandidate& scorer = pending[pending[i].scorer];
    CandidateScore& c = result.candidates[i];
    c.feasible = true;
    c.expected_cracks = scorer.risk.expected_cracks;
    c.exact = scorer.risk.exact;
    c.num_components = scorer.risk.num_components;
    c.k_anonymity = scorer.risk.k_anonymity;
    c.utility = scorer.utility;
  }

  // Literal O(n^2) dominance over the feasible candidates: A dominates
  // B when no worse on both axes and strictly better on one; exact ties
  // keep both points.
  std::vector<size_t> feasible;
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    if (result.candidates[i].feasible) feasible.push_back(i);
  }
  for (size_t i : feasible) {
    const CandidateScore& a = result.candidates[i];
    bool dominated = false;
    for (size_t j : feasible) {
      if (i == j) continue;
      const CandidateScore& b = result.candidates[j];
      if (b.expected_cracks <= a.expected_cracks &&
          b.utility.total_loss <= a.utility.total_loss &&
          (b.expected_cracks < a.expected_cracks ||
           b.utility.total_loss < a.utility.total_loss)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.frontier.push_back(i);
  }
  std::sort(result.frontier.begin(), result.frontier.end(),
            [&](size_t i, size_t j) {
              const CandidateScore& a = result.candidates[i];
              const CandidateScore& b = result.candidates[j];
              if (a.expected_cracks != b.expected_cracks) {
                return a.expected_cracks < b.expected_cracks;
              }
              if (a.utility.total_loss != b.utility.total_loss) {
                return a.utility.total_loss < b.utility.total_loss;
              }
              return i < j;
            });
  for (size_t i : result.frontier) result.candidates[i].on_frontier = true;

  obs::CountIf("defense.recommend.sweeps");
  obs::GaugeIf("defense.recommend.frontier_size",
               static_cast<double>(result.frontier.size()));
  if (timer.tracing()) {
    timer.Annotate("frontier", std::to_string(result.frontier.size()));
  }
  return result;
}

Result<DefenseFrontier> RecommendDefense(const Database& db,
                                         const OptimizerOptions& options,
                                         exec::ExecContext* ctx) {
  ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase data, CountedDatabase::Count(db));
  return RecommendDefense(data, options, ctx);
}

}  // namespace defense
}  // namespace anonsafe
