#include "defense/optimizer.h"

#include <algorithm>
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
  score.k_anonymity = FrequencyKAnonymity(groups);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(release, groups.MedianGap()));
  ANONSAFE_ASSIGN_OR_RETURN(CrackEstimate estimate,
                            PlanAndEstimate(groups, belief, planner, ctx));
  score.expected_cracks = estimate.expected_cracks;
  score.exact = estimate.exact;
  score.num_components = estimate.num_components;
  return score;
}

/// A enumerated-but-unscored candidate: which scheme, which params.
struct PendingCandidate {
  const DefenseScheme* scheme = nullptr;
  DefenseParams params;
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

Result<DefenseFrontier> RecommendDefense(const Database& db,
                                         const OptimizerOptions& options,
                                         exec::ExecContext* ctx) {
  obs::ScopedTimer timer("defense.recommend");
  ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options.planner));
  const uint64_t seed =
      ctx != nullptr ? ctx->seed() : exec::ExecOptions{}.seed;

  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable before,
                            FrequencyTable::Compute(db));
  // Shared read-only by every candidate's realization walk.
  const internal::HolderIndex index(db);

  DefenseFrontier result;
  result.num_items = before.num_items();
  result.num_transactions = before.num_transactions();
  result.seed = seed;

  // Baseline: the risk of releasing the original data unchanged.
  // Sampler fallbacks (if any) draw from stream 1 of the master seed.
  {
    PlannerOptions planner = options.planner;
    planner.block_sampler.exec.seed = exec::SplitSeed(seed, 1);
    ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable release, ReleaseView(before));
    ANONSAFE_ASSIGN_OR_RETURN(RiskScore baseline,
                              ScoreRisk(release, planner, ctx));
    result.baseline_cracks = baseline.expected_cracks;
    result.baseline_exact = baseline.exact;
    result.baseline_groups = baseline.num_groups;
  }

  // Enumerate scheme-major through the registry — the optimizer never
  // names a concrete scheme.
  std::vector<PendingCandidate> pending;
  for (const DefenseScheme* scheme : DefenseScheme::All()) {
    for (DefenseParams& params : scheme->ParamSpace(before)) {
      pending.push_back(PendingCandidate{scheme, std::move(params)});
    }
  }
  obs::CountIf("defense.recommend.candidates", pending.size());
  if (timer.tracing()) {
    timer.Annotate("candidates", std::to_string(pending.size()));
  }

  // Score candidates in parallel, one per chunk, into fixed slots.
  // RNG streams are a function of the candidate index alone (the
  // realization walk draws stream 2i+2, sampler fallbacks stream 2i+3),
  // so the sweep is bit-identical at any thread count.
  result.candidates.resize(pending.size());
  Status status = exec::ParallelForChunks(
      ctx, pending.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          if (ctx != nullptr && ctx->cancelled()) return Status::OK();
          const PendingCandidate& cand = pending[i];
          CandidateScore& score = result.candidates[i];
          score.index = i;
          score.scheme = cand.scheme->name();
          score.params = cand.params;

          Result<DefensePlan> plan = cand.scheme->Plan(before, cand.params);
          if (!plan.ok()) {
            if (plan.status().code() == StatusCode::kFailedPrecondition) {
              score.reason = plan.status().message();
              continue;  // unreachable setting — recorded, not fatal
            }
            return plan.status();
          }
          // The walk on sizes alone: the table Apply's database would
          // count, without building that database.
          Rng realize_rng(exec::SplitSeed(seed, 2 * i + 2));
          Result<internal::Realized> realized =
              internal::Realize(index, *plan, &realize_rng);
          Result<FrequencyTable> after =
              realized.ok() ? realized->Table()
                            : Result<FrequencyTable>(realized.status());
          if (!after.ok()) {
            // Unrealizable on this database, or it emptied the release.
            score.reason = after.status().message();
            continue;
          }
          ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable release,
                                    ReleaseView(*after));
          PlannerOptions planner = options.planner;
          planner.block_sampler.exec.seed = exec::SplitSeed(seed, 2 * i + 3);
          ANONSAFE_ASSIGN_OR_RETURN(RiskScore risk,
                                    ScoreRisk(release, planner, ctx));
          score.feasible = true;
          score.plan = std::move(*plan);
          score.expected_cracks = risk.expected_cracks;
          score.exact = risk.exact;
          score.num_components = risk.num_components;
          score.k_anonymity = risk.k_anonymity;
          score.utility = ComputeUtilityLoss(before, *after);
        }
        return Status::OK();
      });
  ANONSAFE_RETURN_IF_ERROR(status);
  if (ctx != nullptr && ctx->cancelled()) {
    return Status::Cancelled("recommend_defense cancelled");
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

}  // namespace defense
}  // namespace anonsafe
