#include "core/recipe.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>

#include "core/alpha_sweep.h"
#include "core/exact_formulas.h"
#include "graph/matching_sampler.h"
#include "obs/scoped_timer.h"
#include "util/table_printer.h"

namespace anonsafe {

const char* ToString(RecipeDecision decision) {
  switch (decision) {
    case RecipeDecision::kDiscloseAtPointValued:
      return "DiscloseAtPointValued";
    case RecipeDecision::kDiscloseAtInterval:
      return "DiscloseAtInterval";
    case RecipeDecision::kAlphaBound:
      return "AlphaBound";
  }
  return "Unknown";
}

bool RecipeDecisionFromString(const std::string& text,
                              RecipeDecision* decision) {
  if (text == "DiscloseAtPointValued") {
    *decision = RecipeDecision::kDiscloseAtPointValued;
  } else if (text == "DiscloseAtInterval") {
    *decision = RecipeDecision::kDiscloseAtInterval;
  } else if (text == "AlphaBound") {
    *decision = RecipeDecision::kAlphaBound;
  } else {
    return false;
  }
  return true;
}

std::string RecipeResult::Summary() const {
  std::ostringstream oss;
  oss << "n=" << num_items << ", tolerance=" << tolerance
      << " (budget " << crack_budget << " cracks). ";
  switch (decision) {
    case RecipeDecision::kDiscloseAtPointValued:
      oss << "Even the point-valued worst case (g=" << num_groups
          << ") is within tolerance: DISCLOSE.";
      break;
    case RecipeDecision::kDiscloseAtInterval:
      oss << "Point-valued worst case g=" << num_groups
          << " exceeds tolerance, but the compliant-interval O-estimate "
          << interval_oe << " at width delta_med=" << delta_med
          << " is within tolerance: DISCLOSE.";
      break;
    case RecipeDecision::kAlphaBound:
      oss << "Full compliance is over budget (g=" << num_groups
          << ", interval OE=" << interval_oe
          << "). The hacker must correctly guess the intervals of more "
          << "than alpha_max=" << alpha_max
          << " of the items to exceed the tolerance; the owner must judge "
          << "whether that degree of prior knowledge is plausible.";
      break;
  }
  return oss.str();
}

Status ValidateRecipeOptions(const RecipeOptions& options) {
  if (!(options.tolerance > 0.0) || options.tolerance > 1.0) {
    return Status::InvalidArgument(
        "tolerance must lie in (0, 1], got " +
        std::to_string(options.tolerance));
  }
  if (options.exec.runs == 0) {
    return Status::InvalidArgument(
        "alpha runs (exec.runs) must be positive: each α probe averages "
        "over at least one compliant subset");
  }
  if (options.binary_search_iterations == 0) {
    return Status::InvalidArgument(
        "binary_search_iterations must be positive: zero steps would "
        "silently report alpha_max = 0");
  }
  if (options.estimator == EstimatorKind::kAuto ||
      options.estimator == EstimatorKind::kExact) {
    ANONSAFE_RETURN_IF_ERROR(ValidatePlannerOptions(options.planner));
  }
  ANONSAFE_ASSIGN_OR_RETURN(const adversary::Adversary* adv,
                            adversary::Adversary::Require(options.adversary));
  ANONSAFE_RETURN_IF_ERROR(adv->ValidateParams(options.adversary_params));
  return CheckEstimatorForAdversary(options.estimator, *adv);
}

Status CheckEstimatorForAdversary(EstimatorKind estimator,
                                  const adversary::Adversary& adversary) {
  if (adversary.Describe().weighted && estimator != EstimatorKind::kOe) {
    // Weighted consistency has no planner/exact/sampler semantics yet;
    // refusing here beats silently dropping the weights.
    return Status::Unimplemented(
        std::string("adversary '") + adversary.name() +
        "' produces weighted models, which only estimator=oe supports");
  }
  return Status::OK();
}

/// \brief The cross-call cache behind repeated AssessRisk runs on one
/// counted database. Every entry is a deterministic function of (table,
/// adversary spec, seed, runs), so a reader can safely compute with a
/// snapshot taken under the lock while another request fills the
/// remaining slots.
struct RecipeArtifacts {
  std::mutex mu;

  // Bound adversary model, keyed on the adversary spec and the δ it was
  // bound at — requests alternating adversaries rebuild rather than
  // replay a foreign model.
  std::string adversary_key;
  std::shared_ptr<const adversary::AdversaryModel> model;
  double base_delta_med = 0.0;

  // Sweep + probe stab cache, keyed on the exec knobs (and, via
  // adversary_key above, the base belief) that shaped them.
  uint64_t sweep_seed = 0;
  size_t sweep_runs = 0;
  std::shared_ptr<const AlphaCompliancySweep> sweep;
  std::shared_ptr<const AlphaCompliancySweep::ProbeCache> probes;
};

std::shared_ptr<RecipeArtifacts> MakeRecipeArtifacts() {
  return std::make_shared<RecipeArtifacts>();
}

namespace {

/// Consistent snapshot of the artifact pointers (cheap: shared_ptr copies).
struct ArtifactsView {
  std::shared_ptr<const adversary::AdversaryModel> model;
  double base_delta_med = 0.0;
  std::shared_ptr<const AlphaCompliancySweep> sweep;
  std::shared_ptr<const AlphaCompliancySweep::ProbeCache> probes;
};

ArtifactsView SnapshotArtifacts(RecipeArtifacts* artifacts,
                                const exec::ExecOptions& exec_options,
                                const std::string& adversary_key) {
  ArtifactsView view;
  if (artifacts == nullptr) return view;
  std::lock_guard<std::mutex> lock(artifacts->mu);
  if (artifacts->adversary_key == adversary_key) {
    view.model = artifacts->model;
    view.base_delta_med = artifacts->base_delta_med;
    if (artifacts->sweep != nullptr &&
        artifacts->sweep_seed == exec_options.seed &&
        artifacts->sweep_runs == exec_options.runs) {
      view.sweep = artifacts->sweep;
      view.probes = artifacts->probes;
    }
  }
  return view;
}

Status CheckCancelled(const exec::ExecContext* ctx) {
  if (ctx != nullptr && ctx->cancelled()) {
    return Status::Cancelled("assess-risk cancelled");
  }
  return Status::OK();
}

/// The Fig. 8 recipe on `table` and its groups. With a non-null
/// `interest` every quantity is restricted to the items of interest
/// (AssessRiskForItems, which has validated the mask): the crack budget
/// is τ·|interest|, step 2 uses the Lemma 4 worst case instead of g, and
/// steps 6-9 pass the mask to the O-estimate.
Result<RecipeResult> RunRecipe(const FrequencyTable& table,
                               const FrequencyGroups& groups,
                               const std::vector<bool>* interest,
                               const RecipeOptions& options,
                               exec::ExecContext* external_ctx,
                               RecipeArtifacts* artifacts) {
  ANONSAFE_RETURN_IF_ERROR(ValidateRecipeOptions(options));
  const exec::ExecOptions exec_options = options.exec;
  // The thread pool only schedules; values never depend on it, so an
  // external context (whatever its thread count) is bit-identical to the
  // private one built from options.exec.
  std::unique_ptr<exec::ExecContext> owned_ctx;
  exec::ExecContext* ctx = external_ctx;
  if (ctx == nullptr) {
    owned_ctx = std::make_unique<exec::ExecContext>(exec_options);
    ctx = owned_ctx.get();
  }
  obs::ScopedTimer recipe_timer(interest == nullptr
                                     ? "recipe.assess_risk"
                                     : "recipe.assess_risk_items");
  obs::CountIf("anonsafe_recipe_runs_total");
  ANONSAFE_RETURN_IF_ERROR(CheckCancelled(ctx));

  RecipeResult out;
  out.tolerance = options.tolerance;
  // Decisions are relative to the counted items.
  out.num_items =
      interest == nullptr
          ? table.num_items()
          : static_cast<size_t>(
                std::count(interest->begin(), interest->end(), true));
  out.estimator = options.estimator;
  out.adversary = options.adversary;
  out.adversary_params = options.adversary_params;
  out.crack_budget =
      options.tolerance * static_cast<double>(out.num_items);

  // Validated above; the registry pointer is a process-lifetime singleton.
  const adversary::Adversary& adv =
      *adversary::Adversary::Find(options.adversary);
  const std::string adversary_key =
      adversary::AdversarySpecString(options.adversary,
                                     options.adversary_params);

  ArtifactsView cached =
      SnapshotArtifacts(artifacts, exec_options, adversary_key);
  out.num_groups = groups.num_groups();

  // Steps 1-2: the point-valued worst case (Lemma 3, or its Lemma 4
  // form Σ c_i/n_i over the items of interest).
  {
    obs::ScopedTimer step("recipe.point_valued_check");
    double point_valued = static_cast<double>(out.num_groups);
    if (interest != nullptr) {
      ANONSAFE_ASSIGN_OR_RETURN(
          point_valued,
          PointValuedExpectedCracksOfInterest(groups, *interest));
    }
    if (step.tracing()) {
      if (interest == nullptr) {
        step.Annotate("g", std::to_string(out.num_groups));
      } else {
        step.Annotate("point_valued", TablePrinter::FmtG(point_valued, 4));
      }
      step.Annotate("budget", TablePrinter::FmtG(out.crack_budget, 4));
    }
    if (point_valued <= out.crack_budget) {
      out.decision = RecipeDecision::kDiscloseAtPointValued;
      if (recipe_timer.tracing()) {
        recipe_timer.Annotate("decision", ToString(out.decision));
      }
      return out;
    }
  }

  // Steps 3-7: bind the adversary at half-width delta_med (the interval
  // adversary reproduces the historical compliant interval belief
  // bit-for-bit), then the expected cracks under full compliance from
  // the engine `options.estimator` names.
  ANONSAFE_RETURN_IF_ERROR(CheckCancelled(ctx));
  obs::ScopedTimer interval_timer("recipe.interval_check");
  out.delta_med = groups.MedianGap();
  std::shared_ptr<const adversary::AdversaryModel> model = cached.model;
  if (model == nullptr || cached.base_delta_med != out.delta_med) {
    ANONSAFE_ASSIGN_OR_RETURN(
        adversary::AdversaryModel built,
        adv.Bind(table, groups, out.delta_med, options.adversary_params));
    model = std::make_shared<const adversary::AdversaryModel>(
        std::move(built));
    if (artifacts != nullptr) {
      std::lock_guard<std::mutex> lock(artifacts->mu);
      artifacts->adversary_key = adversary_key;
      artifacts->model = model;
      artifacts->base_delta_med = out.delta_med;
      // The sweep (if any) belongs to the previous model; drop it.
      artifacts->sweep.reset();
      artifacts->probes.reset();
    }
  } else {
    obs::CountIf("anonsafe_recipe_artifact_hits_total");
  }
  const BeliefFunction& base = model->belief;
  switch (options.estimator) {
    case EstimatorKind::kOe: {
      // The historical default path: for unweighted models this is the
      // plain O-estimate on the model's belief, bit-identical to releases
      // that predate the estimator and adversary knobs.
      ANONSAFE_ASSIGN_OR_RETURN(
          OEstimateResult oe,
          ComputeOEstimateForModel(groups, *model, options.oestimate, ctx,
                                   interest));
      out.interval_oe = oe.expected_cracks;
      break;
    }
    case EstimatorKind::kAuto:
    case EstimatorKind::kExact: {
      PlannerOptions planner = options.planner;
      planner.require_exact = options.estimator == EstimatorKind::kExact;
      ANONSAFE_ASSIGN_OR_RETURN(CrackEstimate estimate,
                                PlanAndEstimate(groups, base, planner, ctx));
      out.interval_oe = estimate.expected_cracks;
      out.interval_exact = estimate.exact;
      out.interval_blocks = std::move(estimate.blocks);
      break;
    }
    case EstimatorKind::kSampler: {
      SamplerOptions sampler_options;
      sampler_options.exec = exec_options;
      ANONSAFE_ASSIGN_OR_RETURN(
          MatchingSampler sampler,
          MatchingSampler::Create(groups, base, sampler_options));
      // The mean crack count over every chain's samples, summed in order.
      const std::vector<size_t> counts = sampler.SampleCrackCounts(ctx);
      double sum = 0.0;
      for (size_t c : counts) sum += static_cast<double>(c);
      out.interval_oe =
          counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
      break;
    }
  }
  if (interval_timer.tracing()) {
    interval_timer.Annotate("estimator",
                            EstimatorKindName(options.estimator));
    interval_timer.Annotate("delta_med", TablePrinter::FmtG(out.delta_med, 4));
    interval_timer.Annotate("interval_oe",
                            TablePrinter::FmtG(out.interval_oe, 4));
  }
  interval_timer.Stop();
  if (out.interval_oe <= out.crack_budget) {
    out.decision = RecipeDecision::kDiscloseAtInterval;
    if (recipe_timer.tracing()) {
      recipe_timer.Annotate("decision", ToString(out.decision));
    }
    return out;
  }

  // Steps 8-9: binary search for the largest alpha within tolerance,
  // averaging over nested random compliant subsets (Lemma 10 anchoring).
  ANONSAFE_RETURN_IF_ERROR(CheckCancelled(ctx));
  obs::ScopedTimer alpha_timer("recipe.alpha_search");
  std::shared_ptr<const AlphaCompliancySweep> sweep = cached.sweep;
  std::shared_ptr<const AlphaCompliancySweep::ProbeCache> probe_cache =
      cached.probes;
  if (sweep == nullptr || probe_cache == nullptr) {
    ANONSAFE_ASSIGN_OR_RETURN(
        AlphaCompliancySweep built,
        AlphaCompliancySweep::Create(table, base, exec_options.runs,
                                     exec_options.seed));
    sweep = std::make_shared<const AlphaCompliancySweep>(std::move(built));
    // Every probe uses the same two candidate intervals per item; stab
    // them against the groups once and let each probe replay the cached
    // ranges.
    probe_cache = std::make_shared<const AlphaCompliancySweep::ProbeCache>(
        sweep->MakeProbeCache(groups));
    if (artifacts != nullptr) {
      std::lock_guard<std::mutex> lock(artifacts->mu);
      // A concurrent request may have bound another adversary's model
      // since the snapshot; the sweep is cached only beside its own.
      if (artifacts->model == model) {
        artifacts->sweep_seed = exec_options.seed;
        artifacts->sweep_runs = exec_options.runs;
        artifacts->sweep = sweep;
        artifacts->probes = probe_cache;
      }
    }
  } else {
    obs::CountIf("anonsafe_recipe_artifact_hits_total");
  }
  double lo = 0.0;  // OE(0) = 0 <= budget always
  double hi = 1.0;  // OE(1) > budget (checked above)
  for (size_t iter = 0; iter < options.binary_search_iterations; ++iter) {
    ANONSAFE_RETURN_IF_ERROR(CheckCancelled(ctx));
    double mid = (lo + hi) / 2.0;
    obs::ScopedTimer probe("recipe.alpha_probe");
    obs::CountIf("anonsafe_alpha_probes_total");
    ANONSAFE_ASSIGN_OR_RETURN(
        double avg_oe,
        sweep->AverageOEstimate(
            groups, *probe_cache, mid, options.oestimate, ctx,
            model->weighted() ? &model->weights : nullptr, interest));
    if (probe.tracing()) {
      probe.Annotate("alpha", TablePrinter::FmtG(mid, 4));
      probe.Annotate("avg_oe", TablePrinter::FmtG(avg_oe, 4));
    }
    if (avg_oe <= out.crack_budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.alpha_max = lo;
  out.decision = RecipeDecision::kAlphaBound;
  if (alpha_timer.tracing()) {
    alpha_timer.Annotate("alpha_max", TablePrinter::FmtG(out.alpha_max, 4));
  }
  alpha_timer.Stop();
  if (recipe_timer.tracing()) {
    recipe_timer.Annotate("decision", ToString(out.decision));
  }
  return out;
}

}  // namespace

Result<RecipeResult> AssessRisk(const CountedDatabase& data,
                                const RecipeOptions& options,
                                exec::ExecContext* ctx,
                                RecipeArtifacts* artifacts) {
  return RunRecipe(data.table(), data.groups(), /*interest=*/nullptr,
                   options, ctx, artifacts);
}

Result<RecipeResult> AssessRisk(const FrequencyTable& table,
                                const RecipeOptions& options,
                                exec::ExecContext* ctx) {
  return RunRecipe(table, FrequencyGroups::Build(table), /*interest=*/nullptr,
                   options, ctx, /*artifacts=*/nullptr);
}

Result<RecipeResult> AssessRiskForItems(const FrequencyTable& table,
                                        const std::vector<bool>& interest,
                                        const RecipeOptions& options) {
  if (options.estimator != EstimatorKind::kOe) {
    // The planner has no per-item accounting of foreign blocks yet.
    return Status::InvalidArgument(
        "AssessRiskForItems supports only estimator=oe");
  }
  if (interest.size() != table.num_items()) {
    return Status::InvalidArgument("interest mask size mismatch");
  }
  if (std::find(interest.begin(), interest.end(), true) == interest.end()) {
    return Status::InvalidArgument("interest mask selects no items");
  }
  return RunRecipe(table, FrequencyGroups::Build(table), &interest, options,
                   /*ctx=*/nullptr, /*artifacts=*/nullptr);
}

}  // namespace anonsafe
