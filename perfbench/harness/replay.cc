#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "adversary/adversary.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/exact_formulas.h"
#include "core/oestimate.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "defense/optimizer.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "obs/metrics.h"
#include "serve/dataset_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

using anonsafe::Result;
using anonsafe::Status;
namespace json = anonsafe::json;
namespace exec = anonsafe::exec;

size_t SpanRecorder::Open(const char* name) {
  Span span;
  span.name = name;
  span.start_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
  span.request = request_;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  spans_[index].end_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - origin_)
                             .count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanRecorder::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

size_t SpanRecorder::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

double SpanRecorder::RootTotalMs() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ms - s.start_ms;
  }
  return total;
}

double SpanRecorder::RootSelfMs() const {
  double self = RootTotalMs();
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].parent < 0) {
      self -= s.end_ms - s.start_ms;
    }
  }
  return self;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Value v = json::Value::Object();
    v.Set("span", json::Value(uint64_t{i}));
    v.Set("name", json::Value(s.name));
    v.Set("start_ms", json::Value(s.start_ms));
    v.Set("end_ms", json::Value(s.end_ms));
    v.Set("parent", json::Value(s.parent));
    v.Set("request", json::Value(s.request));
    out << v.Dump() << "\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// RAII span; a null recorder records nothing (warm-up replays).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_ != nullptr) index_ = rec_->Open(name);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t index_ = 0;
};

/// Mirror of the recipe's cross-request artifact cache (RecipeArtifacts
/// is opaque), keyed the same way.
struct Artifacts {
  std::shared_ptr<const anonsafe::FrequencyGroups> groups;
  std::string adversary_key;
  std::shared_ptr<const anonsafe::adversary::AdversaryModel> model;
  double base_delta_med = 0.0;
  uint64_t sweep_seed = 0;
  size_t sweep_runs = 0;
  std::shared_ptr<const anonsafe::AlphaCompliancySweep> sweep;
  std::shared_ptr<const anonsafe::AlphaCompliancySweep::ProbeCache> probes;
};

struct ResidentDataset {
  anonsafe::LabeledDatabase data;
  anonsafe::FrequencyTable table;
  anonsafe::FrequencyGroups groups;
  Artifacts artifacts;
};

Result<exec::ExecOptions> ExecFromParams(const json::Value& params) {
  exec::ExecOptions eo;
  ANONSAFE_ASSIGN_OR_RETURN(
      double seed, params.GetNumberOr("seed", static_cast<double>(eo.seed)));
  ANONSAFE_ASSIGN_OR_RETURN(
      double runs, params.GetNumberOr("runs", static_cast<double>(eo.runs)));
  ANONSAFE_ASSIGN_OR_RETURN(
      double threads,
      params.GetNumberOr("threads", static_cast<double>(eo.threads)));
  eo.seed = static_cast<uint64_t>(seed);
  eo.runs = static_cast<size_t>(runs);
  eo.threads = static_cast<size_t>(threads);
  return eo;
}

/// Replays request lines through the library's public calls, one span
/// per call, keeping its own resident datasets.
class Replayer {
 public:
  explicit Replayer(std::map<std::string, double>* counts)
      : counts_(counts) {}

  Result<std::string> Replay(const std::string& line, SpanRecorder* rec) {
    rec_ = rec;
    ScopedSpan root(rec_, "serve.request");
    std::optional<json::Value> request;
    {
      ScopedSpan span(rec_, "util.json_parse");
      ANONSAFE_ASSIGN_OR_RETURN(json::Value parsed, json::Value::Parse(line));
      request = std::move(parsed);
    }
    ANONSAFE_ASSIGN_OR_RETURN(std::string verb, request->GetString("verb"));
    const json::Value* params = request->Find("params");
    if (params == nullptr) return Status::InvalidArgument("no params");
    std::optional<json::Value> result;
    if (verb == "load_dataset") {
      ANONSAFE_ASSIGN_OR_RETURN(result, Load(*params));
    } else if (verb == "assess_risk") {
      ANONSAFE_ASSIGN_OR_RETURN(result, Assess(*params));
    } else if (verb == "recommend_defense") {
      ANONSAFE_ASSIGN_OR_RETURN(result, Defense(*params));
    } else {
      return Status::InvalidArgument("no replay for verb '" + verb + "'");
    }
    ScopedSpan span(rec_, "util.json_emit");
    return anonsafe::serve::MakeOkResponse(*request->Find("id"),
                                           std::move(*result), 2)
        .Dump();
  }

 private:
  Result<json::Value> Load(const json::Value& params) {
    ANONSAFE_ASSIGN_OR_RETURN(std::string content, params.GetString("content"));
    std::string key;
    bool cached = false;
    {
      ScopedSpan span(rec_, "serve.dataset_cache");
      key = anonsafe::serve::DatasetCache::HashContent(content);
      cached = resident_.count(key) > 0;
    }
    if (!cached) {
      std::optional<anonsafe::LabeledDatabase> data;
      {
        ScopedSpan span(rec_, "data.fimi_parse");
        std::istringstream in(content);
        ANONSAFE_ASSIGN_OR_RETURN(anonsafe::LabeledDatabase parsed,
                                  anonsafe::ReadFimi(in));
        data = std::move(parsed);
      }
      std::optional<anonsafe::FrequencyTable> table;
      {
        ScopedSpan span(rec_, "data.frequency");
        ANONSAFE_ASSIGN_OR_RETURN(
            anonsafe::FrequencyTable t,
            anonsafe::FrequencyTable::Compute(data->database));
        table = std::move(t);
      }
      std::optional<anonsafe::FrequencyGroups> groups;
      {
        ScopedSpan span(rec_, "data.group_build");
        groups = anonsafe::FrequencyGroups::Build(*table);
      }
      resident_[key] = std::make_unique<ResidentDataset>(
          ResidentDataset{std::move(*data), std::move(*table),
                          std::move(*groups), Artifacts{}});
    }
    const ResidentDataset& ds = *resident_[key];
    ScopedSpan span(rec_, "util.json_emit");
    json::Value result = json::Value::Object();
    result.Set("dataset", json::Value(key));
    result.Set("cached", json::Value(cached));
    result.Set("num_items", json::Value(uint64_t{ds.data.database.num_items()}));
    result.Set("num_transactions",
               json::Value(uint64_t{ds.data.database.num_transactions()}));
    result.Set("num_groups", json::Value(uint64_t{ds.groups.num_groups()}));
    return result;
  }

  Result<ResidentDataset*> Find(const json::Value& params, std::string* key) {
    ANONSAFE_ASSIGN_OR_RETURN(*key, params.GetString("dataset"));
    ScopedSpan span(rec_, "serve.dataset_cache");
    auto it = resident_.find(*key);
    if (it == resident_.end()) return Status::NotFound("dataset not resident");
    return it->second.get();
  }

  Result<json::Value> Assess(const json::Value& params) {
    std::string key;
    ANONSAFE_ASSIGN_OR_RETURN(ResidentDataset * ds, Find(params, &key));
    ANONSAFE_ASSIGN_OR_RETURN(exec::ExecOptions eo, ExecFromParams(params));
    anonsafe::RiskReportOptions options;
    ANONSAFE_ASSIGN_OR_RETURN(
        options.recipe.tolerance,
        params.GetNumberOr("tolerance", options.recipe.tolerance));
    ANONSAFE_ASSIGN_OR_RETURN(options.include_similarity_curve,
                              params.GetBoolOr("include_similarity_curve", true));
    ANONSAFE_ASSIGN_OR_RETURN(std::string estimator,
                              params.GetStringOr("estimator", "oe"));
    ANONSAFE_ASSIGN_OR_RETURN(options.recipe.estimator,
                              anonsafe::ParseEstimatorKind(estimator));
    options.recipe.exec = eo;
    exec::ExecContext ctx(eo);
    ANONSAFE_ASSIGN_OR_RETURN(anonsafe::RiskReport report,
                              BuildReport(ds, options, &ctx));
    ScopedSpan span(rec_, "util.json_emit");
    json::Value result = json::Value::Object();
    result.Set("dataset", json::Value(key));
    result.Set("report", report.ToJson());
    return result;
  }

  /// BuildRiskReport, step by step.
  Result<anonsafe::RiskReport> BuildReport(
      ResidentDataset* ds, const anonsafe::RiskReportOptions& options,
      exec::ExecContext* ctx) {
    const anonsafe::Database& db = ds->data.database;
    std::optional<anonsafe::FrequencyTable> table;
    {
      ScopedSpan span(rec_, "data.frequency");
      ANONSAFE_ASSIGN_OR_RETURN(anonsafe::FrequencyTable t,
                                anonsafe::FrequencyTable::Compute(db));
      table = std::move(t);
    }
    std::optional<anonsafe::FrequencyGroups> groups;
    {
      ScopedSpan span(rec_, "data.group_build");
      groups = anonsafe::FrequencyGroups::Build(*table);
    }
    anonsafe::RiskReport report;
    report.num_items = db.num_items();
    report.num_transactions = db.num_transactions();
    report.num_groups = groups->num_groups();
    report.num_singleton_groups = groups->num_singleton_groups();
    report.median_gap = groups->MedianGap();
    report.mean_gap = groups->GapSummary().mean;
    {
      ScopedSpan span(rec_, "core.point_valued");
      report.ignorant_expected_cracks =
          anonsafe::IgnorantExpectedCracks(db.num_items());
      report.point_valued_expected_cracks =
          anonsafe::PointValuedExpectedCracks(*groups);
    }
    ANONSAFE_ASSIGN_OR_RETURN(
        report.recipe, Recipe(*table, options.recipe, ctx, &ds->artifacts));
    if (options.include_similarity_curve) {
      ScopedSpan span(rec_, "core.similarity");
      ANONSAFE_ASSIGN_OR_RETURN(
          report.similarity_curve,
          anonsafe::SimilarityBySampling(db, options.similarity, ctx));
    }
    if (options.include_similarity_curve &&
        report.recipe.decision == anonsafe::RecipeDecision::kAlphaBound) {
      for (const anonsafe::SimilarityPoint& p : report.similarity_curve) {
        if (p.mean_alpha >= report.recipe.alpha_max) {
          report.breaching_sample_fraction = p.sample_fraction;
          break;
        }
      }
    }
    return report;
  }

  /// AssessRisk (Fig. 8) with the artifact cache, step by step.
  Result<anonsafe::RecipeResult> Recipe(const anonsafe::FrequencyTable& table,
                                        const anonsafe::RecipeOptions& options,
                                        exec::ExecContext* ctx,
                                        Artifacts* art) {
    using anonsafe::EstimatorKind;
    ANONSAFE_RETURN_IF_ERROR(anonsafe::ValidateRecipeOptions(options));
    if (options.estimator != EstimatorKind::kOe &&
        options.estimator != EstimatorKind::kAuto) {
      return Status::Unimplemented("replay covers estimators oe and auto");
    }
    anonsafe::RecipeResult out;
    out.tolerance = options.tolerance;
    out.num_items = table.num_items();
    out.estimator = options.estimator;
    out.adversary = options.adversary;
    out.adversary_params = options.adversary_params;
    out.crack_budget =
        options.tolerance * static_cast<double>(table.num_items());
    const anonsafe::adversary::Adversary& adv =
        *anonsafe::adversary::Adversary::Find(options.adversary);
    std::string adversary_key = options.adversary;
    if (!options.adversary_params.values.empty()) {
      adversary_key += ":" + options.adversary_params.ToString();
    }
    const bool same_adversary = art->adversary_key == adversary_key;
    auto model = same_adversary ? art->model : nullptr;
    auto sweep = same_adversary && art->sweep_seed == options.exec.seed &&
                         art->sweep_runs == options.exec.runs
                     ? art->sweep
                     : nullptr;
    auto probes = sweep != nullptr ? art->probes : nullptr;

    if (art->groups == nullptr) {
      ScopedSpan span(rec_, "data.group_build");
      art->groups = std::make_shared<const anonsafe::FrequencyGroups>(
          anonsafe::FrequencyGroups::Build(table));
    }
    const anonsafe::FrequencyGroups& groups = *art->groups;
    out.num_groups = groups.num_groups();
    {
      ScopedSpan span(rec_, "core.point_valued");
      if (static_cast<double>(out.num_groups) <= out.crack_budget) {
        out.decision = anonsafe::RecipeDecision::kDiscloseAtPointValued;
        return out;
      }
    }
    {
      ScopedSpan interval(rec_, "core.interval_check");
      out.delta_med = groups.MedianGap();
      if (model == nullptr || art->base_delta_med != out.delta_med) {
        ScopedSpan span(rec_, "adversary.bind");
        ANONSAFE_ASSIGN_OR_RETURN(
            anonsafe::adversary::AdversaryModel built,
            adv.Bind(table, groups, out.delta_med, options.adversary_params));
        model = std::make_shared<const anonsafe::adversary::AdversaryModel>(
            std::move(built));
        art->adversary_key = adversary_key;
        art->model = model;
        art->base_delta_med = out.delta_med;
        art->sweep.reset();
        art->probes.reset();
      }
      if (options.estimator == EstimatorKind::kOe) {
        ScopedSpan span(rec_, "core.oestimate");
        ANONSAFE_ASSIGN_OR_RETURN(
            anonsafe::OEstimateResult oe,
            anonsafe::ComputeOEstimateForModel(groups, *model,
                                               options.oestimate, ctx));
        out.interval_oe = oe.expected_cracks;
      } else {
        ScopedSpan span(rec_, "estimator.plan_and_estimate");
        ANONSAFE_ASSIGN_OR_RETURN(
            anonsafe::CrackEstimate estimate,
            anonsafe::PlanAndEstimate(groups, model->belief, options.planner,
                                      ctx));
        CountBlocks(estimate.blocks);
        out.interval_oe = estimate.expected_cracks;
        out.interval_exact = estimate.exact;
        out.interval_blocks = std::move(estimate.blocks);
      }
    }
    if (out.interval_oe <= out.crack_budget) {
      out.decision = anonsafe::RecipeDecision::kDiscloseAtInterval;
      return out;
    }
    ScopedSpan search(rec_, "core.alpha_search");
    if (sweep == nullptr || probes == nullptr) {
      ScopedSpan span(rec_, "core.alpha_sweep_build");
      ANONSAFE_ASSIGN_OR_RETURN(
          anonsafe::AlphaCompliancySweep built,
          anonsafe::AlphaCompliancySweep::Create(
              table, model->belief, options.exec.runs, options.exec.seed));
      sweep = std::make_shared<const anonsafe::AlphaCompliancySweep>(
          std::move(built));
      probes =
          std::make_shared<const anonsafe::AlphaCompliancySweep::ProbeCache>(
              sweep->MakeProbeCache(groups));
      art->sweep_seed = options.exec.seed;
      art->sweep_runs = options.exec.runs;
      art->sweep = sweep;
      art->probes = probes;
    }
    double lo = 0.0;
    double hi = 1.0;
    for (size_t iter = 0; iter < options.binary_search_iterations; ++iter) {
      const double mid = (lo + hi) / 2.0;
      ScopedSpan span(rec_, "core.alpha_probe");
      ANONSAFE_ASSIGN_OR_RETURN(
          double avg_oe,
          sweep->AverageOEstimate(groups, *probes, mid, options.oestimate, ctx,
                                  model->weighted() ? &model->weights
                                                    : nullptr));
      if (avg_oe <= out.crack_budget) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    out.alpha_max = lo;
    out.decision = anonsafe::RecipeDecision::kAlphaBound;
    return out;
  }

  void CountBlocks(const std::vector<anonsafe::BlockProvenance>& blocks) {
    using anonsafe::BlockMethod;
    for (const anonsafe::BlockProvenance& b : blocks) {
      switch (b.method) {
        case BlockMethod::kPermanent:
          (*counts_)["blocks_permanent"] += 1;
          break;
        case BlockMethod::kCompleteBipartite:
        case BlockMethod::kChain:
          (*counts_)["blocks_closed_form"] += 1;
          break;
        case BlockMethod::kOEstimate:
        case BlockMethod::kSampler:
          (*counts_)["blocks_oestimate"] += 1;
          break;
        case BlockMethod::kSingleton:
          (*counts_)["blocks_singleton"] += 1;
          break;
      }
    }
  }

  /// The optimizer's release view: the published items as their own
  /// table.
  static Result<anonsafe::FrequencyTable> ReleaseView(
      const anonsafe::FrequencyTable& table) {
    std::vector<anonsafe::SupportCount> alive;
    for (anonsafe::ItemId x = 0; x < table.num_items(); ++x) {
      if (table.support(x) > 0) alive.push_back(table.support(x));
    }
    return anonsafe::FrequencyTable::FromSupports(std::move(alive),
                                                  table.num_transactions());
  }

  struct RiskScore {
    double expected_cracks = 0.0;
    bool exact = true;
    size_t num_components = 0;
    size_t k_anonymity = 0;
    size_t num_groups = 0;
  };

  Result<RiskScore> ScoreRisk(const anonsafe::FrequencyTable& release,
                              const anonsafe::PlannerOptions& planner,
                              exec::ExecContext* ctx) {
    RiskScore score;
    if (release.num_items() == 0) return score;
    std::optional<anonsafe::FrequencyGroups> groups;
    {
      ScopedSpan span(rec_, "data.group_build");
      groups = anonsafe::FrequencyGroups::Build(release);
    }
    score.num_groups = groups->num_groups();
    score.k_anonymity = groups->group_size(0);
    for (size_t g = 1; g < groups->num_groups(); ++g) {
      score.k_anonymity = std::min(score.k_anonymity, groups->group_size(g));
    }
    ANONSAFE_ASSIGN_OR_RETURN(
        anonsafe::BeliefFunction belief,
        anonsafe::MakeCompliantIntervalBelief(release, groups->MedianGap()));
    ScopedSpan span(rec_, "estimator.plan_and_estimate");
    ANONSAFE_ASSIGN_OR_RETURN(
        anonsafe::CrackEstimate estimate,
        anonsafe::PlanAndEstimate(*groups, belief, planner, ctx));
    CountBlocks(estimate.blocks);
    score.expected_cracks = estimate.expected_cracks;
    score.exact = estimate.exact;
    score.num_components = estimate.num_components;
    return score;
  }

  /// RecommendDefense, candidate by candidate on one thread.
  Result<json::Value> Defense(const json::Value& params) {
    namespace defense = anonsafe::defense;
    std::string key;
    ANONSAFE_ASSIGN_OR_RETURN(ResidentDataset * ds, Find(params, &key));
    defense::OptimizerOptions options;
    ANONSAFE_ASSIGN_OR_RETURN(
        double cutoff,
        params.GetNumberOr("ryser_cutoff", static_cast<double>(
                                               options.planner.ryser_cutoff)));
    options.planner.ryser_cutoff = static_cast<size_t>(cutoff);
    ANONSAFE_ASSIGN_OR_RETURN(options.planner.prefer_sampler,
                              params.GetBoolOr("prefer_sampler", false));
    ANONSAFE_ASSIGN_OR_RETURN(exec::ExecOptions eo, ExecFromParams(params));
    exec::ExecContext ctx(eo);
    const uint64_t seed = ctx.seed();
    const anonsafe::Database& db = ds->data.database;

    std::optional<anonsafe::FrequencyTable> before;
    {
      ScopedSpan span(rec_, "data.frequency");
      ANONSAFE_ASSIGN_OR_RETURN(anonsafe::FrequencyTable t,
                                anonsafe::FrequencyTable::Compute(db));
      before = std::move(t);
    }
    defense::DefenseFrontier result;
    result.num_items = before->num_items();
    result.num_transactions = before->num_transactions();
    result.seed = seed;
    {
      ScopedSpan span(rec_, "defense.score");
      anonsafe::PlannerOptions planner = options.planner;
      planner.block_sampler.exec.seed = exec::SplitSeed(seed, 1);
      ANONSAFE_ASSIGN_OR_RETURN(anonsafe::FrequencyTable release,
                                ReleaseView(*before));
      ANONSAFE_ASSIGN_OR_RETURN(RiskScore baseline,
                                ScoreRisk(release, planner, &ctx));
      result.baseline_cracks = baseline.expected_cracks;
      result.baseline_exact = baseline.exact;
      result.baseline_groups = baseline.num_groups;
    }

    struct Pending {
      const defense::DefenseScheme* scheme;
      defense::DefenseParams params;
    };
    std::vector<Pending> pending;
    for (const defense::DefenseScheme* scheme : defense::DefenseScheme::All()) {
      for (defense::DefenseParams& p : scheme->ParamSpace(*before)) {
        pending.push_back(Pending{scheme, std::move(p)});
      }
    }
    (*counts_)["candidates"] += static_cast<double>(pending.size());
    result.candidates.resize(pending.size());
    for (size_t i = 0; i < pending.size(); ++i) {
      const Pending& cand = pending[i];
      defense::CandidateScore& score = result.candidates[i];
      score.index = i;
      score.scheme = cand.scheme->name();
      score.params = cand.params;
      std::optional<Result<defense::DefensePlan>> plan;
      {
        ScopedSpan span(rec_, "defense.plan");
        plan = cand.scheme->Plan(*before, cand.params);
      }
      if (!plan->ok()) {
        if (plan->status().code() ==
            anonsafe::StatusCode::kFailedPrecondition) {
          score.reason = plan->status().message();
          continue;
        }
        return plan->status();
      }
      std::optional<Result<anonsafe::Database>> defended;
      {
        ScopedSpan span(rec_, "defense.apply");
        anonsafe::Rng apply_rng(exec::SplitSeed(seed, 2 * i + 2));
        defended = cand.scheme->Apply(db, **plan, &apply_rng);
      }
      if (!defended->ok()) {
        score.reason = defended->status().message();
        continue;
      }
      std::optional<Result<anonsafe::FrequencyTable>> after;
      {
        ScopedSpan span(rec_, "data.frequency");
        after = anonsafe::FrequencyTable::Compute(**defended);
      }
      if (!after->ok()) {
        score.reason = after->status().message();
        continue;
      }
      {
        ScopedSpan span(rec_, "defense.score");
        ANONSAFE_ASSIGN_OR_RETURN(anonsafe::FrequencyTable release,
                                  ReleaseView(**after));
        anonsafe::PlannerOptions planner = options.planner;
        planner.block_sampler.exec.seed = exec::SplitSeed(seed, 2 * i + 3);
        ANONSAFE_ASSIGN_OR_RETURN(RiskScore risk,
                                  ScoreRisk(release, planner, &ctx));
        score.feasible = true;
        score.plan = std::move(**plan);
        score.expected_cracks = risk.expected_cracks;
        score.exact = risk.exact;
        score.num_components = risk.num_components;
        score.k_anonymity = risk.k_anonymity;
      }
      ScopedSpan span(rec_, "defense.utility");
      score.utility = defense::ComputeUtilityLoss(*before, **after);
      (*counts_)["feasible"] += 1;
    }

    std::vector<size_t> feasible;
    for (size_t i = 0; i < result.candidates.size(); ++i) {
      if (result.candidates[i].feasible) feasible.push_back(i);
    }
    for (size_t i : feasible) {
      const defense::CandidateScore& a = result.candidates[i];
      bool dominated = false;
      for (size_t j : feasible) {
        const defense::CandidateScore& b = result.candidates[j];
        if (i != j && b.expected_cracks <= a.expected_cracks &&
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
                const defense::CandidateScore& a = result.candidates[i];
                const defense::CandidateScore& b = result.candidates[j];
                if (a.expected_cracks != b.expected_cracks) {
                  return a.expected_cracks < b.expected_cracks;
                }
                if (a.utility.total_loss != b.utility.total_loss) {
                  return a.utility.total_loss < b.utility.total_loss;
                }
                return i < j;
              });
    for (size_t i : result.frontier) result.candidates[i].on_frontier = true;

    ScopedSpan span(rec_, "util.json_emit");
    json::Value out = json::Value::Object();
    out.Set("dataset", json::Value(key));
    out.Set("frontier", result.ToJson());
    return out;
  }

  std::map<std::string, double>* counts_;
  SpanRecorder* rec_ = nullptr;
  std::map<std::string, std::unique_ptr<ResidentDataset>> resident_;
};

using CounterSnapshot = std::map<std::string, uint64_t>;

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snap;
  for (const anonsafe::obs::Counter* c :
       anonsafe::obs::MetricsRegistry::Global().counters()) {
    std::string key = c->name();
    for (const auto& [k, v] : c->labels()) key += "," + k + "=" + v;
    snap[key] = c->value();
  }
  return snap;
}

CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after) {
  CounterSnapshot d;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

}  // namespace

TraceOutcome RunTraced(const Workload& w) {
  TraceOutcome out;
  anonsafe::serve::ServerOptions options;
  options.workers = 1;
  anonsafe::serve::Server server(options);
  Replayer replayer(&out.counts);

  // Warm both sides with the lines the TCP warm-up sends.
  auto warm = [&](const std::string& line) {
    const std::string response = server.HandleLine(line);
    Result<std::string> replayed = replayer.Replay(line, nullptr);
    if (response.find("\"ok\":true") == std::string::npos || !replayed.ok()) {
      ++out.failures;
    }
  };
  if (w.churn) {
    warm(w.datasets[w.warm_dataset].load_line);
  } else {
    for (const Dataset& ds : w.datasets) warm(ds.load_line);
  }
  for (const Shape& shape : w.shapes) {
    if (w.churn && shape.dataset != w.warm_dataset) continue;
    warm(shape.line);
  }

  out.counts.clear();  // the warm-up's replays are not measured

  // The measured list, in the clients' order.
  struct Item {
    const std::string* line;
    const Shape* shape;  ///< null for load_dataset lines
  };
  std::vector<Item> list;
  if (w.churn) {
    for (size_t s : w.cycle) {
      const Shape& shape = w.shapes[s];
      list.push_back({&w.datasets[shape.dataset].load_line, nullptr});
      list.push_back({&shape.line, &shape});
    }
  } else if (!w.single_thread_line.empty()) {
    for (int rep = 0; rep < 3; ++rep) {
      list.push_back({&w.single_thread_line, &w.shapes[0]});
    }
  } else {
    // At least 12 requests, at most 24: whole cycles of the first
    // datasets keep the mix while bounding the run.
    while (list.size() < 12) {
      for (size_t s : w.cycle) list.push_back({&w.shapes[s].line, &w.shapes[s]});
    }
    if (list.size() > 24) list.resize(24);
  }

  for (size_t i = 0; i < list.size(); ++i) {
    const Item& item = list[i];
    out.spans.BeginRequest(i);
    const auto t0 = std::chrono::steady_clock::now();
    const std::string response = server.HandleLine(*item.line);
    out.handle_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    if (item.shape != nullptr) {
      const std::string member =
          item.shape->verb == "recommend_defense" ? "frontier" : "report";
      if (ResponseMember(response, member) != item.shape->expected) {
        ++out.failures;
      }
    } else if (response.find("\"ok\":true") == std::string::npos) {
      ++out.failures;
    }
    Result<std::string> replayed = replayer.Replay(*item.line, &out.spans);
    if (!replayed.ok() || *replayed != response) ++out.mismatches;
  }
  out.requests = list.size();
  out.handle_as_sent_ms = Median(out.handle_ms);

  if (!w.single_thread_line.empty()) {
    std::vector<double> wide;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::string response = server.HandleLine(w.shapes[0].line);
      wide.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
      if (ResponseMember(response, "frontier") != w.shapes[0].expected) {
        ++out.failures;
      }
    }
    out.handle_as_sent_ms = Median(wide);
    out.defense_speedup = Median(out.handle_ms) / out.handle_as_sent_ms;
  }

  // Count stability: two more passes over the same lines must move every
  // counter by exactly the same amount.
  CounterSnapshot deltas[2];
  for (CounterSnapshot& delta : deltas) {
    CounterSnapshot before = SnapshotCounters();
    for (const Item& item : list) server.HandleLine(*item.line);
    delta = Delta(before, SnapshotCounters());
  }
  for (const auto& [name, value] : deltas[1]) {
    auto it = deltas[0].find(name);
    if (it == deltas[0].end() || it->second != value) {
      ++out.unstable_counts;
      std::fprintf(stderr, "perfbench: counter %s moved %llu then %llu\n",
                   name.c_str(),
                   static_cast<unsigned long long>(
                       it == deltas[0].end() ? 0 : it->second),
                   static_cast<unsigned long long>(value));
    }
  }
  return out;
}

}  // namespace perfbench
