#include "core/risk_report.h"

#include <cmath>
#include <sstream>

#include "core/exact_formulas.h"
#include "util/table_printer.h"

namespace anonsafe {
namespace {

/// A count field of a report document: a whole number in [0, 2^53], the
/// range where a JSON number holds every integer exactly.
Result<size_t> GetCount(const json::Value& v, const std::string& field) {
  ANONSAFE_ASSIGN_OR_RETURN(double value, v.GetNumber(field));
  if (!(value >= 0.0 && value <= 9007199254740992.0) ||
      value != std::floor(value)) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be a whole number in [0, 2^53], "
                                   "got " + json::NumberToString(value));
  }
  return static_cast<size_t>(value);
}

}  // namespace

std::string RiskReport::ToText() const {
  std::ostringstream oss;
  oss << "=== Disclosure Risk Report ===\n\n";

  TablePrinter stats({"statistic", "value"});
  stats.AddRow({"items (n)", TablePrinter::Fmt(num_items)});
  stats.AddRow({"transactions (m)", TablePrinter::Fmt(num_transactions)});
  stats.AddRow({"frequency groups (g)", TablePrinter::Fmt(num_groups)});
  stats.AddRow({"singleton groups", TablePrinter::Fmt(num_singleton_groups)});
  stats.AddRow({"median frequency gap", TablePrinter::FmtG(median_gap)});
  stats.AddRow({"mean frequency gap", TablePrinter::FmtG(mean_gap)});
  oss << stats.ToString() << '\n';

  TablePrinter extremes({"hacker prior", "expected cracks", "fraction"});
  extremes.AddRow({"ignorant (Lemma 1)",
                   TablePrinter::Fmt(ignorant_expected_cracks, 2),
                   TablePrinter::FmtG(ignorant_expected_cracks /
                                      static_cast<double>(num_items))});
  extremes.AddRow({"point-valued, compliant (Lemma 3)",
                   TablePrinter::Fmt(point_valued_expected_cracks, 2),
                   TablePrinter::FmtG(point_valued_expected_cracks /
                                      static_cast<double>(num_items))});
  extremes.AddRow({"interval delta_med, compliant (O-est.)",
                   TablePrinter::Fmt(recipe.interval_oe, 2),
                   TablePrinter::FmtG(recipe.interval_oe /
                                      static_cast<double>(num_items))});
  oss << extremes.ToString() << '\n';

  oss << "Recipe (Fig. 8) decision: " << ToString(recipe.decision) << '\n'
      << recipe.Summary() << "\n\n";

  if (!similarity_curve.empty()) {
    oss << "Similarity by sampling (Fig. 13):\n"
        << SimilarityCurveTable(similarity_curve) << '\n';
    if (recipe.decision == RecipeDecision::kAlphaBound) {
      if (breaching_sample_fraction > 0.0) {
        oss << "WARNING: a sample of only "
            << TablePrinter::Fmt(breaching_sample_fraction * 100.0, 0)
            << "% of the data already yields compliancy >= alpha_max="
            << TablePrinter::Fmt(recipe.alpha_max, 3)
            << "; similar data in a competitor's hands would breach the "
            << "tolerance. Recommendation: DO NOT DISCLOSE.\n";
      } else {
        oss << "No sampled fraction reaches alpha_max="
            << TablePrinter::Fmt(recipe.alpha_max, 3)
            << "; a hacker would need better-than-similar data to breach "
            << "the tolerance.\n";
      }
    }
  }
  return oss.str();
}

std::string RiskReport::ToMarkdown() const {
  std::ostringstream oss;
  oss << "## Disclosure risk report\n\n"
      << "| statistic | value |\n|---|---|\n"
      << "| items (n) | " << num_items << " |\n"
      << "| transactions (m) | " << num_transactions << " |\n"
      << "| frequency groups (g) | " << num_groups << " |\n"
      << "| singleton groups | " << num_singleton_groups << " |\n"
      << "| median frequency gap | " << TablePrinter::FmtG(median_gap)
      << " |\n\n";
  oss << "| hacker prior | expected cracks | fraction |\n|---|---|---|\n"
      << "| ignorant (Lemma 1) | "
      << TablePrinter::Fmt(ignorant_expected_cracks, 2) << " | "
      << TablePrinter::FmtG(ignorant_expected_cracks /
                            static_cast<double>(num_items), 3)
      << " |\n"
      << "| point-valued (Lemma 3) | "
      << TablePrinter::Fmt(point_valued_expected_cracks, 2) << " | "
      << TablePrinter::FmtG(point_valued_expected_cracks /
                            static_cast<double>(num_items), 3)
      << " |\n"
      << "| interval delta_med (O-estimate) | "
      << TablePrinter::Fmt(recipe.interval_oe, 2) << " | "
      << TablePrinter::FmtG(recipe.interval_oe /
                            static_cast<double>(num_items), 3)
      << " |\n\n";
  oss << "**Recipe decision (Fig. 8):** `" << ToString(recipe.decision)
      << "` — " << recipe.Summary() << "\n";
  if (!similarity_curve.empty()) {
    oss << "\n| sample % | mean alpha | stddev |\n|---|---|---|\n";
    for (const SimilarityPoint& p : similarity_curve) {
      oss << "| " << TablePrinter::Fmt(p.sample_fraction * 100.0, 0)
          << " | " << TablePrinter::Fmt(p.mean_alpha, 4) << " | "
          << TablePrinter::Fmt(p.stddev_alpha, 4) << " |\n";
    }
  }
  return oss.str();
}

json::Value RiskReport::ToJson() const {
  json::Value v = json::Value::Object();
  v.Set("schema_version", json::Value(kRiskReportSchemaVersion));
  v.Set("num_items", json::Value(uint64_t{num_items}));
  v.Set("num_transactions", json::Value(uint64_t{num_transactions}));
  v.Set("num_groups", json::Value(uint64_t{num_groups}));
  v.Set("num_singleton_groups", json::Value(uint64_t{num_singleton_groups}));
  v.Set("median_gap", json::Value(median_gap));
  v.Set("mean_gap", json::Value(mean_gap));
  v.Set("ignorant_expected_cracks", json::Value(ignorant_expected_cracks));
  v.Set("point_valued_expected_cracks",
        json::Value(point_valued_expected_cracks));

  json::Value r = json::Value::Object();
  r.Set("decision", json::Value(ToString(recipe.decision)));
  r.Set("num_items", json::Value(uint64_t{recipe.num_items}));
  r.Set("num_groups", json::Value(uint64_t{recipe.num_groups}));
  r.Set("delta_med", json::Value(recipe.delta_med));
  r.Set("interval_oe", json::Value(recipe.interval_oe));
  r.Set("alpha_max", json::Value(recipe.alpha_max));
  r.Set("tolerance", json::Value(recipe.tolerance));
  r.Set("crack_budget", json::Value(recipe.crack_budget));
  r.Set("estimator", json::Value(EstimatorKindName(recipe.estimator)));
  // Adversary provenance arrived with the adversary registry; the
  // default interval adversary with no params is omitted so documents
  // from the historical pipeline stay byte-identical.
  if (recipe.adversary != "interval" ||
      !recipe.adversary_params.values.empty()) {
    r.Set("adversary", json::Value(recipe.adversary));
    r.Set("adversary_params", recipe.adversary_params.ToJson());
  }
  r.Set("interval_exact", json::Value(recipe.interval_exact));
  if (!recipe.interval_blocks.empty()) {
    json::Value blocks = json::Value::Array();
    for (const BlockProvenance& b : recipe.interval_blocks) {
      json::Value block = json::Value::Object();
      block.Set("block", json::Value(uint64_t{b.block}));
      block.Set("size", json::Value(uint64_t{b.size}));
      block.Set("num_edges", json::Value(uint64_t{b.num_edges}));
      block.Set("method", json::Value(BlockMethodName(b.method)));
      block.Set("cost", json::Value(b.cost));
      block.Set("expected_cracks", json::Value(b.expected_cracks));
      block.Set("exact", json::Value(b.exact));
      blocks.Append(std::move(block));
    }
    r.Set("interval_blocks", std::move(blocks));
  }
  v.Set("recipe", std::move(r));

  v.Set("similarity_curve", SimilarityCurveToJson(similarity_curve));
  v.Set("breaching_sample_fraction", json::Value(breaching_sample_fraction));
  return v;
}

Result<RiskReport> RiskReport::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("risk report JSON must be an object");
  }
  ANONSAFE_ASSIGN_OR_RETURN(double version, v.GetNumber("schema_version"));
  if (version != static_cast<double>(kRiskReportSchemaVersion)) {
    return Status::InvalidArgument(
        "unsupported risk report schema_version " +
        json::NumberToString(version) + " (expected " +
        std::to_string(kRiskReportSchemaVersion) + ")");
  }

  RiskReport report;
  ANONSAFE_ASSIGN_OR_RETURN(report.num_items, GetCount(v, "num_items"));
  ANONSAFE_ASSIGN_OR_RETURN(report.num_transactions,
                            GetCount(v, "num_transactions"));
  ANONSAFE_ASSIGN_OR_RETURN(report.num_groups, GetCount(v, "num_groups"));
  ANONSAFE_ASSIGN_OR_RETURN(report.num_singleton_groups,
                            GetCount(v, "num_singleton_groups"));
  ANONSAFE_ASSIGN_OR_RETURN(report.median_gap, v.GetNumber("median_gap"));
  ANONSAFE_ASSIGN_OR_RETURN(report.mean_gap, v.GetNumber("mean_gap"));
  ANONSAFE_ASSIGN_OR_RETURN(report.ignorant_expected_cracks,
                            v.GetNumber("ignorant_expected_cracks"));
  ANONSAFE_ASSIGN_OR_RETURN(report.point_valued_expected_cracks,
                            v.GetNumber("point_valued_expected_cracks"));

  const json::Value* r = v.Find("recipe");
  if (r == nullptr || !r->is_object()) {
    return Status::InvalidArgument("risk report JSON lacks 'recipe' object");
  }
  ANONSAFE_ASSIGN_OR_RETURN(std::string decision, r->GetString("decision"));
  if (!RecipeDecisionFromString(decision, &report.recipe.decision)) {
    return Status::InvalidArgument("unknown recipe decision '" + decision +
                                   "'");
  }
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.num_items,
                            GetCount(*r, "num_items"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.num_groups,
                            GetCount(*r, "num_groups"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.delta_med,
                            r->GetNumber("delta_med"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.interval_oe,
                            r->GetNumber("interval_oe"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.alpha_max,
                            r->GetNumber("alpha_max"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.tolerance,
                            r->GetNumber("tolerance"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.crack_budget,
                            r->GetNumber("crack_budget"));
  // Estimator provenance arrived with the planner; reports written before
  // it default to the historical O-estimate.
  ANONSAFE_ASSIGN_OR_RETURN(std::string estimator_name,
                            r->GetStringOr("estimator", "oe"));
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.estimator,
                            ParseEstimatorKind(estimator_name));
  // Adversary provenance is omitted for the default interval adversary
  // (and by documents that predate the registry).
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.adversary,
                            r->GetStringOr("adversary", "interval"));
  if (const json::Value* ap = r->Find("adversary_params"); ap != nullptr) {
    ANONSAFE_ASSIGN_OR_RETURN(report.recipe.adversary_params,
                              adversary::AdversaryParams::FromJson(*ap));
  }
  ANONSAFE_ASSIGN_OR_RETURN(report.recipe.interval_exact,
                            r->GetBoolOr("interval_exact", false));
  if (const json::Value* blocks = r->Find("interval_blocks");
      blocks != nullptr && blocks->is_array()) {
    for (const json::Value& block : blocks->items()) {
      BlockProvenance b;
      ANONSAFE_ASSIGN_OR_RETURN(b.block, GetCount(block, "block"));
      ANONSAFE_ASSIGN_OR_RETURN(b.size, GetCount(block, "size"));
      ANONSAFE_ASSIGN_OR_RETURN(b.num_edges, GetCount(block, "num_edges"));
      ANONSAFE_ASSIGN_OR_RETURN(std::string method,
                                block.GetString("method"));
      ANONSAFE_ASSIGN_OR_RETURN(b.method, ParseBlockMethod(method));
      ANONSAFE_ASSIGN_OR_RETURN(b.cost, block.GetNumber("cost"));
      ANONSAFE_ASSIGN_OR_RETURN(b.expected_cracks,
                                block.GetNumber("expected_cracks"));
      ANONSAFE_ASSIGN_OR_RETURN(b.exact, block.GetBoolOr("exact", true));
      report.recipe.interval_blocks.push_back(std::move(b));
    }
  }

  const json::Value* curve = v.Find("similarity_curve");
  if (curve == nullptr || !curve->is_array()) {
    return Status::InvalidArgument(
        "risk report JSON lacks 'similarity_curve' array");
  }
  for (const json::Value& point : curve->items()) {
    SimilarityPoint p;
    ANONSAFE_ASSIGN_OR_RETURN(p.sample_fraction,
                              point.GetNumber("sample_fraction"));
    ANONSAFE_ASSIGN_OR_RETURN(p.mean_alpha, point.GetNumber("mean_alpha"));
    ANONSAFE_ASSIGN_OR_RETURN(p.stddev_alpha,
                              point.GetNumber("stddev_alpha"));
    ANONSAFE_ASSIGN_OR_RETURN(p.mean_delta, point.GetNumber("mean_delta"));
    ANONSAFE_ASSIGN_OR_RETURN(p.mean_groups, point.GetNumber("mean_groups"));
    report.similarity_curve.push_back(p);
  }
  ANONSAFE_ASSIGN_OR_RETURN(report.breaching_sample_fraction,
                            v.GetNumber("breaching_sample_fraction"));
  return report;
}

Result<RiskReport> BuildRiskReport(const CountedDatabase& data,
                                   const RiskReportOptions& options,
                                   exec::ExecContext* ctx,
                                   RecipeArtifacts* artifacts) {
  const FrequencyGroups& groups = data.groups();
  RiskReport report;
  report.num_items = data.database().num_items();
  report.num_transactions = data.database().num_transactions();
  report.num_groups = groups.num_groups();
  report.num_singleton_groups = groups.num_singleton_groups();
  report.median_gap = groups.MedianGap();
  report.mean_gap = groups.GapSummary().mean;
  report.ignorant_expected_cracks = IgnorantExpectedCracks(report.num_items);
  report.point_valued_expected_cracks = PointValuedExpectedCracks(groups);

  ANONSAFE_ASSIGN_OR_RETURN(report.recipe,
                            AssessRisk(data, options.recipe, ctx, artifacts));

  if (options.include_similarity_curve) {
    ANONSAFE_ASSIGN_OR_RETURN(
        report.similarity_curve,
        SimilarityBySampling(data, options.similarity, ctx));
    if (report.recipe.decision == RecipeDecision::kAlphaBound) {
      for (const SimilarityPoint& p : report.similarity_curve) {
        if (p.mean_alpha >= report.recipe.alpha_max) {
          report.breaching_sample_fraction = p.sample_fraction;
          break;
        }
      }
    }
  }
  return report;
}

Result<RiskReport> BuildRiskReport(const Database& db,
                                   const RiskReportOptions& options) {
  ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase data, CountedDatabase::Count(db));
  return BuildRiskReport(data, options);
}

}  // namespace anonsafe
