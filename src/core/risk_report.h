#ifndef ANONSAFE_CORE_RISK_REPORT_H_
#define ANONSAFE_CORE_RISK_REPORT_H_

#include <string>
#include <vector>

#include "core/recipe.h"
#include "core/similarity.h"
#include "data/database.h"
#include "util/json.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Version of the RiskReport JSON layout. Bumped on any breaking
/// change; `FromJson` rejects documents with a different version so a new
/// client never silently misreads an old server's output (or vice versa).
inline constexpr int64_t kRiskReportSchemaVersion = 1;

/// \brief Options of the composite owner-side risk report.
struct RiskReportOptions {
  RecipeOptions recipe;
  SimilarityOptions similarity;
  bool include_similarity_curve = true;
};

/// \brief Everything a data owner needs to decide the paper's dilemma:
/// dataset statistics, the extreme-case crack counts (Lemmas 1 and 3),
/// the Figure 8 recipe outcome and, optionally, the Figure 13
/// similarity-by-sampling calibration of plausible hacker compliancy.
struct RiskReport {
  size_t num_items = 0;
  size_t num_transactions = 0;
  size_t num_groups = 0;
  size_t num_singleton_groups = 0;
  double median_gap = 0.0;
  double mean_gap = 0.0;

  double ignorant_expected_cracks = 0.0;      ///< Lemma 1 (always 1)
  double point_valued_expected_cracks = 0.0;  ///< Lemma 3 (g)

  RecipeResult recipe;
  std::vector<SimilarityPoint> similarity_curve;

  /// \brief When the recipe returned an α bound and the similarity curve
  /// is present: the smallest sampled fraction whose mean compliancy
  /// reaches α_max (0 when none does). A small value warns the owner that
  /// modest "similar data" already breaches the tolerance.
  double breaching_sample_fraction = 0.0;

  /// \brief Renders the full report as readable text (tables + verdict).
  std::string ToText() const;

  /// \brief Renders the report as GitHub-flavored Markdown (for pasting
  /// into reviews or data-release tickets).
  std::string ToMarkdown() const;

  /// \brief The single JSON encoding of a report, used verbatim by both
  /// the one-shot CLI (`report --json`) and the serve protocol — there is
  /// deliberately no second emitter, so the two surfaces are
  /// bit-identical by construction. Carries `schema_version`.
  json::Value ToJson() const;

  /// \brief Parses a `ToJson` document. Rejects a missing or different
  /// `schema_version` and missing/ill-typed fields with InvalidArgument.
  static Result<RiskReport> FromJson(const json::Value& v);
};

/// \brief Computes the composite report for a database the owner intends
/// to anonymize and release, reading its table and groups from `data`.
///
/// `ctx` (optional) is observed for cooperative cancellation and is
/// passed through to the recipe and the similarity sweep; `artifacts`
/// (optional) caches recipe work across repeated calls on the same
/// dataset (see RecipeArtifacts).
Result<RiskReport> BuildRiskReport(const CountedDatabase& data,
                                   const RiskReportOptions& options = {},
                                   exec::ExecContext* ctx = nullptr,
                                   RecipeArtifacts* artifacts = nullptr);

/// \brief Counts a copy of `db` once, then builds the same report.
Result<RiskReport> BuildRiskReport(const Database& db,
                                   const RiskReportOptions& options = {});

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_RISK_REPORT_H_
