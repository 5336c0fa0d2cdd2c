#ifndef ANONSAFE_CORE_SIMILARITY_H_
#define ANONSAFE_CORE_SIMILARITY_H_

#include <string>
#include <vector>

#include "data/frequency.h"
#include "exec/exec.h"
#include "util/json.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Options of the Similarity-by-Sampling procedure (Figure 13).
struct SimilarityOptions {
  /// Sample sizes p as fractions of the database.
  std::vector<double> sample_fractions = {0.01, 0.05, 0.10, 0.20, 0.30,
                                          0.40, 0.50, 0.60, 0.70, 0.80,
                                          0.90};

  /// Samples averaged per fraction (the paper uses 10).
  size_t samples_per_fraction = 10;

  /// Shared execution knobs (master seed, default 11).
  exec::ExecOptions exec{.seed = 11};

  /// When true, interval widths use the *sampled average* gap instead of
  /// the sampled median — the variant Section 7.4 shows saturates at
  /// compliancy ≈ 0.99 and is therefore misleading.
  bool use_average_gap = false;
};

/// \brief One point of the compliancy-vs-sample-size curve (Figure 12).
struct SimilarityPoint {
  double sample_fraction = 0.0;
  double mean_alpha = 0.0;    ///< average degree of compliancy α_p
  double stddev_alpha = 0.0;  ///< sample stddev across the repetitions
  double mean_delta = 0.0;    ///< average sampled interval width δ'_med
  double mean_groups = 0.0;   ///< average #frequency groups in the sample
};

/// \brief Runs Figure 13: for each sample size, draws transaction samples,
/// builds the belief function a similar-data holder would (frequencies
/// from the sample, width = sampled median gap), and measures its degree
/// of compliancy against the full database.
///
/// The owner reads the resulting curve together with the recipe's α_max:
/// if a modest sample already achieves α above α_max, "similar data"
/// suffices to breach the tolerance and the owner should not disclose.
///
/// `ctx` (optional) is observed for cooperative cancellation between
/// fractions; values never depend on it (the sampling RNG is private).
Result<std::vector<SimilarityPoint>> SimilarityBySampling(
    const CountedDatabase& data, const SimilarityOptions& options = {},
    exec::ExecContext* ctx = nullptr);

/// \brief Counts a copy of `db` once, then runs the same sweep.
Result<std::vector<SimilarityPoint>> SimilarityBySampling(
    const Database& db, const SimilarityOptions& options = {},
    exec::ExecContext* ctx = nullptr);

/// \brief The curve as a JSON array of point objects: serve
/// `similarity`'s `curve` and the report's `similarity_curve`.
json::Value SimilarityCurveToJson(const std::vector<SimilarityPoint>& curve);

/// \brief The curve as a text table (sample %, mean alpha, stddev,
/// delta'_med): the `similarity` command and the text report.
std::string SimilarityCurveTable(const std::vector<SimilarityPoint>& curve);

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_SIMILARITY_H_
