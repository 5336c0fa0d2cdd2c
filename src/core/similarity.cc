#include "core/similarity.h"

#include "belief/builders.h"
#include "data/sampling.h"
#include "obs/scoped_timer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace anonsafe {

Result<std::vector<SimilarityPoint>> SimilarityBySampling(
    const CountedDatabase& data, const SimilarityOptions& options,
    exec::ExecContext* ctx) {
  if (options.samples_per_fraction == 0) {
    return Status::InvalidArgument("samples_per_fraction must be positive");
  }
  if (options.sample_fractions.empty()) {
    return Status::InvalidArgument("need at least one sample fraction");
  }
  obs::ScopedTimer loop_timer("core.similarity_sampling");
  obs::CountIf("anonsafe_similarity_runs_total");

  Rng rng(options.exec.seed);
  std::vector<SimilarityPoint> curve;
  curve.reserve(options.sample_fractions.size());
  for (double p : options.sample_fractions) {
    if (!(p > 0.0) || p > 1.0) {
      return Status::InvalidArgument("sample fraction outside (0, 1]");
    }
    if (ctx != nullptr && ctx->cancelled()) {
      return Status::Cancelled("similarity sampling cancelled");
    }
    obs::ScopedTimer fraction_timer("core.similarity_fraction");
    if (fraction_timer.tracing()) {
      fraction_timer.Annotate("fraction", TablePrinter::FmtG(p, 4));
    }
    std::vector<double> alphas, deltas, group_counts;
    for (size_t rep = 0; rep < options.samples_per_fraction; ++rep) {
      ANONSAFE_ASSIGN_OR_RETURN(Database picked,
                                SampleFraction(data.database(), p, &rng));
      ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase sample,
                                CountedDatabase::Count(std::move(picked)));
      double delta = 0.0;
      Result<BeliefFunction> belief =
          options.use_average_gap
              ? MakeBeliefFromSampleAverageGap(sample, &delta)
              : MakeBeliefFromSample(sample, &delta);
      ANONSAFE_RETURN_IF_ERROR(belief.status());
      ANONSAFE_ASSIGN_OR_RETURN(double alpha,
                                belief->ComplianceFraction(data.table()));
      alphas.push_back(alpha);
      deltas.push_back(delta);
      group_counts.push_back(
          static_cast<double>(sample.groups().num_groups()));
    }
    SimilarityPoint point;
    point.sample_fraction = p;
    point.mean_alpha = Mean(alphas);
    point.stddev_alpha = SampleStdDev(alphas);
    point.mean_delta = Mean(deltas);
    point.mean_groups = Mean(group_counts);
    if (fraction_timer.tracing()) {
      fraction_timer.Annotate("mean_alpha",
                              TablePrinter::FmtG(point.mean_alpha, 4));
    }
    curve.push_back(point);
  }
  return curve;
}

Result<std::vector<SimilarityPoint>> SimilarityBySampling(
    const Database& db, const SimilarityOptions& options,
    exec::ExecContext* ctx) {
  ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase data, CountedDatabase::Count(db));
  return SimilarityBySampling(data, options, ctx);
}

json::Value SimilarityCurveToJson(const std::vector<SimilarityPoint>& curve) {
  json::Value points = json::Value::Array();
  for (const SimilarityPoint& p : curve) {
    json::Value point = json::Value::Object();
    point.Set("sample_fraction", json::Value(p.sample_fraction));
    point.Set("mean_alpha", json::Value(p.mean_alpha));
    point.Set("stddev_alpha", json::Value(p.stddev_alpha));
    point.Set("mean_delta", json::Value(p.mean_delta));
    point.Set("mean_groups", json::Value(p.mean_groups));
    points.Append(std::move(point));
  }
  return points;
}

std::string SimilarityCurveTable(const std::vector<SimilarityPoint>& curve) {
  TablePrinter t({"sample %", "mean alpha", "stddev", "delta'_med"});
  for (const SimilarityPoint& p : curve) {
    t.AddRow({TablePrinter::Fmt(p.sample_fraction * 100.0, 0),
              TablePrinter::Fmt(p.mean_alpha, 4),
              TablePrinter::Fmt(p.stddev_alpha, 4),
              TablePrinter::FmtG(p.mean_delta)});
  }
  return t.ToString();
}

}  // namespace anonsafe
