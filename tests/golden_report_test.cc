// Golden bytes of the risk pipeline. Every other byte-identity check
// compares two surfaces of the same code (CLI vs serve, 1 vs 8 threads,
// model vs belief), so a refactor that moves the last bit of an
// O-estimate passes all of them. This test recomputes a fixed set of
// rows and byte-compares each one with tests/golden/report_rows.txt:
//
//  - BuildRiskReport(...).ToJson().Dump() on deterministic stand-ins,
//    for every adversary and every estimator at tolerances that stop at
//    each Fig. 8 step (refusals are pinned as `error:` rows);
//  - AssessRiskForItems on partial masks (RecipeResult fields);
//  - the cached α-sweep average, with and without adversary weights;
//  - the O-estimate with propagation off;
//  - RecommendDefense(...).ToJson().Dump() at one thread (also on a
//    singleton-transaction fixture whose merges fail in Apply), and the
//    group_merge tolerance and k_anonymity plans with their supports.
//
// Each row also records how far the work counters moved, which pins the
// same work along with the same answer.
//
// Regenerate (only when an output change is intended) with
//   ANONSAFE_GOLDEN_OUT=rows.txt ./build/tests/golden_report_test
// and copy the file over the fixture.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/risk_report.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "exec/exec.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

constexpr const char* kCounters[] = {
    "anonsafe_oestimate_runs_total", "anonsafe_alpha_probes_total",
    "anonsafe_stab_cache_hits_total", "anonsafe_propagation_passes_total"};

std::vector<uint64_t> ReadCounters() {
  std::vector<uint64_t> values;
  for (const char* name : kCounters) {
    values.push_back(obs::MetricsRegistry::Global().GetCounter(name)->value());
  }
  return values;
}

struct StandIn {
  std::string name;
  Database db;
  FrequencyTable table;
  FrequencyGroups groups;
};

StandIn MakeStandIn(const std::string& name, Benchmark benchmark,
                    uint64_t seed, double scale) {
  Rng rng(seed);
  Database db = *MakeBenchmarkDatabase(benchmark, &rng, scale);
  FrequencyTable table = *FrequencyTable::Compute(db);
  FrequencyGroups groups = FrequencyGroups::Build(table);
  return {name, std::move(db), std::move(table), std::move(groups)};
}

std::string Num(double v) { return json::NumberToString(v); }

std::string RecipeFields(const RecipeResult& r) {
  std::ostringstream oss;
  oss << "decision=" << ToString(r.decision) << " num_items=" << r.num_items
      << " num_groups=" << r.num_groups << " delta_med=" << Num(r.delta_med)
      << " interval_oe=" << Num(r.interval_oe)
      << " alpha_max=" << Num(r.alpha_max)
      << " tolerance=" << Num(r.tolerance)
      << " crack_budget=" << Num(r.crack_budget)
      << " estimator=" << EstimatorKindName(r.estimator)
      << " adversary=" << r.adversary
      << " params=" << r.adversary_params.ToString()
      << " interval_exact=" << r.interval_exact
      << " blocks=" << r.interval_blocks.size();
  return oss.str();
}

std::string OEstimateFields(const OEstimateResult& oe) {
  std::ostringstream oss;
  oss << "expected_cracks=" << Num(oe.expected_cracks)
      << " forced=" << oe.forced_items << " dead=" << oe.dead_items
      << " contradiction=" << oe.contradiction
      << " passes=" << oe.propagation_passes
      << " fraction=" << Num(oe.fraction);
  return oss.str();
}

/// One fixture line: `name <TAB> counter deltas <TAB> payload`. JSON
/// dumps escape control characters, so a payload never holds a tab or a
/// newline.
class RowWriter {
 public:
  void Add(const std::string& name,
           const std::function<std::string()>& compute) {
    const std::vector<uint64_t> before = ReadCounters();
    const std::string payload = compute();
    const std::vector<uint64_t> after = ReadCounters();
    std::string deltas;
    for (size_t i = 0; i < before.size(); ++i) {
      if (i > 0) deltas += ',';
      deltas += std::to_string(after[i] - before[i]);
    }
    rows_.emplace_back(name, name + '\t' + deltas + '\t' + payload);
  }
  const std::vector<std::pair<std::string, std::string>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> rows_;
};

void AddReportRows(const StandIn& s, const std::vector<double>& tolerances,
                   RowWriter* w) {
  for (const char* spec :
       {"interval", "probabilistic:span=2,sigma=1", "exact_support:k=2"}) {
    for (const char* estimator : {"oe", "auto", "exact", "sampler"}) {
      for (double tau : tolerances) {
        const std::string name = "report/" + s.name + "/" + spec + "/" +
                                 estimator + "/tau=" + Num(tau);
        w->Add(name, [&]() -> std::string {
          RiskReportOptions options;
          options.include_similarity_curve = false;
          options.recipe.tolerance = tau;
          options.recipe.estimator = *ParseEstimatorKind(estimator);
          auto parsed = adversary::ParseAdversarySpec(spec);
          options.recipe.adversary = parsed->name;
          options.recipe.adversary_params = parsed->params;
          auto report = BuildRiskReport(s.db, options);
          if (!report.ok()) return "error: " + report.status().ToString();
          return report->ToJson().Dump();
        });
      }
    }
  }
}

/// The one-thread defense sweep.
void AddRecommendRow(const std::string& name, const Database& db,
                     RowWriter* w) {
  w->Add("defense/" + name + "/recommend", [&]() -> std::string {
    exec::ExecOptions eo;
    eo.threads = 1;
    exec::ExecContext ctx(eo);
    auto frontier = defense::RecommendDefense(db, {}, &ctx);
    if (!frontier.ok()) return "error: " + frontier.status().ToString();
    return frontier->ToJson().Dump();
  });
}

/// The sweep, and single plans of the two bisecting schemes (the
/// payload adds the planned supports, which the plan JSON summarizes
/// away).
void AddDefenseRows(const StandIn& s, RowWriter* w) {
  AddRecommendRow(s.name, s.db, w);
  const double n = static_cast<double>(s.table.num_items());
  const std::vector<std::pair<const char*, defense::DefenseParams>> plans = [&] {
    std::vector<std::pair<const char*, defense::DefenseParams>> v;
    for (double tau : {0.5, 0.1, 0.01}) {
      for (bool point_valued : {false, true}) {
        defense::DefenseParams p;
        p.Set("tolerance", tau);
        if (point_valued) p.Set("point_valued", 1.0);
        v.emplace_back("group_merge", std::move(p));
      }
    }
    for (double k : {2.0, 8.0, n, n + 1.0}) {
      defense::DefenseParams p;
      p.Set("k", k);
      v.emplace_back("k_anonymity", std::move(p));
    }
    return v;
  }();
  for (const auto& [scheme, params] : plans) {
    w->Add("plan/" + s.name + "/" + scheme + "/" + params.ToString(),
           [&]() -> std::string {
             auto plan = defense::DefenseScheme::Find(scheme)->Plan(s.table,
                                                                    params);
             if (!plan.ok()) return "error: " + plan.status().ToString();
             std::string supports;
             for (SupportCount c : plan->new_supports) {
               if (!supports.empty()) supports += ',';
               supports += std::to_string(c);
             }
             return plan->ToJson().Dump() + " supports=" + supports;
           });
  }
}

std::vector<std::pair<std::string, std::string>> ComputeRows() {
  RowWriter w;
  const StandIn connect = MakeStandIn("connect", Benchmark::kConnect, 3, 0.05);
  const StandIn mushroom =
      MakeStandIn("mushroom", Benchmark::kMushroom, 5, 0.1);
  const StandIn chess = MakeStandIn("chess", Benchmark::kChess, 7, 0.1);

  // CONNECT ×0.05: n=130, g=125; interval OE 68.5 (interval), 50.7
  // (probabilistic), 3 (exact_support). τ=0.97 stops at step 2, 0.6 at
  // step 7 for every adversary, 0.1 is the benchmark's request shape and
  // 0.01 sends every adversary into the α bisection.
  AddReportRows(connect, {0.97, 0.6, 0.1, 0.01}, &w);
  // MUSHROOM ×0.1: n=120, g=90; interval OE 52.4 / 36.6 / 3.
  AddReportRows(mushroom, {0.8, 0.5, 0.02}, &w);

  w.Add("report/chess/interval/oe/similarity_curve", [&]() -> std::string {
    RiskReportOptions options;
    options.recipe.tolerance = 0.01;
    options.similarity.samples_per_fraction = 2;
    auto report = BuildRiskReport(chess.db, options);
    if (!report.ok()) return "error: " + report.status().ToString();
    return report->ToJson().Dump();
  });

  // Items of interest: every third item, and the 40 lowest item ids.
  const size_t n = connect.table.num_items();
  std::vector<std::pair<std::string, std::vector<bool>>> masks(2);
  masks[0].first = "every3";
  masks[1].first = "first40";
  for (size_t x = 0; x < n; ++x) {
    masks[0].second.push_back(x % 3 == 0);
    masks[1].second.push_back(x < 40);
  }
  for (const auto& [mask_name, mask] : masks) {
    for (double tau : {0.6, 0.1}) {
      w.Add("items/connect/" + mask_name + "/tau=" + Num(tau),
            [&]() -> std::string {
              RecipeOptions options;
              options.tolerance = tau;
              auto result = AssessRiskForItems(connect.table, mask, options);
              if (!result.ok()) return "error: " + result.status().ToString();
              return RecipeFields(*result);
            });
    }
  }

  // The cached α-sweep average over the δ_med interval belief, and over
  // the probabilistic adversary's belief with its weights.
  const double delta = connect.groups.MedianGap();
  const BeliefFunction base =
      *MakeCompliantIntervalBelief(connect.table, delta);
  adversary::AdversaryParams prob_params;
  prob_params.Set("span", 2.0);
  prob_params.Set("sigma", 1.0);
  const adversary::AdversaryModel model =
      *adversary::Adversary::Find("probabilistic")
           ->Bind(connect.table, connect.groups, delta, prob_params);
  const AlphaCompliancySweep sweep =
      *AlphaCompliancySweep::Create(connect.table, base, 5, 7);
  const AlphaCompliancySweep weighted_sweep =
      *AlphaCompliancySweep::Create(connect.table, model.belief, 5, 7);
  for (double alpha : {0.25, 0.5, 0.8125, 1.0}) {
    w.Add("sweep/connect/alpha=" + Num(alpha), [&]() -> std::string {
      const AlphaCompliancySweep::ProbeCache cache =
          sweep.MakeProbeCache(connect.groups);
      auto avg = sweep.AverageOEstimate(connect.groups, cache, alpha);
      return avg.ok() ? Num(*avg) : "error: " + avg.status().ToString();
    });
    w.Add("sweep/connect/weighted/alpha=" + Num(alpha), [&]() -> std::string {
      const AlphaCompliancySweep::ProbeCache cache =
          weighted_sweep.MakeProbeCache(connect.groups);
      auto avg = weighted_sweep.AverageOEstimate(connect.groups, cache, alpha,
                                                 {}, nullptr, &model.weights);
      return avg.ok() ? Num(*avg) : "error: " + avg.status().ToString();
    });
  }

  AddDefenseRows(connect, &w);
  AddDefenseRows(mushroom, &w);
  // Item i alone in 3(i+1) singleton transactions: every holder has
  // size 1, so each merge candidate that lowers a support fails in
  // Apply ("cannot lower support of item N without emptying
  // transactions") while suppression empties transactions instead.
  Database singletons(12);
  for (ItemId x = 0; x < 12; ++x) {
    for (size_t t = 0; t < 3 * (x + 1); ++t) {
      singletons.AddTransactionUnchecked({x});
    }
  }
  AddRecommendRow("singletons", singletons, &w);

  for (const StandIn* s : {&connect, &mushroom}) {
    w.Add("oestimate/" + s->name + "/no_propagation", [&]() -> std::string {
      const BeliefFunction belief =
          *MakeCompliantIntervalBelief(s->table, s->groups.MedianGap());
      OEstimateOptions options;
      options.propagate = false;
      auto oe = ComputeOEstimate(s->groups, belief, options);
      return oe.ok() ? OEstimateFields(*oe)
                     : "error: " + oe.status().ToString();
    });
  }
  return w.rows();
}

std::map<std::string, std::string> ReadFixture() {
  std::map<std::string, std::string> rows;
  std::ifstream in(ANONSAFE_GOLDEN_FIXTURE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows[line.substr(0, line.find('\t'))] = line;
  }
  return rows;
}

TEST(GoldenReportTest, EveryRowMatchesFixture) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const std::vector<std::pair<std::string, std::string>> rows = ComputeRows();
  obs::SetMetricsEnabled(metrics_were_enabled);

  if (const char* out_path = std::getenv("ANONSAFE_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    for (const auto& [name, line] : rows) out << line << '\n';
    GTEST_SKIP() << "wrote " << rows.size() << " rows to " << out_path;
  }

  const std::map<std::string, std::string> fixture = ReadFixture();
  ASSERT_FALSE(fixture.empty()) << "missing " << ANONSAFE_GOLDEN_FIXTURE;
  EXPECT_EQ(rows.size(), fixture.size());
  for (const auto& [name, line] : rows) {
    auto it = fixture.find(name);
    ASSERT_NE(it, fixture.end()) << "row not in fixture: " << name;
    EXPECT_EQ(line, it->second) << "row " << name;
  }
}

}  // namespace
}  // namespace anonsafe
