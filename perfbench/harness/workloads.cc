#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <thread>

#include "core/risk_report.h"
#include "datagen/benchmark_profiles.h"
#include "datagen/profile.h"
#include "defense/optimizer.h"
#include "exec/exec.h"
#include "serve/dataset_cache.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using anonsafe::Benchmark;
namespace json = anonsafe::json;

/// Input sizes. A hot workload spreads its requests over several resident
/// stand-ins with different frequency profiles, so no single profile's
/// quirks stand for the whole layer. The churn pool outgrows the server's
/// 8-entry dataset cache by three entries per connection: a dataset's last
/// touch (its assess) can trail its load by a few other connections'
/// loads, and it must still be evicted before it comes round again.
struct Sizes {
  double connect_full = 0.05;
  size_t full_datasets = 8;
  double pumsb_recipe = 0.2;
  size_t recipe_datasets = 6;
  double connect_churn = 0.05;
  size_t churn_pool = 0;  ///< set from the connection count
  double connect_defense = 0.05;
  size_t defense_datasets = 4;
};

Sizes SizesFor(bool smoke, size_t connections) {
  Sizes s;
  s.churn_pool = 8 + 3 * connections;
  if (smoke) {
    s.connect_full = 0.01;
    s.full_datasets = 1;
    s.pumsb_recipe = 0.02;
    s.recipe_datasets = 1;
    s.defense_datasets = 1;
    s.connect_churn = 0.01;
    s.connect_defense = 0.02;
  }
  return s;
}

/// Calibration seed of the stand-in frequency profiles.
constexpr uint64_t kProfileSeed = 2005;

/// Recipe tolerances. On the PUMSB x0.2 stand-ins g/n is about 0.31 and
/// the interval O-estimate about 0.16 n, so 0.2 stops at the interval
/// check (step 7) and the others run the full alpha bisection.
constexpr double kRecipeTolerances[] = {0.2, 0.02, 0.05, 0.1};
constexpr double kAutoTolerance = 0.1;
/// One `estimator:auto` request per this many recipe requests.
constexpr size_t kRecipeCycle = 12;

std::string Envelope(const std::string& verb, json::Value params) {
  json::Value v = json::Value::Object();
  v.Set("schema_version", json::Value(int64_t{2}));
  v.Set("id", json::Value(int64_t{1}));
  v.Set("verb", json::Value(verb));
  v.Set("params", std::move(params));
  return v.Dump();
}

/// The stand-in pipeline of `MakeBenchmarkDatabase` (calibrated profile,
/// scaled, realized as transactions) with its two draws split: the
/// frequency profile comes from `profile_seed`, fixed per dataset slot,
/// and the transactions from `seed`, the run's. Risk work depends on the
/// frequency structure alone, so fixing it keeps one seed's draw of an
/// unusually hard structure (a large Ryser block, say) from swinging the
/// figures, while every seed still sends different databases.
bool MakeDataset(Benchmark b, double scale, uint64_t profile_seed,
                 uint64_t seed, Dataset* out, std::string* error) {
  anonsafe::Rng profile_rng(profile_seed);
  auto profile = anonsafe::MakeBenchmarkProfile(b, &profile_rng);
  if (profile.ok()) profile = profile->Scaled(scale);
  if (!profile.ok()) {
    *error = profile.status().ToString();
    return false;
  }
  anonsafe::Rng rng(seed);
  auto db = anonsafe::GenerateDatabase(*profile, &rng);
  if (!db.ok()) {
    *error = db.status().ToString();
    return false;
  }
  std::ostringstream text;
  if (auto st = anonsafe::WriteFimi(*db, text); !st.ok()) {
    *error = st.ToString();
    return false;
  }
  out->content = text.str();
  out->key = anonsafe::serve::DatasetCache::HashContent(out->content);
  std::istringstream in(out->content);
  auto parsed = anonsafe::ReadFimi(in);
  if (!parsed.ok()) {
    *error = parsed.status().ToString();
    return false;
  }
  out->data = std::move(*parsed);
  json::Value params = json::Value::Object();
  params.Set("content", json::Value(out->content));
  out->load_line = Envelope("load_dataset", std::move(params));
  return true;
}

struct AssessSpec {
  std::string label;
  double tolerance = 0.1;
  bool curve = true;
  std::string estimator = "oe";
};

Shape AssessShape(const Workload& w, size_t dataset, const AssessSpec& spec) {
  Shape s;
  s.label = spec.label;
  s.verb = "assess_risk";
  s.dataset = dataset;
  json::Value params = json::Value::Object();
  params.Set("dataset", json::Value(w.datasets[dataset].key));
  params.Set("tolerance", json::Value(spec.tolerance));
  if (!spec.curve) params.Set("include_similarity_curve", json::Value(false));
  if (spec.estimator != "oe") {
    params.Set("estimator", json::Value(spec.estimator));
  }
  s.line = Envelope("assess_risk", std::move(params));
  return s;
}

/// The serve verb's answer computed in-process: the same options
/// `assess_risk` derives from its params, on the database as parsed from
/// the same bytes.
bool ReferenceReport(const Dataset& ds, const AssessSpec& spec, Shape* shape,
                     std::string* error) {
  anonsafe::RiskReportOptions options;
  options.recipe.tolerance = spec.tolerance;
  options.include_similarity_curve = spec.curve;
  auto kind = anonsafe::ParseEstimatorKind(spec.estimator);
  if (!kind.ok()) {
    *error = kind.status().ToString();
    return false;
  }
  options.recipe.estimator = *kind;
  auto report = anonsafe::BuildRiskReport(ds.data.database, options);
  if (!report.ok()) {
    *error = shape->label + ": " + report.status().ToString();
    return false;
  }
  shape->expected = report->ToJson().Dump();
  const anonsafe::RecipeResult& r = report->recipe;
  const double n = static_cast<double>(r.num_items);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (g/n=%.3f, interval_oe/n=%.3f)",
                anonsafe::ToString(r.decision),
                static_cast<double>(r.num_groups) / n, r.interval_oe / n);
  shape->decision = buf;
  return true;
}

/// Defense sweeps score candidates with the planner's Ryser cutoff
/// lowered to this: one stand-in's profile has a block just under the
/// default cutoff of 22 whose permanent made its sweeps 4x slower than
/// the others', so it alone set the mix's p95 and throughput. The Ryser
/// kernels are measured by `assess_recipe`'s `estimator:auto` requests.
constexpr size_t kDefenseRyserCutoff = 16;

json::Value DefenseParams(const std::string& key, size_t threads) {
  json::Value params = json::Value::Object();
  params.Set("dataset", json::Value(key));
  params.Set("ryser_cutoff", json::Value(uint64_t{kDefenseRyserCutoff}));
  params.Set("threads", json::Value(uint64_t{threads}));
  return params;
}

}  // namespace

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, std::min(threads, n)); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) body(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::string ResponseMember(const std::string& response,
                           const std::string& member) {
  static const std::string kOk = "{\"schema_version\":2,\"id\":1,\"ok\":true,";
  if (response.rfind(kOk, 0) != 0) return "";
  const std::string marker = "\"" + member + "\":";
  size_t at = response.find(marker);
  if (at == std::string::npos || response.size() < at + marker.size() + 2 ||
      response.compare(response.size() - 2, 2, "}}") != 0) {
    return "";
  }
  const size_t begin = at + marker.size();
  return response.substr(begin, response.size() - 2 - begin);
}

bool BuildWorkload(const std::string& name, uint64_t seed, size_t nproc,
                   bool smoke, Workload* out, std::string* error) {
  const Sizes sizes = SizesFor(smoke, nproc);
  Workload& w = *out;
  w.name = name;
  w.connections = nproc;

  // Dataset i of a workload draws its profile from stream base+i of a
  // fixed calibration seed and its transactions from the same stream of
  // the run seed.
  struct Plan {
    Benchmark benchmark;
    double scale;
    size_t count;
  };
  Plan plan{};
  uint64_t stream_base = 0;
  if (name == "assess_full") {
    plan = {Benchmark::kConnect, sizes.connect_full, sizes.full_datasets};
    stream_base = 100;
  } else if (name == "assess_recipe") {
    plan = {Benchmark::kPumsb, sizes.pumsb_recipe, sizes.recipe_datasets};
    stream_base = 200;
  } else if (name == "assess_churn") {
    // The pool plus one extra dataset that only warm-up loads.
    plan = {Benchmark::kConnect, sizes.connect_churn, sizes.churn_pool + 1};
    stream_base = 300;
    w.churn = true;
  } else if (name == "defense_sweep") {
    plan = {Benchmark::kConnect, sizes.connect_defense, sizes.defense_datasets};
    stream_base = 400;
    w.connections = 1;
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }

  w.datasets.resize(plan.count);
  std::vector<std::string> errors(plan.count);
  ParallelFor(plan.count, nproc, [&](size_t i) {
    MakeDataset(plan.benchmark, plan.scale,
                anonsafe::exec::SplitSeed(kProfileSeed, stream_base + i),
                anonsafe::exec::SplitSeed(seed, stream_base + i),
                &w.datasets[i], &errors[i]);
  });
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }

  // Shapes and their reference specs.
  std::vector<AssessSpec> specs;
  if (name == "assess_full") {
    for (size_t d = 0; d < w.datasets.size(); ++d) {
      specs.push_back({"full", 0.1, true, "oe"});
      w.shapes.push_back(AssessShape(w, d, specs.back()));
      w.cycle.push_back(w.shapes.size() - 1);
    }
  } else if (name == "assess_recipe") {
    // Every `auto` request goes to the first stand-in. The autos are the
    // slowest twelfth of the mix, so p95 falls among them; with one auto
    // per stand-in, p95 hopped between two stand-ins' service times
    // (about 0.8 s and 1.03 s) from run to run.
    specs.push_back({"auto@" + json::NumberToString(kAutoTolerance),
                     kAutoTolerance, false, "auto"});
    w.shapes.push_back(AssessShape(w, 0, specs.back()));
    const size_t auto_shape = w.shapes.size() - 1;
    for (size_t d = 0; d < w.datasets.size(); ++d) {
      std::vector<size_t> oe;
      for (double tol : kRecipeTolerances) {
        specs.push_back({"oe@" + json::NumberToString(tol), tol, false, "oe"});
        w.shapes.push_back(AssessShape(w, d, specs.back()));
        oe.push_back(w.shapes.size() - 1);
      }
      for (size_t k = 0; k + 1 < kRecipeCycle; ++k) {
        w.cycle.push_back(oe[k % oe.size()]);
      }
      w.cycle.push_back(auto_shape);
    }
  } else if (name == "assess_churn") {
    w.warm_dataset = w.datasets.size() - 1;
    for (size_t d = 0; d < w.datasets.size(); ++d) {
      specs.push_back({"churn", 0.1, false, "oe"});
      w.shapes.push_back(AssessShape(w, d, specs.back()));
      if (d != w.warm_dataset) w.cycle.push_back(w.shapes.size() - 1);
    }
  } else {  // defense_sweep
    for (size_t d = 0; d < w.datasets.size(); ++d) {
      Shape s;
      s.label = "defense";
      s.verb = "recommend_defense";
      s.dataset = d;
      s.line = Envelope("recommend_defense",
                        DefenseParams(w.datasets[d].key, nproc));
      w.shapes.push_back(std::move(s));
      w.cycle.push_back(w.shapes.size() - 1);
    }
    w.single_thread_line =
        Envelope("recommend_defense", DefenseParams(w.datasets[0].key, 1));
  }

  // Reference answers, computed before the server exists so they take
  // no CPU from it.
  errors.assign(w.shapes.size(), "");
  ParallelFor(w.shapes.size(), nproc, [&](size_t i) {
    Shape& shape = w.shapes[i];
    const Dataset& ds = w.datasets[shape.dataset];
    if (shape.verb == "recommend_defense") {
      anonsafe::exec::ExecContext ctx(anonsafe::exec::ExecOptions{});
      anonsafe::defense::OptimizerOptions options;
      options.planner.ryser_cutoff = kDefenseRyserCutoff;
      auto frontier = anonsafe::defense::RecommendDefense(ds.data.database,
                                                          options, &ctx);
      if (!frontier.ok()) {
        errors[i] = frontier.status().ToString();
        return;
      }
      shape.expected = frontier->ToJson().Dump();
      return;
    }
    ReferenceReport(ds, specs[i], &shape, &errors[i]);
  });
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
