#include "tools/cli.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "anonymize/anonymizer.h"
#include "belief/belief_io.h"
#include "belief/builders.h"
#include "core/graph_oestimate.h"
#include "estimator/planner.h"
#include "core/per_item_risk.h"
#include "core/recipe.h"
#include "defense/group_merge.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "defense/suppression.h"
#include "exec/exec.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "data/fimi_io.h"
#include "data/frequency.h"
#include "mining/miner.h"
#include "mining/rules.h"
#include "datagen/benchmark_profiles.h"
#include "graph/simd_kernels.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/cpu.h"
#include "util/csv_writer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace anonsafe {
namespace {

Status RequirePositional(const CliInvocation& cli, size_t count) {
  if (cli.positional.size() != count) {
    return Status::InvalidArgument(
        "'" + cli.command + "' expects " + std::to_string(count) +
        " argument(s), got " + std::to_string(cli.positional.size()) +
        "\n" + CliUsage());
  }
  return Status::OK();
}

/// Flags RunCli handles for every command; never a verb's param.
constexpr const char* kGlobalFlags[] = {"trace",     "trace-format",
                                        "trace-out", "metrics-out",
                                        "log-level", "log-file"};

bool IsGlobalFlag(const std::string& flag) {
  return std::count(std::begin(kGlobalFlags), std::end(kGlobalFlags), flag) >
         0;
}

/// InvalidArgument naming an unknown flag and the flags `cli.command`
/// accepts besides the global ones.
Status UnknownFlag(const CliInvocation& cli, const std::string& flag,
                   const std::vector<std::string>& accepted) {
  std::string list;
  for (const std::string& name : accepted) list += " --" + name;
  return Status::InvalidArgument("unknown flag --" + flag + " for '" +
                                 cli.command + "'; accepted:" + list);
}

/// The flag rule of the commands without a param table: every flag is a
/// global flag or one of `accepted`.
Status CheckFlags(const CliInvocation& cli,
                  const std::vector<std::string>& accepted) {
  for (const auto& [flag, value] : cli.flags) {
    if (!IsGlobalFlag(flag) &&
        std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      return UnknownFlag(cli, flag, accepted);
    }
  }
  return Status::OK();
}

/// The one converter from a command's `--kebab-name=value` flags to the
/// JSON params its table declares (`--ryser-cutoff=16` is
/// `"ryser_cutoff":16`): the object a serve request carries, read by the
/// same binder. Values are JSON literals except for string params.
/// Global and render flags pass through; any other flag is
/// InvalidArgument naming the accepted ones.
Result<json::Value> ParamsFromFlags(
    const CliInvocation& cli, const serve::ParamTable& table,
    std::initializer_list<std::string> render_flags = {}) {
  json::Value params = json::Value::Object();
  for (const auto& [flag, text] : cli.flags) {
    if (IsGlobalFlag(flag) ||
        std::count(render_flags.begin(), render_flags.end(), flag) > 0) {
      continue;
    }
    std::string name = flag;
    std::replace(name.begin(), name.end(), '-', '_');
    const serve::ParamSpec* spec = serve::FindParam(table, name);
    if (spec == nullptr || flag.find('_') != std::string::npos) {
      std::vector<std::string> accepted;
      for (const serve::ParamSpec& entry : table) {
        std::string kebab = entry.name;
        std::replace(kebab.begin(), kebab.end(), '_', '-');
        accepted.push_back(kebab);
      }
      accepted.insert(accepted.end(), render_flags.begin(),
                      render_flags.end());
      return UnknownFlag(cli, flag, accepted);
    }
    Result<json::Value> value = spec->type == json::Value::Type::kString
                                    ? json::Value(text)
                                    : json::Value::Parse(text);
    // An integer must read back as written: 2^53 + 1 would round.
    if (!value.ok() || (spec->max_int > 0 &&
                        json::NumberToString(value->AsDouble()) != text)) {
      const std::string type =
          spec->max_int > 0 ? "integer" : serve::JsonTypeName(spec->type);
      return Status::InvalidArgument("flag --" + flag + " expects type " +
                                     type + ", got '" + text + "'");
    }
    params.Set(spec->name, std::move(*value));
  }
  return params;
}

Status RunStats(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {}));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  Summary gaps = groups.GapSummary();

  TablePrinter t({"statistic", "value"});
  t.AddRow({"items", TablePrinter::Fmt(data.database.num_items())});
  t.AddRow({"transactions",
            TablePrinter::Fmt(data.database.num_transactions())});
  t.AddRow({"occurrences", TablePrinter::Fmt(data.database.TotalSize())});
  t.AddRow({"frequency groups", TablePrinter::Fmt(groups.num_groups())});
  t.AddRow({"singleton groups",
            TablePrinter::Fmt(groups.num_singleton_groups())});
  t.AddRow({"mean gap", TablePrinter::FmtG(gaps.mean)});
  t.AddRow({"median gap (delta_med)", TablePrinter::FmtG(gaps.median)});
  t.AddRow({"min gap", TablePrinter::FmtG(gaps.min)});
  t.AddRow({"max gap", TablePrinter::FmtG(gaps.max)});
  t.Print(out);
  return Status::OK();
}

Status RunAssess(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_ASSIGN_OR_RETURN(
      json::Value params, ParamsFromFlags(cli, serve::VerbParams().recipe));
  ANONSAFE_ASSIGN_OR_RETURN(RiskReportOptions bound,
                            serve::BindAssessRisk(params));
  const RecipeOptions& options = bound.recipe;
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  ANONSAFE_ASSIGN_OR_RETURN(RecipeResult result, AssessRisk(table, options));
  out << "decision: " << ToString(result.decision) << "\n"
      << result.Summary() << "\n";
  if (result.adversary != "interval" ||
      !result.adversary_params.values.empty()) {
    out << "adversary: "
        << adversary::AdversarySpecString(result.adversary,
                                          result.adversary_params)
        << "\n";
  }
  if (options.estimator != EstimatorKind::kOe &&
      result.decision != RecipeDecision::kDiscloseAtPointValued) {
    out << "interval estimator: " << EstimatorKindName(result.estimator)
        << (result.interval_exact ? " (exact)" : " (approximate)");
    if (!result.interval_blocks.empty()) {
      out << ", " << result.interval_blocks.size() << " block(s)";
    }
    out << "\n";
  }
  return Status::OK();
}

Status RunPlan(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_ASSIGN_OR_RETURN(
      json::Value params, ParamsFromFlags(cli, serve::VerbParams().plan));
  ANONSAFE_ASSIGN_OR_RETURN(serve::OEstimateRequest belief,
                            serve::BindOEstimate(params));
  ANONSAFE_ASSIGN_OR_RETURN(serve::DefenseRequest defense,
                            serve::BindRecommendDefense(params));
  ANONSAFE_ASSIGN_OR_RETURN(RiskReportOptions report,
                            serve::BindAssessRisk(params));
  const PlannerOptions& options = defense.optimizer.planner;
  const RecipeOptions& recipe = report.recipe;
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  const double delta = belief.delta.value_or(groups.MedianGap());

  const adversary::Adversary& adv =
      *adversary::Adversary::Find(recipe.adversary);
  // The preview is of the planner, which cannot take weighted models.
  ANONSAFE_RETURN_IF_ERROR(
      CheckEstimatorForAdversary(EstimatorKind::kAuto, adv));
  // The default interval adversary binds exactly the historical
  // MakeCompliantIntervalBelief(table, delta) call.
  ANONSAFE_ASSIGN_OR_RETURN(adversary::AdversaryModel model,
                            adv.Bind(table, groups, delta,
                                     recipe.adversary_params));
  ANONSAFE_ASSIGN_OR_RETURN(
      BipartiteGraph graph,
      BipartiteGraph::Build(groups, model.belief, options.max_edges));
  ANONSAFE_ASSIGN_OR_RETURN(BlockPlan plan,
                            PlanBlocks(graph, groups, options));

  // Inspect the plan without evaluating anything heavy: the whole point
  // of the verb is to preview what `--estimator=auto` would run.
  TablePrinter t({"block", "size", "edges", "method", "exact", "cost"});
  double total_cost = 0.0;
  size_t exact_blocks = 0;
  for (size_t b = 0; b < plan.blocks.size(); ++b) {
    const PlannedBlock& block = plan.blocks[b];
    t.AddRow({TablePrinter::Fmt(b), TablePrinter::Fmt(block.items.size()),
              TablePrinter::Fmt(block.num_edges),
              BlockMethodName(block.method), block.exact ? "yes" : "no",
              TablePrinter::FmtG(block.cost)});
    total_cost += block.cost;
    if (block.exact) ++exact_blocks;
  }
  t.Print(out);
  out << "blocks: " << plan.blocks.size() << " (" << exact_blocks
      << " exact), pruned edges: " << plan.pruned_edges
      << ", delta: " << TablePrinter::FmtG(delta)
      << ", total cost: " << TablePrinter::FmtG(total_cost) << "\n";
  return Status::OK();
}

Status RunReport(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_ASSIGN_OR_RETURN(
      json::Value params,
      ParamsFromFlags(cli, serve::VerbParams().assess_risk, {"json"}));
  ANONSAFE_ASSIGN_OR_RETURN(RiskReportOptions options,
                            serve::BindAssessRisk(params));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(RiskReport report,
                            BuildRiskReport(data.database, options));
  if (cli.flags.count("json") > 0) {
    // The same document the serve `assess_risk` verb embeds — one emitter,
    // so CLI and server output are bit-identical (see docs/SERVER.md).
    out << report.ToJson().Dump() << "\n";
  } else {
    out << report.ToText();
  }
  return Status::OK();
}

Status RunServe(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 0));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(
      cli, {"port", "workers", "queue-capacity", "max-line-bytes",
            "cache-capacity", "deadline-ms", "slow-ms", "flight-recorder",
            "max-batch-items", "tenant-rate", "tenant-burst",
            "write-buffer-bytes"}));
  serve::ServerOptions options;
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t workers, FlagAsUint64(cli, "workers", options.workers));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t queue_capacity,
      FlagAsUint64(cli, "queue-capacity", options.queue_capacity));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t max_line_bytes,
      FlagAsUint64(cli, "max-line-bytes", options.max_line_bytes));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t cache_capacity,
      FlagAsUint64(cli, "cache-capacity", options.dataset_cache_capacity));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t deadline_ms,
      FlagAsUint64(cli, "deadline-ms", options.default_deadline_ms));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t slow_ms, FlagAsUint64(cli, "slow-ms", options.slow_request_ms));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t flight_recorder,
      FlagAsUint64(cli, "flight-recorder", options.flight_recorder_capacity));
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t max_batch_items,
      FlagAsUint64(cli, "max-batch-items", options.max_batch_items));
  ANONSAFE_ASSIGN_OR_RETURN(
      double tenant_rate,
      FlagAsDouble(cli, "tenant-rate", options.tenant_rate));
  ANONSAFE_ASSIGN_OR_RETURN(
      double tenant_burst,
      FlagAsDouble(cli, "tenant-burst", options.tenant_burst));
  if (tenant_rate < 0 || tenant_burst < 0) {
    return Status::InvalidArgument(
        "--tenant-rate/--tenant-burst must be non-negative");
  }
  options.workers = static_cast<size_t>(workers);
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  options.max_line_bytes = static_cast<size_t>(max_line_bytes);
  options.dataset_cache_capacity = static_cast<size_t>(cache_capacity);
  options.default_deadline_ms = deadline_ms;
  options.slow_request_ms = slow_ms;
  options.flight_recorder_capacity = static_cast<size_t>(flight_recorder);
  options.max_batch_items = static_cast<size_t>(max_batch_items);
  options.tenant_rate = tenant_rate;
  options.tenant_burst = tenant_burst;

  // A server is the one place the access-log stream earns its keep: when
  // the operator set no level (flag or environment), raise the default
  // from warn to info so per-request lines flow.
  if (cli.flags.count("log-level") == 0 &&
      std::getenv("ANONSAFE_LOG_LEVEL") == nullptr) {
    obs::SetLogLevel(obs::LogLevel::kInfo);
  }

  // Resolve the SIMD dispatch once at startup and say which tier the
  // kernels will run on (honours ANONSAFE_FORCE_ISA); operators diffing
  // perf across hosts need this in the log.
  obs::Log(obs::LogLevel::kInfo, "serve.simd_dispatch",
           {{"isa", json::Value(internal::Kernels().name)},
            {"cpu_model", json::Value(cpu::CpuModelName())}});

  serve::Server server(options);
  if (cli.flags.count("port") == 0) {
    // Stdio mode: requests on stdin, responses on stdout. `out` is the
    // command's diagnostic stream here and must stay clear of responses.
    return serve::ServeStreams(server, std::cin, std::cout);
  }
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t port, FlagAsUint64(cli, "port", 0));
  if (port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  serve::TcpServerOptions tcp;
  tcp.port = static_cast<uint16_t>(port);
  ANONSAFE_ASSIGN_OR_RETURN(
      uint64_t write_buffer,
      FlagAsUint64(cli, "write-buffer-bytes", tcp.write_buffer_bytes));
  if (write_buffer == 0) {
    return Status::InvalidArgument("--write-buffer-bytes must be positive");
  }
  tcp.write_buffer_bytes = static_cast<size_t>(write_buffer);
  tcp.on_listening = [&out](uint16_t bound) {
    out << "anonsafe serve: listening on 127.0.0.1:" << bound << "\n";
    out.flush();
  };
  return serve::ServeTcp(server, tcp);
}

Status RunSimilarity(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_ASSIGN_OR_RETURN(
      json::Value params,
      ParamsFromFlags(cli, serve::VerbParams().similarity));
  ANONSAFE_ASSIGN_OR_RETURN(SimilarityOptions options,
                            serve::BindSimilarity(params));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(std::vector<SimilarityPoint> curve,
                            SimilarityBySampling(data.database, options));
  out << SimilarityCurveTable(curve);
  return Status::OK();
}

Status RunAnonymize(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 2));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"seed"}));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t seed, FlagAsUint64(cli, "seed", 1));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  Rng rng(seed);
  Anonymizer mapping =
      Anonymizer::Random(data.database.num_items(), &rng);
  ANONSAFE_ASSIGN_OR_RETURN(Database anonymized,
                            mapping.AnonymizeDatabase(data.database));
  ANONSAFE_RETURN_IF_ERROR(WriteFimiFile(anonymized, cli.positional[1]));
  out << "wrote " << anonymized.num_transactions()
      << " anonymized transactions over " << anonymized.num_items()
      << " items to " << cli.positional[1] << "\n"
      << "(keep the seed secret: it reproduces the mapping)\n";
  return Status::OK();
}

Status RunGenerate(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 2));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"scale", "seed"}));
  ANONSAFE_ASSIGN_OR_RETURN(double scale, FlagAsDouble(cli, "scale", 1.0));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t seed, FlagAsUint64(cli, "seed", 2005));
  ANONSAFE_ASSIGN_OR_RETURN(Benchmark benchmark,
                            BenchmarkByName(cli.positional[0]));
  Rng rng(seed);
  ANONSAFE_ASSIGN_OR_RETURN(Database db,
                            MakeBenchmarkDatabase(benchmark, &rng, scale));
  ANONSAFE_RETURN_IF_ERROR(WriteFimiFile(db, cli.positional[1]));
  out << "wrote synthetic " << GetBenchmarkSpec(benchmark).name
      << " stand-in (" << db.DebugString() << ") to " << cli.positional[1]
      << "\n";
  return Status::OK();
}

Status RunRisk(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"top"}));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t top, FlagAsUint64(cli, "top", 20));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      MakeCompliantIntervalBelief(table, groups.MedianGap()));
  ANONSAFE_ASSIGN_OR_RETURN(PerItemRiskReport report,
                            ComputePerItemRisk(groups, belief));
  out << "delta_med interval O-estimate: "
      << TablePrinter::Fmt(report.total_expected_cracks, 2)
      << " expected cracks of " << table.num_items() << " items\n";
  TablePrinter t({"rank", "item label", "crack prob.", "candidates",
                  "pinned"});
  for (size_t r = 0; r < report.ranked.size() && r < top; ++r) {
    const ItemRisk& risk = report.ranked[r];
    t.AddRow({TablePrinter::Fmt(r + 1),
              TablePrinter::Fmt(static_cast<int64_t>(
                  data.labels[risk.item])),
              TablePrinter::Fmt(risk.crack_probability, 4),
              TablePrinter::Fmt(risk.outdegree),
              risk.forced ? "yes" : ""});
  }
  t.Print(out);
  return Status::OK();
}

Status RunMine(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_RETURN_IF_ERROR(
      CheckFlags(cli, {"min-support", "min-confidence", "top"}));
  ANONSAFE_ASSIGN_OR_RETURN(double min_support,
                            FlagAsDouble(cli, "min-support", 0.1));
  ANONSAFE_ASSIGN_OR_RETURN(double min_confidence,
                            FlagAsDouble(cli, "min-confidence", 0.0));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t top, FlagAsUint64(cli, "top", 20));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  MiningOptions options;
  options.min_support = min_support;
  ANONSAFE_ASSIGN_OR_RETURN(std::vector<FrequentItemset> mined,
                            MineFPGrowth(data.database, options));

  out << mined.size() << " frequent itemsets at min_support="
      << min_support << " (fpgrowth)\n";
  TablePrinter t({"itemset (original labels)", "support", "frequency"});
  size_t shown = 0;
  for (auto it = mined.rbegin(); it != mined.rend() && shown < top;
       ++it, ++shown) {
    Itemset relabeled;
    for (ItemId x : it->items) {
      relabeled.push_back(static_cast<ItemId>(data.labels[x]));
    }
    std::sort(relabeled.begin(), relabeled.end());
    t.AddRow({ItemsetToString(relabeled), TablePrinter::Fmt(it->support),
              TablePrinter::Fmt(
                  static_cast<double>(it->support) /
                      static_cast<double>(data.database.num_transactions()),
                  4)});
  }
  t.Print(out);

  if (min_confidence > 0.0) {
    RuleOptions rule_options;
    rule_options.min_confidence = min_confidence;
    ANONSAFE_ASSIGN_OR_RETURN(
        std::vector<AssociationRule> rules,
        GenerateRules(mined, data.database.num_transactions(),
                      rule_options));
    out << "\n" << rules.size() << " association rules at min_confidence="
        << min_confidence << "; top " << std::min<size_t>(top, rules.size())
        << ":\n";
    auto relabel = [&](const Itemset& items) {
      Itemset labeled;
      for (ItemId x : items) {
        labeled.push_back(static_cast<ItemId>(data.labels[x]));
      }
      std::sort(labeled.begin(), labeled.end());
      return labeled;
    };
    for (size_t r = 0; r < rules.size() && r < top; ++r) {
      AssociationRule labeled = rules[r];
      labeled.antecedent = relabel(labeled.antecedent);
      labeled.consequent = relabel(labeled.consequent);
      out << "  " << ToString(labeled) << "\n";
    }
  }
  return Status::OK();
}

Status RunBelief(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 2));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"delta"}));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  ANONSAFE_ASSIGN_OR_RETURN(
      double delta, FlagAsDouble(cli, "delta", groups.MedianGap()));
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                            MakeCompliantIntervalBelief(table, delta));
  ANONSAFE_RETURN_IF_ERROR(
      WriteBeliefFunctionFile(belief, cli.positional[1]));
  out << "wrote compliant interval belief (half-width "
      << TablePrinter::FmtG(delta, 4) << ") for "
      << table.num_items() << " items to " << cli.positional[1] << "\n"
      << "Edit intervals to model a specific hacker, then run:\n"
      << "  anonsafe attack " << cli.positional[0] << " "
      << cli.positional[1] << "\n";
  return Status::OK();
}

Status RunAttack(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 2));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"top"}));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t top, FlagAsUint64(cli, "top", 10));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      ReadBeliefFunctionFile(cli.positional[1], table.num_items()));

  ANONSAFE_ASSIGN_OR_RETURN(double alpha,
                            belief.ComplianceFraction(table));
  ANONSAFE_ASSIGN_OR_RETURN(OEstimateResult oe,
                            ComputeOEstimate(groups, belief));
  out << "hacker model: " << cli.positional[1] << "\n"
      << "degree of compliancy alpha = " << TablePrinter::Fmt(alpha, 4)
      << "\n"
      << "O-estimate (Fig. 5 + Fig. 7): "
      << TablePrinter::Fmt(oe.expected_cracks, 2) << " expected cracks of "
      << table.num_items() << " items ("
      << TablePrinter::Fmt(oe.fraction * 100.0, 2) << "%)\n";
  if (oe.contradiction) {
    out << "note: the belief admits no perfect consistent mapping "
           "(non-compliant guesses detected structurally)\n";
  }
  auto refined = ComputeRefinedOEstimate(groups, belief,
                                         /*max_edges=*/4u * 1024 * 1024);
  if (refined.ok()) {
    out << "refined O-estimate (matching cover): "
        << TablePrinter::Fmt(refined->expected_cracks, 2) << "\n";
  }
  ANONSAFE_ASSIGN_OR_RETURN(PerItemRiskReport risk,
                            ComputePerItemRisk(groups, belief));
  TablePrinter t({"rank", "item label", "crack prob.", "candidates"});
  for (size_t r = 0; r < risk.ranked.size() && r < top; ++r) {
    const ItemRisk& item_risk = risk.ranked[r];
    t.AddRow({TablePrinter::Fmt(r + 1),
              TablePrinter::Fmt(static_cast<int64_t>(
                  data.labels[item_risk.item])),
              TablePrinter::Fmt(item_risk.crack_probability, 4),
              TablePrinter::Fmt(item_risk.outdegree)});
  }
  t.Print(out);
  return Status::OK();
}

Status RunDefend(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 2));
  ANONSAFE_RETURN_IF_ERROR(CheckFlags(cli, {"tolerance", "seed", "mode"}));
  ANONSAFE_ASSIGN_OR_RETURN(double tolerance,
                            FlagAsDouble(cli, "tolerance", 0.1));
  ANONSAFE_ASSIGN_OR_RETURN(uint64_t seed, FlagAsUint64(cli, "seed", 1));
  std::string mode = "merge";
  if (auto it = cli.flags.find("mode"); it != cli.flags.end()) {
    mode = it->second;
  }
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(data.database));
  Rng rng(seed);

  if (mode == "merge") {
    const defense::DefenseScheme* scheme =
        defense::DefenseScheme::Find("group_merge");
    defense::DefenseParams params;
    params.Set("tolerance", tolerance);
    ANONSAFE_ASSIGN_OR_RETURN(defense::DefensePlan plan,
                              scheme->Plan(table, params));
    ANONSAFE_ASSIGN_OR_RETURN(Database defended,
                              scheme->Apply(data.database, plan, &rng));
    ANONSAFE_RETURN_IF_ERROR(WriteFimiFile(defended, cli.positional[1]));
    out << "merge defense: " << plan.groups_before << " -> "
        << plan.groups_after << " frequency groups, "
        << TablePrinter::Fmt(plan.relative_distortion * 100.0, 2)
        << "% of occurrences touched; wrote " << cli.positional[1] << "\n";
    return Status::OK();
  }
  if (mode == "suppress") {
    const defense::DefenseScheme* scheme =
        defense::DefenseScheme::Find("suppression");
    defense::DefenseParams params;
    params.Set("tolerance", tolerance);
    ANONSAFE_ASSIGN_OR_RETURN(defense::DefensePlan plan,
                              scheme->Plan(table, params));
    ANONSAFE_ASSIGN_OR_RETURN(Database defended,
                              scheme->Apply(data.database, plan, &rng));
    ANONSAFE_RETURN_IF_ERROR(WriteFimiFile(defended, cli.positional[1]));
    out << "suppression defense: dropped " << plan.suppressed.size()
        << " of " << plan.items_before << " items ("
        << TablePrinter::Fmt(plan.occurrence_loss * 100.0, 2)
        << "% of occurrences); O-estimate "
        << TablePrinter::Fmt(plan.oe_before, 1) << " -> "
        << TablePrinter::Fmt(plan.oe_after, 1) << "; wrote "
        << cli.positional[1] << "\n";
    return Status::OK();
  }
  return Status::InvalidArgument("--mode must be 'merge' or 'suppress'");
}

Status RunRecommendDefense(const CliInvocation& cli, std::ostream& out) {
  ANONSAFE_RETURN_IF_ERROR(RequirePositional(cli, 1));
  ANONSAFE_ASSIGN_OR_RETURN(
      json::Value params,
      ParamsFromFlags(cli, serve::VerbParams().recommend_defense,
                      {"json", "csv"}));
  ANONSAFE_ASSIGN_OR_RETURN(serve::DefenseRequest request,
                            serve::BindRecommendDefense(params));
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase data,
                            ReadFimiFile(cli.positional[0]));
  exec::ExecContext ctx(request.exec);
  ANONSAFE_ASSIGN_OR_RETURN(
      defense::DefenseFrontier frontier,
      defense::RecommendDefense(data.database, request.optimizer, &ctx));

  if (cli.flags.count("json") > 0) {
    out << frontier.ToJson().Dump() << "\n";
    return Status::OK();
  }
  if (auto it = cli.flags.find("csv"); it != cli.flags.end()) {
    CsvWriter csv({"index", "scheme", "params", "feasible", "on_frontier",
                   "expected_cracks", "total_loss", "exact", "k_anonymity",
                   "reason"});
    for (const defense::CandidateScore& c : frontier.candidates) {
      csv.AddRow({std::to_string(c.index), c.scheme, c.params.ToString(),
                  c.feasible ? "1" : "0", c.on_frontier ? "1" : "0",
                  c.feasible ? json::NumberToString(c.expected_cracks) : "",
                  c.feasible ? json::NumberToString(c.utility.total_loss)
                             : "",
                  c.feasible ? (c.exact ? "1" : "0") : "",
                  c.feasible ? std::to_string(c.k_anonymity) : "",
                  c.reason});
    }
    if (it->second == "true") {
      out << csv.ToString();
    } else {
      ANONSAFE_RETURN_IF_ERROR(csv.WriteFile(it->second));
      out << "wrote " << frontier.candidates.size() << " candidates to "
          << it->second << "\n";
    }
    return Status::OK();
  }

  size_t feasible = 0;
  for (const defense::CandidateScore& c : frontier.candidates) {
    if (c.feasible) ++feasible;
  }
  out << "swept " << frontier.candidates.size() << " candidates ("
      << feasible << " feasible) across "
      << defense::DefenseScheme::All().size() << " schemes\n"
      << "baseline: " << TablePrinter::Fmt(frontier.baseline_cracks, 2)
      << " expected cracks of " << frontier.num_items << " items"
      << (frontier.baseline_exact ? " (exact)" : " (approximate)") << "\n"
      << "Pareto frontier (" << frontier.frontier.size() << " points):\n";
  TablePrinter t({"#", "scheme", "params", "E[cracks]", "total loss",
                  "exact"});
  for (size_t rank = 0; rank < frontier.frontier.size(); ++rank) {
    const defense::CandidateScore& c =
        frontier.candidates[frontier.frontier[rank]];
    t.AddRow({TablePrinter::Fmt(rank + 1), c.scheme, c.params.ToString(),
              TablePrinter::Fmt(c.expected_cracks, 2),
              TablePrinter::Fmt(c.utility.total_loss, 4),
              c.exact ? "yes" : "no"});
  }
  t.Print(out);
  out << "replay any point with DefenseScheme::Find(scheme)->Plan/Apply at "
         "seed "
      << frontier.seed << " (see docs/DEFENSE.md)\n";
  return Status::OK();
}

Status DispatchCommand(const CliInvocation& cli, std::ostream& out) {
  if (cli.command == "stats") return RunStats(cli, out);
  if (cli.command == "assess") return RunAssess(cli, out);
  if (cli.command == "plan") return RunPlan(cli, out);
  if (cli.command == "report") return RunReport(cli, out);
  if (cli.command == "serve") return RunServe(cli, out);
  if (cli.command == "similarity") return RunSimilarity(cli, out);
  if (cli.command == "anonymize") return RunAnonymize(cli, out);
  if (cli.command == "generate") return RunGenerate(cli, out);
  if (cli.command == "risk") return RunRisk(cli, out);
  if (cli.command == "defend") return RunDefend(cli, out);
  if (cli.command == "recommend-defense") {
    return RunRecommendDefense(cli, out);
  }
  if (cli.command == "belief") return RunBelief(cli, out);
  if (cli.command == "mine") return RunMine(cli, out);
  if (cli.command == "attack") return RunAttack(cli, out);
  if (cli.command == "help") {
    out << CliUsage();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown subcommand '" + cli.command +
                                 "'\n" + CliUsage());
}

}  // namespace

Result<CliInvocation> ParseCli(const std::vector<std::string>& args) {
  CliInvocation cli;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        cli.flags[arg.substr(2)] = "true";
      } else {
        cli.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else if (cli.command.empty()) {
      cli.command = arg;
    } else {
      cli.positional.push_back(arg);
    }
  }
  if (cli.command.empty()) {
    return Status::InvalidArgument("no subcommand given\n" + CliUsage());
  }
  return cli;
}

Result<double> FlagAsDouble(const CliInvocation& cli, const std::string& key,
                            double default_value) {
  auto it = cli.flags.find(key);
  if (it == cli.flags.end()) return default_value;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + key +
                                   " expects a number, got '" + it->second +
                                   "'");
  }
  return v;
}

Result<uint64_t> FlagAsUint64(const CliInvocation& cli,
                              const std::string& key,
                              uint64_t default_value) {
  auto it = cli.flags.find(key);
  if (it == cli.flags.end()) return default_value;
  char* end = nullptr;
  unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  // strtoull would wrap a leading '-' around to a huge value.
  if (!std::isdigit(static_cast<unsigned char>(it->second[0])) ||
      *end != '\0') {
    return Status::InvalidArgument("flag --" + key +
                                   " expects an integer, got '" +
                                   it->second + "'");
  }
  return static_cast<uint64_t>(v);
}

Status RunCli(const CliInvocation& cli, std::ostream& out) {
  if (auto it = cli.flags.find("log-level"); it != cli.flags.end()) {
    ANONSAFE_ASSIGN_OR_RETURN(obs::LogLevel level,
                              obs::ParseLogLevel(it->second));
    obs::SetLogLevel(level);
  }
  if (auto it = cli.flags.find("log-file"); it != cli.flags.end()) {
    ANONSAFE_RETURN_IF_ERROR(obs::SetLogFile(it->second));
  }

  // `--trace-format`/`--trace-out` imply `--trace`.
  const auto trace_out_it = cli.flags.find("trace-out");
  std::string trace_format = "table";
  if (auto it = cli.flags.find("trace-format"); it != cli.flags.end()) {
    trace_format = it->second;
  }
  if (trace_format != "table" && trace_format != "json" &&
      trace_format != "chrome") {
    return Status::InvalidArgument(
        "--trace-format must be table, json or chrome; got '" +
        trace_format + "'");
  }
  const bool trace = cli.flags.count("trace") > 0 ||
                     cli.flags.count("trace-format") > 0 ||
                     trace_out_it != cli.flags.end();
  const auto metrics_it = cli.flags.find("metrics-out");
  const bool metrics = metrics_it != cli.flags.end();
  if (trace) {
    obs::SetTracingEnabled(true);
    obs::Tracer::ThreadLocal().Clear();
  }
  if (metrics) {
    obs::SetMetricsEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }

  Status status = DispatchCommand(cli, out);

  if (trace) {
    const obs::Tracer& tracer = obs::Tracer::ThreadLocal();
    std::string rendered;
    if (trace_format == "table") {
      rendered = "\ntrace (" + cli.command + "):\n" + tracer.RenderTable();
    } else if (trace_format == "json") {
      rendered = tracer.ToJson() + "\n";
    } else {
      rendered = obs::ExportChromeTrace(tracer, "cli-" + cli.command) + "\n";
    }
    if (trace_out_it != cli.flags.end()) {
      std::ofstream trace_file(trace_out_it->second);
      if (trace_file) trace_file << rendered;
      if (!trace_file) {
        if (status.ok()) {
          status = Status::IOError("cannot write trace to '" +
                                   trace_out_it->second + "'");
        }
      } else {
        out << "trace: " << trace_out_it->second << " (" << trace_format
            << ")\n";
      }
    } else {
      out << rendered;
    }
  }
  if (metrics) {
    Status written = obs::WriteMetricsFiles(obs::MetricsRegistry::Global(),
                                            metrics_it->second);
    if (written.ok()) {
      out << "metrics: " << metrics_it->second << " (JSON), "
          << obs::PrometheusPathFor(metrics_it->second)
          << " (Prometheus text)\n";
    } else if (status.ok()) {
      status = written;
    }
  }
  return status;
}

std::string CliUsage() {
  return
      "usage: anonsafe <command> [args] [--flags]\n"
      "\n"
      "  stats <file.dat>                      dataset statistics\n"
      "  assess <file.dat> [--tolerance=] [--estimator=] [--adversary=]\n"
      "         [--seed=] [--runs=] [--threads=]\n"
      "                                        Fig. 8 Assess-Risk recipe\n"
      "                                        (see docs/ADVERSARIES.md)\n"
      "  plan <file.dat> [--delta=] [--ryser-cutoff=] [--prefer-sampler]\n"
      "       [--adversary=]\n"
      "                                        preview the estimator plan:\n"
      "                                        per-block method and cost\n"
      "                                        (see docs/ESTIMATORS.md)\n"
      "  report <file.dat> [assess flags] [--include-similarity-curve=]\n"
      "         [--json]                       full risk report\n"
      "  serve [--port=N] [--workers=1] [--queue-capacity=16]\n"
      "        [--deadline-ms=0] [--cache-capacity=8] [--max-line-bytes=]\n"
      "        [--slow-ms=0] [--flight-recorder=64] [--max-batch-items=256]\n"
      "        [--tenant-rate=0] [--tenant-burst=8]\n"
      "        [--write-buffer-bytes=1048576]\n"
      "                                        long-running JSON service\n"
      "                                        (stdio without --port;\n"
      "                                        see docs/SERVER.md)\n"
      "  similarity <file.dat> [--samples-per-fraction=] [--seed=]\n"
      "                                        Fig. 13 sampling curve\n"
      "  risk <file.dat> [--top=20]             per-item crack ranking\n"
      "  belief <file.dat> <out.belief> [--delta=]  belief-file template\n"
      "  mine <file.dat> [--min-support=0.1] [--min-confidence=0]\n"
      "       [--top=20]                       FP-Growth itemsets + rules\n"
      "  attack <file.dat> <belief-file> [--top=10] evaluate a hacker model\n"
      "  defend <in.dat> <out.dat> [--tolerance=0.1] [--mode=merge|suppress]\n"
      "  recommend-defense <file.dat> [--ryser-cutoff=] [--prefer-sampler]\n"
      "        [--seed=] [--threads=] [--json] [--csv[=path]]\n"
      "                                        sweep every registered\n"
      "                                        defense scheme and print the\n"
      "                                        risk-utility Pareto frontier\n"
      "                                        (see docs/DEFENSE.md)\n"
      "  anonymize <in.dat> <out.dat> [--seed=]\n"
      "  generate <BENCHMARK> <out.dat> [--scale=1.0] [--seed=]\n"
      "        BENCHMARK: CONNECT PUMSB ACCIDENTS RETAIL MUSHROOM CHESS\n"
      "  help\n"
      "\n"
      "Shared flags (assess, plan, report, similarity, recommend-defense)\n"
      "are the serve params of the same names, --kebab-case here and\n"
      "snake_case in JSON (--ryser-cutoff=16 is \"ryser_cutoff\":16); see\n"
      "docs/SERVER.md for each type, default and range. Out-of-range\n"
      "integers are errors. --threads=0 uses all cores. On every command\n"
      "an unknown flag is an error that lists the accepted ones.\n"
      "\n"
      "Global flags (any command):\n"
      "  --trace               print a per-phase timing tree after the run\n"
      "  --trace-format=<fmt>  trace output format: table (default), json,\n"
      "                        or chrome (Perfetto-loadable trace events);\n"
      "                        implies --trace\n"
      "  --trace-out=<path>    write the trace to a file instead of stdout;\n"
      "                        implies --trace\n"
      "  --metrics-out=<path>  write run metrics as JSON (plus a .prom\n"
      "                        sibling in Prometheus text format)\n"
      "  --log-level=<level>   structured-log threshold: error, warn\n"
      "                        (default), info, debug; also via the\n"
      "                        ANONSAFE_LOG_LEVEL env var\n"
      "  --log-file=<path>     append JSON log lines to a file instead of\n"
      "                        stderr\n"
      "\n"
      "Transaction files are FIMI format: one transaction per line,\n"
      "whitespace-separated integer item labels.\n";
}

}  // namespace anonsafe
