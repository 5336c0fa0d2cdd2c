#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/fimi_io.h"
#include "data/frequency.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/cli.h"

namespace anonsafe {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteSampleFile(const std::string& path) {
  std::ofstream out(path);
  // 12 transactions over 6 items with assorted supports.
  out << "1 2 3\n1 2\n1 4\n1 2 5\n2 3\n1 3 6\n2 4\n1 2 3\n5 6\n1 2\n"
         "3 4 5\n1 6\n";
}

// ----------------------------------------------------------------- Parsing

TEST(CliParseTest, SplitsCommandPositionalAndFlags) {
  auto cli = ParseCli({"assess", "file.dat", "--tolerance=0.2", "--verbose"});
  ASSERT_TRUE(cli.ok());
  EXPECT_EQ(cli->command, "assess");
  ASSERT_EQ(cli->positional.size(), 1u);
  EXPECT_EQ(cli->positional[0], "file.dat");
  EXPECT_EQ(cli->flags.at("tolerance"), "0.2");
  EXPECT_EQ(cli->flags.at("verbose"), "true");
}

TEST(CliParseTest, EmptyArgsFail) {
  EXPECT_TRUE(ParseCli({}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseCli({"--only=flags"}).status().IsInvalidArgument());
}

TEST(CliParseTest, FlagAccessors) {
  auto cli = ParseCli({"x", "--a=1.5", "--b=7", "--bad=zz", "--neg=-1"});
  ASSERT_TRUE(cli.ok());
  auto d = FlagAsDouble(*cli, "a", 0.0);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 1.5);
  auto dd = FlagAsDouble(*cli, "missing", 9.5);
  ASSERT_TRUE(dd.ok());
  EXPECT_DOUBLE_EQ(*dd, 9.5);
  auto u = FlagAsUint64(*cli, "b", 0);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(*u, 7u);
  EXPECT_TRUE(FlagAsDouble(*cli, "bad", 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(FlagAsUint64(*cli, "bad", 0).status().IsInvalidArgument());
  // strtoull alone would wrap -1 around to 2^64 - 1.
  EXPECT_TRUE(FlagAsUint64(*cli, "neg", 0).status().IsInvalidArgument());
}

// ---------------------------------------------------------------- Commands

TEST(CliRunTest, HelpAndUnknown) {
  std::ostringstream out;
  auto help = ParseCli({"help"});
  ASSERT_TRUE(help.ok());
  EXPECT_TRUE(RunCli(*help, out).ok());
  EXPECT_NE(out.str().find("usage: anonsafe"), std::string::npos);

  auto unknown = ParseCli({"frobnicate"});
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(RunCli(*unknown, out).IsInvalidArgument());
}

TEST(CliRunTest, StatsOnSampleFile) {
  const std::string path = TempPath("cli_stats.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"stats", path});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("transactions"), std::string::npos);
  EXPECT_NE(out.str().find("12"), std::string::npos);
  EXPECT_NE(out.str().find("frequency groups"), std::string::npos);
}

TEST(CliRunTest, StatsMissingFileFails) {
  auto cli = ParseCli({"stats", "/no/such/file.dat"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsIOError());
}

TEST(CliRunTest, StatsWrongArity) {
  auto cli = ParseCli({"stats"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, AssessProducesDecision) {
  const std::string path = TempPath("cli_assess.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("decision:"), std::string::npos);
}

TEST(CliRunTest, AssessRejectsBadTolerance) {
  const std::string path = TempPath("cli_assess2.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=nope"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, AnonymizeRoundTrip) {
  const std::string in = TempPath("cli_anon_in.dat");
  const std::string out_path = TempPath("cli_anon_out.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"anonymize", in, out_path, "--seed=99"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());

  auto original = ReadFimiFile(in);
  auto anonymized = ReadFimiFile(out_path);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(anonymized.ok());
  EXPECT_EQ(original->database.num_transactions(),
            anonymized->database.num_transactions());
  // Frequencies preserved as a multiset even though labels moved.
  auto ot = FrequencyTable::Compute(original->database);
  auto at = FrequencyTable::Compute(anonymized->database);
  ASSERT_TRUE(ot.ok());
  ASSERT_TRUE(at.ok());
  std::vector<SupportCount> os = ot->supports(), as = at->supports();
  // The anonymized file may have fewer *labels* if some item never
  // appears; supports themselves must match as sorted multisets over the
  // appearing items.
  std::sort(os.begin(), os.end());
  std::sort(as.begin(), as.end());
  os.erase(std::remove(os.begin(), os.end(), 0u), os.end());
  as.erase(std::remove(as.begin(), as.end(), 0u), as.end());
  EXPECT_EQ(os, as);
}

TEST(CliRunTest, GenerateWritesBenchmarkStandIn) {
  const std::string out_path = TempPath("cli_gen.dat");
  auto cli =
      ParseCli({"generate", "CHESS", out_path, "--scale=0.2", "--seed=5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  auto generated = ReadFimiFile(out_path);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(generated->database.num_items(), 75u);
  auto table = FrequencyTable::Compute(generated->database);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(FrequencyGroups::Build(*table).num_groups(), 73u);
}

TEST(CliRunTest, GenerateUnknownBenchmarkFails) {
  auto cli = ParseCli({"generate", "NOPE", TempPath("x.dat")});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsNotFound());
}

TEST(CliRunTest, SimilarityOnSampleFile) {
  const std::string path = TempPath("cli_sim.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"similarity", path, "--seed=3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("mean alpha"), std::string::npos);
}

TEST(CliRunTest, RiskRankingOnSampleFile) {
  const std::string path = TempPath("cli_risk.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"risk", path, "--top=3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("crack prob."), std::string::npos);
  EXPECT_NE(out.str().find("O-estimate"), std::string::npos);
}

TEST(CliRunTest, DefendMergeProducesSaferFile) {
  const std::string in = TempPath("cli_defend_in.dat");
  const std::string out_path = TempPath("cli_defend_out.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"defend", in, out_path, "--tolerance=0.4",
                       "--mode=merge"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("merge defense"), std::string::npos);
  auto defended = ReadFimiFile(out_path);
  ASSERT_TRUE(defended.ok());
  EXPECT_EQ(defended->database.num_transactions(), 12u);
}

TEST(CliRunTest, DefendRejectsUnknownMode) {
  const std::string in = TempPath("cli_defend_bad.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"defend", in, TempPath("o.dat"), "--mode=wat"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, BeliefTemplateAndAttackFlow) {
  const std::string data = TempPath("cli_attack.dat");
  const std::string belief = TempPath("cli_attack.belief");
  WriteSampleFile(data);
  auto make = ParseCli({"belief", data, belief});
  ASSERT_TRUE(make.ok());
  std::ostringstream out1;
  ASSERT_TRUE(RunCli(*make, out1).ok());
  auto attack = ParseCli({"attack", data, belief, "--top=2"});
  ASSERT_TRUE(attack.ok());
  std::ostringstream out2;
  ASSERT_TRUE(RunCli(*attack, out2).ok());
  EXPECT_NE(out2.str().find("alpha = 1.0000"), std::string::npos);
  EXPECT_NE(out2.str().find("O-estimate"), std::string::npos);
}

TEST(CliRunTest, AttackMissingBeliefFileFails) {
  const std::string data = TempPath("cli_attack2.dat");
  WriteSampleFile(data);
  auto attack = ParseCli({"attack", data, "/no/such.belief"});
  ASSERT_TRUE(attack.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*attack, out).IsIOError());
}

TEST(CliRunTest, MineWithRulesAndBadAlgorithm) {
  const std::string path = TempPath("cli_mine2.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"mine", path, "--min-support=0.2",
                       "--min-confidence=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("association rules"), std::string::npos);
  auto bad = ParseCli({"mine", path, "--algorithm=magic"});
  ASSERT_TRUE(bad.ok());
  std::ostringstream out2;
  EXPECT_TRUE(RunCli(*bad, out2).IsInvalidArgument());
}

// ----------------------------------------------------------- Observability

/// Restores the process-wide observability switches a test flipped.
struct ObsSwitchGuard {
  ~ObsSwitchGuard() {
    obs::SetTracingEnabled(false);
    obs::SetMetricsEnabled(false);
  }
};

TEST(CliRunTest, AssessWithTracePrintsPhaseTable) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_trace.dat");
  WriteSampleFile(path);
  // Tolerance low enough that the recipe falls through to the alpha
  // bisection, so all phases appear.
  auto cli = ParseCli({"assess", path, "--tolerance=0.05", "--trace"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  const std::string text = out.str();
  EXPECT_NE(text.find("trace (assess):"), std::string::npos);
  EXPECT_NE(text.find("recipe.assess_risk"), std::string::npos);
  EXPECT_NE(text.find("recipe.point_valued_check"), std::string::npos);
  EXPECT_NE(text.find("recipe.alpha_probe"), std::string::npos);
  EXPECT_NE(text.find("core.oestimate"), std::string::npos);
  EXPECT_NE(text.find("graph.consistency_build"), std::string::npos);
  EXPECT_NE(text.find("% of root"), std::string::npos);
}

TEST(CliRunTest, AssessWithMetricsOutWritesJsonAndProm) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_metrics.dat");
  const std::string json_path = TempPath("cli_metrics.json");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.05",
                       "--metrics-out=" + json_path});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("metrics: " + json_path), std::string::npos);

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream buf;
  buf << json.rdbuf();
  EXPECT_NE(buf.str().find("\"anonsafe_recipe_runs_total\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"anonsafe_alpha_probes_total\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"p95\""), std::string::npos);

  std::ifstream prom(TempPath("cli_metrics.prom"));
  ASSERT_TRUE(prom.good());
  std::stringstream pbuf;
  pbuf << prom.rdbuf();
  EXPECT_NE(pbuf.str().find("# TYPE anonsafe_recipe_assess_risk_seconds "
                            "histogram"),
            std::string::npos);
}

TEST(CliRunTest, MetricsOutToUnwritablePathFails) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_metrics_bad.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path,
                       "--metrics-out=/no/such/dir/metrics.json"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsIOError());
}

TEST(CliRunTest, ReportOnSampleFile) {
  const std::string path = TempPath("cli_report.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"report", path, "--tolerance=0.3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("Disclosure Risk Report"), std::string::npos);
}

// ---------------------------------------------------------------- Adversary

TEST(CliRunTest, AssessWithAdversaryPrintsProvenance) {
  const std::string path = TempPath("cli_adversary.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.5",
                       "--adversary=probabilistic:span=1,sigma=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("decision:"), std::string::npos);
  EXPECT_NE(out.str().find("adversary: probabilistic:span=1,sigma=0.5"),
            std::string::npos)
      << out.str();

  // The default interval adversary prints no provenance line — the
  // output stays byte-compatible with the historical CLI.
  auto plain = ParseCli({"assess", path, "--tolerance=0.5"});
  ASSERT_TRUE(plain.ok());
  std::ostringstream plain_out;
  ASSERT_TRUE(RunCli(*plain, plain_out).ok());
  EXPECT_EQ(plain_out.str().find("adversary:"), std::string::npos);
}

TEST(CliRunTest, AssessRejectsUnknownAdversary) {
  const std::string path = TempPath("cli_adversary_bad.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--adversary=laplace"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());

  auto bad_param =
      ParseCli({"assess", path, "--adversary=probabilistic:sigma=-1"});
  ASSERT_TRUE(bad_param.ok());
  std::ostringstream out2;
  EXPECT_TRUE(RunCli(*bad_param, out2).IsInvalidArgument());
}

TEST(CliRunTest, ReportJsonCarriesAdversaryProvenance) {
  const std::string path = TempPath("cli_adversary_json.dat");
  WriteSampleFile(path);
  auto cli = ParseCli(
      {"report", path, "--json", "--adversary=exact_support:k=2"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("\"adversary\":\"exact_support\""),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"adversary_params\":{\"k\":2}"),
            std::string::npos)
      << out.str();
}

// ------------------------------------------------------------ Typed flags

Status RunArgs(const std::vector<std::string>& args, std::string* text) {
  auto cli = ParseCli(args);
  if (!cli.ok()) return cli.status();
  std::ostringstream out;
  Status status = RunCli(*cli, out);
  if (text != nullptr) *text = out.str();
  return status;
}

TEST(CliFlagsTest, NegativeIntegerIsRejected) {
  const std::string path = TempPath("cli_flags_neg.dat");
  WriteSampleFile(path);
  // strtoull would wrap -1 to 2^64-1 threads.
  Status status = RunArgs({"assess", path, "--threads=-1"}, nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_TRUE(RunArgs({"report", path, "--seed=9007199254740993"}, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(RunArgs({"report", path, "--seed=2.5"}, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(RunArgs({"similarity", path, "--samples-per-fraction=x"},
                      nullptr)
                  .IsInvalidArgument());
}

TEST(CliFlagsTest, BoolFlagsTakeTheirValue) {
  const std::string path = TempPath("cli_flags_bool.dat");
  WriteSampleFile(path);
  // Cutoff 1 sends this fixture's one six-item block to the fallback,
  // which --prefer-sampler turns from the O-estimate into the sampler.
  std::string off, bare, on;
  ASSERT_TRUE(RunArgs({"plan", path, "--ryser-cutoff=1",
                       "--prefer-sampler=false"},
                      &off)
                  .ok());
  ASSERT_TRUE(RunArgs({"plan", path, "--ryser-cutoff=1", "--prefer-sampler"},
                      &bare)
                  .ok());
  ASSERT_TRUE(RunArgs({"plan", path, "--ryser-cutoff=1",
                       "--prefer-sampler=true"},
                      &on)
                  .ok());
  EXPECT_EQ(off.find("sampler"), std::string::npos) << off;
  EXPECT_NE(bare.find("sampler"), std::string::npos) << bare;
  EXPECT_EQ(bare, on);
  EXPECT_TRUE(RunArgs({"plan", path, "--prefer-sampler=yes"}, nullptr)
                  .IsInvalidArgument());
}

TEST(CliFlagsTest, UnknownFlagNamesTheAcceptedOnes) {
  const std::string path = TempPath("cli_flags_unknown.dat");
  WriteSampleFile(path);
  Status status = RunArgs({"report", path, "--sed=3"}, nullptr);
  ASSERT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("--sed"), std::string::npos);
  EXPECT_NE(status.message().find("--seed"), std::string::npos);
  EXPECT_NE(status.message().find("--json"), std::string::npos);
  // Snake case is the JSON spelling, not a flag.
  EXPECT_TRUE(RunArgs({"plan", path, "--ryser_cutoff=16"}, nullptr)
                  .IsInvalidArgument());
  // A render flag belongs to the verbs that render it.
  EXPECT_TRUE(RunArgs({"assess", path, "--json"}, nullptr)
                  .IsInvalidArgument());
  // --threads is a flag of the verbs that run in parallel only.
  EXPECT_TRUE(RunArgs({"similarity", path, "--threads=2"}, nullptr)
                  .IsInvalidArgument());
}

TEST(CliFlagsTest, GlobalAndRenderFlagsStayAccepted) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_flags_global.dat");
  const std::string csv = TempPath("cli_flags_global.csv");
  const std::string log = TempPath("cli_flags_global.log");
  WriteSampleFile(path);
  const obs::LogLevel level = obs::GetLogLevel();
  EXPECT_TRUE(RunArgs({"report", path, "--json", "--trace-format=json",
                       "--metrics-out=" + TempPath("cli_flags_m.json"),
                       "--log-level=info", "--log-file=" + log},
                      nullptr)
                  .ok());
  obs::SetLogLevel(level);
  ASSERT_TRUE(obs::SetLogFile("").ok());
  EXPECT_TRUE(RunArgs({"recommend-defense", path, "--csv=" + csv,
                       "--trace"},
                      nullptr)
                  .ok());
  EXPECT_TRUE(RunArgs({"recommend-defense", path, "--json"}, nullptr).ok());
}

TEST(CliFlagsTest, EveryCommandRejectsMisspelledFlags) {
  const std::string data = TempPath("cli_flags_every.dat");
  const std::string belief = TempPath("cli_flags_every.belief");
  const std::string out = TempPath("cli_flags_every_out.dat");
  WriteSampleFile(data);
  ASSERT_TRUE(RunArgs({"belief", data, belief}, nullptr).ok());
  const obs::LogLevel level = obs::GetLogLevel();
  struct Row {
    std::vector<std::string> args;  // command and positionals
    std::string misspelled;         // must fail, naming itself
    std::string accepted;           // must still work
  };
  const Row rows[] = {
      {{"stats", data}, "--top=3", "--log-level=warn"},
      {{"risk", data}, "--topp=3", "--top=3"},
      {{"mine", data}, "--algorithm=fpgrowth", "--min-support=0.25"},
      {{"belief", data, belief}, "--detla=0.01", "--delta=0.01"},
      {{"attack", data, belief}, "--tpo=2", "--top=2"},
      {{"defend", data, out}, "--tolerence=0.01", "--tolerance=0.4"},
      {{"anonymize", data, out}, "--sed=3", "--seed=3"},
      {{"generate", "CHESS", out}, "--scael=0.05", "--scale=0.05"},
  };
  for (const Row& row : rows) {
    std::vector<std::string> bad = row.args;
    bad.push_back(row.misspelled);
    Status status = RunArgs(bad, nullptr);
    ASSERT_TRUE(status.IsInvalidArgument())
        << row.misspelled << ": " << status;
    const std::string name =
        row.misspelled.substr(0, row.misspelled.find('='));
    EXPECT_NE(status.message().find("unknown flag " + name), std::string::npos)
        << status;
    EXPECT_NE(status.message().find("accepted:"), std::string::npos) << status;

    std::vector<std::string> good = row.args;
    good.push_back(row.accepted);
    EXPECT_TRUE(RunArgs(good, nullptr).ok()) << row.accepted;
  }
  obs::SetLogLevel(level);

  // serve: the misspelling fails before any server starts; accepted flags
  // get as far as their value checks.
  Status serve = RunArgs({"serve", "--wokers=4"}, nullptr);
  ASSERT_TRUE(serve.IsInvalidArgument()) << serve;
  EXPECT_NE(serve.message().find("unknown flag --wokers"), std::string::npos);
  EXPECT_NE(serve.message().find("--workers"), std::string::npos);
  serve = RunArgs({"serve", "--port=0", "--workers=4", "--tenant-rate=-1"},
                  nullptr);
  ASSERT_TRUE(serve.IsInvalidArgument()) << serve;
  EXPECT_NE(serve.message().find("must be non-negative"), std::string::npos)
      << serve;
}

TEST(CliFlagsTest, RecipeKnobsReachTheRecipe) {
  const std::string path = TempPath("cli_flags_runs.dat");
  WriteSampleFile(path);
  // Zero α-probe runs is a recipe error, so these fail only if the flag
  // reached the recipe options.
  EXPECT_TRUE(RunArgs({"assess", path, "--tolerance=0.05", "--runs=0"},
                      nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(RunArgs({"report", path, "--tolerance=0.05", "--runs=0"},
                      nullptr)
                  .IsInvalidArgument());
  std::string with_curve, without_curve;
  ASSERT_TRUE(RunArgs({"report", path, "--json"}, &with_curve).ok());
  ASSERT_TRUE(RunArgs({"report", path, "--json",
                       "--include-similarity-curve=false"},
                      &without_curve)
                  .ok());
  EXPECT_LT(without_curve.size(), with_curve.size());
}

}  // namespace
}  // namespace anonsafe
