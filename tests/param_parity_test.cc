// CLI ↔ serve parity, table-driven. The CLI verbs and their serve twins
// bind their knobs through the same param tables (serve/registry.h), so
// each row below — CLI flags paired with the serve params they spell —
// must produce byte-identical documents on both surfaces, at 1 and 8
// threads, and every entry of every shared table must be accepted by
// both surfaces and documented in the CLI usage.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "serve/server.h"
#include "tools/cli.h"
#include "util/json.h"

namespace anonsafe {
namespace serve {
namespace {

// 12 transactions over 6 items: one six-item block that the default
// Ryser cutoff evaluates exactly and `ryser_cutoff: 1` sends to the
// fallback, and an α bound that moves with `seed` and `runs`.
constexpr char kDataset[] =
    "1 2 3\n1 2\n1 4\n1 2 5\n2 3\n1 3 6\n2 4\n1 2 3\n5 6\n1 2\n3 4 5\n1 6\n";

/// A file per test: ctest runs the tests of this binary concurrently.
std::string DatasetPath() {
  const std::string path =
      ::testing::TempDir() + "/param_parity_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".dat";
  std::ofstream out(path);
  out << kDataset;
  return path;
}

json::Value Send(Server& server, const std::string& line) {
  auto parsed = json::Value::Parse(server.HandleLine(line));
  EXPECT_TRUE(parsed.ok());
  return parsed.ok() ? *parsed : json::Value();
}

bool IsOk(const json::Value& response) {
  const json::Value* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

std::string LoadDataset(Server& server, const std::string& path) {
  json::Value load = Send(
      server, "{\"schema_version\":2,\"verb\":\"load_dataset\","
              "\"params\":{\"path\":\"" + path + "\"}}");
  EXPECT_TRUE(IsOk(load));
  return load.Find("result")->GetString("dataset").value_or("");
}

/// `anonsafe <args>`'s output, or a failure naming the args.
Result<std::string> RunCliArgs(const std::vector<std::string>& args) {
  ANONSAFE_ASSIGN_OR_RETURN(CliInvocation cli, ParseCli(args));
  std::ostringstream out;
  ANONSAFE_RETURN_IF_ERROR(RunCli(cli, out));
  std::string text = out.str();
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// A verb request: `{"dataset":"<key>",<members>}` as its params.
std::string Request(const std::string& verb, const std::string& key,
                    const std::string& members) {
  return "{\"schema_version\":2,\"verb\":\"" + verb +
         "\",\"params\":{\"dataset\":\"" + key + "\"" +
         (members.empty() ? "" : "," + members) + "}}";
}

/// One parity row: CLI flags and the serve params they spell. `base`
/// names an earlier row this one differs from only in its new knobs;
/// the documents must differ too, so a dropped knob cannot pass.
struct Row {
  std::vector<std::string> flags;
  std::string params;
  int base = -1;
};

// `report --json` ↔ `assess_risk` result.report ↔ an assess_risk_batch
// item. `threads` comes from the thread loop.
const Row kReportRows[] = {
    {{}, ""},
    {{"--tolerance=0.05"}, "\"tolerance\":0.05", 0},
    {{"--tolerance=0.05", "--runs=2"}, "\"tolerance\":0.05,\"runs\":2", 1},
    {{"--tolerance=0.05", "--runs=1"}, "\"tolerance\":0.05,\"runs\":1"},
    {{"--tolerance=0.05", "--runs=1", "--seed=3"},
     "\"tolerance\":0.05,\"runs\":1,\"seed\":3",
     3},
    {{"--include-similarity-curve=false", "--estimator=auto"},
     "\"include_similarity_curve\":false,\"estimator\":\"auto\"",
     0},
    {{"--adversary=probabilistic:span=1,sigma=0.5"},
     "\"adversary\":\"probabilistic:span=1,sigma=0.5\"",
     0},
    {{"--estimator=exact", "--adversary=exact_support:k=2"},
     "\"estimator\":\"exact\",\"adversary\":\"exact_support:k=2\"",
     0},
};

// `recommend-defense --json` ↔ `recommend_defense` result.frontier.
const Row kDefenseRows[] = {
    {{}, ""},
    {{"--ryser-cutoff=1"}, "\"ryser_cutoff\":1", 0},
    {{"--ryser-cutoff=1", "--prefer-sampler"},
     "\"ryser_cutoff\":1,\"prefer_sampler\":true",
     1},
    {{"--seed=5"}, "\"seed\":5", 0},
};

std::vector<std::string> CliArgs(const char* verb, const std::string& path,
                                 const Row& row, size_t threads) {
  std::vector<std::string> args = {verb, path, "--json",
                                   "--threads=" + std::to_string(threads)};
  args.insert(args.end(), row.flags.begin(), row.flags.end());
  return args;
}

std::string WithThreads(const std::string& params, size_t threads) {
  return params + (params.empty() ? "" : ",") +
         "\"threads\":" + std::to_string(threads);
}

TEST(ParamParityTest, ReportMatchesAssessRiskAndBatchItems) {
  const std::string path = DatasetPath();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Server server;
    const std::string key = LoadDataset(server, path);
    std::vector<std::string> cli_docs;
    std::string items;
    for (const Row& row : kReportRows) {
      Result<std::string> cli =
          RunCliArgs(CliArgs("report", path, row, threads));
      ASSERT_TRUE(cli.ok()) << row.params << ": " << cli.status();
      json::Value single =
          Send(server, Request("assess_risk", key,
                               WithThreads(row.params, threads)));
      ASSERT_TRUE(IsOk(single)) << row.params;
      EXPECT_EQ(single.Find("result")->Find("report")->Dump(), *cli)
          << row.params << " at threads=" << threads;
      if (row.base >= 0) {
        EXPECT_TRUE(*cli != cli_docs[row.base])
            << row.params << " changed nothing";
      }
      cli_docs.push_back(*cli);
      items += (items.empty() ? "{" : ",{") + row.params + "}";
    }
    json::Value batch = Send(
        server,
        Request("assess_risk_batch", key,
                "\"threads\":" + std::to_string(threads) + ",\"items\":[" +
                    items + "]"));
    ASSERT_TRUE(IsOk(batch));
    const std::vector<json::Value>& envelopes =
        batch.Find("result")->Find("items")->items();
    ASSERT_EQ(envelopes.size(), cli_docs.size());
    for (size_t i = 0; i < envelopes.size(); ++i) {
      ASSERT_TRUE(IsOk(envelopes[i])) << kReportRows[i].params;
      EXPECT_EQ(envelopes[i].Find("report")->Dump(), cli_docs[i])
          << kReportRows[i].params << " at threads=" << threads;
    }
  }
}

TEST(ParamParityTest, RecommendDefenseMatchesFrontier) {
  const std::string path = DatasetPath();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Server server;
    const std::string key = LoadDataset(server, path);
    std::vector<std::string> cli_docs;
    for (const Row& row : kDefenseRows) {
      Result<std::string> cli =
          RunCliArgs(CliArgs("recommend-defense", path, row, threads));
      ASSERT_TRUE(cli.ok()) << row.params << ": " << cli.status();
      json::Value response =
          Send(server, Request("recommend_defense", key,
                               WithThreads(row.params, threads)));
      ASSERT_TRUE(IsOk(response)) << row.params;
      EXPECT_EQ(response.Find("result")->Find("frontier")->Dump(), *cli)
          << row.params << " at threads=" << threads;
      if (row.base >= 0) {
        EXPECT_TRUE(*cli != cli_docs[row.base])
            << row.params << " changed nothing";
      }
      cli_docs.push_back(*cli);
    }
  }
}

/// Every non-default knob of the two parity tables appears in some row.
TEST(ParamParityTest, RowsCoverEverySharedParam) {
  auto covered = [](const auto& rows, const ParamTable& table) {
    for (const ParamSpec& spec : table) {
      if (std::string(spec.name) == "threads") continue;  // the thread loop
      const std::string key = "\"" + std::string(spec.name) + "\":";
      bool found = false;
      for (const Row& row : rows) {
        found |= row.params.find(key) != std::string::npos;
      }
      EXPECT_TRUE(found) << spec.name << " has no parity row";
    }
  };
  covered(kReportRows, VerbParams().assess_risk);
  covered(kDefenseRows, VerbParams().recommend_defense);
}

/// A value each shared param accepts, as a flag and as JSON; a table
/// entry missing here fails the test below.
const std::map<std::string, std::pair<std::string, std::string>>&
SampleValues() {
  static const auto* kValues =
      new std::map<std::string, std::pair<std::string, std::string>>{
          {"tolerance", {"0.3", "0.3"}},
          {"include_similarity_curve", {"false", "false"}},
          {"estimator", {"auto", "\"auto\""}},
          {"adversary", {"exact_support:k=2", "\"exact_support:k=2\""}},
          {"seed", {"9007199254740992", "9007199254740992"}},
          {"runs", {"2", "2"}},
          {"threads", {"2", "2"}},
          {"ryser_cutoff", {"16", "16"}},
          {"prefer_sampler", {"true", "true"}},
          {"samples_per_fraction", {"2", "2"}},
          {"delta", {"0.1", "0.1"}},
      };
  return *kValues;
}

std::string KebabCase(const char* name) {
  std::string flag(name);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

TEST(ParamParityTest, EveryTableEntryWorksOnBothSurfaces) {
  const std::string path = DatasetPath();
  Server server;
  const std::string key = LoadDataset(server, path);
  const std::string usage = CliUsage();
  struct Surface {
    const char* cli_verb;
    const ParamTable& table;
    const char* serve_verb;  // null: CLI only
  };
  const Surface surfaces[] = {
      {"report", VerbParams().assess_risk, "assess_risk"},
      {"assess", VerbParams().recipe, "assess_risk"},
      {"recommend-defense", VerbParams().recommend_defense,
       "recommend_defense"},
      {"similarity", VerbParams().similarity, "similarity"},
      {"plan", VerbParams().plan, nullptr},
  };
  for (const Surface& surface : surfaces) {
    for (const ParamSpec& spec : surface.table) {
      SCOPED_TRACE(std::string(surface.cli_verb) + " " + spec.name);
      auto sample = SampleValues().find(spec.name);
      ASSERT_NE(sample, SampleValues().end()) << "no sample value";
      const std::string flag = "--" + KebabCase(spec.name);
      EXPECT_TRUE(usage.find(flag + "=") != std::string::npos ||
                  usage.find(flag + "]") != std::string::npos)
          << flag << " missing from CliUsage()";
      Result<std::string> cli = RunCliArgs(
          {surface.cli_verb, path, flag + "=" + sample->second.first});
      EXPECT_TRUE(cli.ok()) << cli.status();
      if (surface.serve_verb != nullptr) {
        EXPECT_TRUE(IsOk(Send(
            server, Request(surface.serve_verb, key,
                            "\"" + std::string(spec.name) +
                                "\":" + sample->second.second))));
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace anonsafe
