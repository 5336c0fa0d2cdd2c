#include "serve/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/dataset_cache.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "tools/cli.h"
#include "util/json.h"

namespace anonsafe {
namespace serve {
namespace {

// The Figure 8 running example scale: 4 items, 10 transactions, two
// frequency groups.
constexpr char kDataset[] =
    "0 1 2\n0 1\n1 2 3\n0 2 3\n1 3\n0 1 3\n2 3\n0 3\n1 2\n0 1 2 3\n";

// One file per test: ctest runs the tests of this binary concurrently,
// and a shared path could be read while another test rewrites it.
std::string WriteDatasetFile() {
  const std::string path =
      ::testing::TempDir() + "/serve_test_" +
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

std::string ErrorCode(const json::Value& response) {
  const json::Value* error = response.Find("error");
  if (error == nullptr) return "";
  auto code = error->GetString("code");
  return code.ok() ? *code : "";
}

std::string LoadDataset(Server& server,
                        const std::string& content = kDataset) {
  json::Value response = Send(
      server,
      "{\"schema_version\":1,\"id\":1,\"verb\":\"load_dataset\","
      "\"params\":{\"content\":\"" +
          [&] {
            std::string escaped;
            for (char c : content) {
              if (c == '\n') {
                escaped += "\\n";
              } else {
                escaped += c;
              }
            }
            return escaped;
          }() +
          "\"}}");
  EXPECT_TRUE(IsOk(response));
  auto key = response.Find("result")->GetString("dataset");
  EXPECT_TRUE(key.ok());
  return key.ok() ? *key : "";
}

TEST(ServeProtocolTest, MalformedJsonIsParseError) {
  Server server;
  json::Value response = Send(server, "this is not json");
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), kErrParse);
  // A JSON scalar is equally not a request.
  EXPECT_EQ(ErrorCode(Send(server, "42")), kErrParse);
}

TEST(ServeProtocolTest, OversizedLineIsRejected) {
  ServerOptions options;
  options.max_line_bytes = 100;
  Server server(options);
  json::Value response = Send(server, std::string(200, 'x'));
  EXPECT_EQ(ErrorCode(response), kErrOversizedLine);
}

TEST(ServeProtocolTest, UnknownVerb) {
  Server server;
  json::Value response =
      Send(server, "{\"schema_version\":1,\"id\":7,\"verb\":\"frobnicate\"}");
  EXPECT_EQ(ErrorCode(response), kErrUnknownVerb);
  // The id is echoed so the client can correlate.
  EXPECT_EQ(response.Find("id")->AsDouble(), 7.0);
}

TEST(ServeProtocolTest, SleepVerbRequiresTestGate) {
  Server server;  // enable_test_verbs defaults to false
  json::Value response = Send(
      server,
      "{\"schema_version\":1,\"verb\":\"sleep\",\"params\":{\"millis\":1}}");
  EXPECT_EQ(ErrorCode(response), kErrUnknownVerb);
}

TEST(ServeProtocolTest, MissingOrWrongSchemaVersion) {
  Server server;
  EXPECT_EQ(ErrorCode(Send(server, "{\"verb\":\"metrics\"}")),
            kErrBadSchemaVersion);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":3,\"verb\":\"metrics\"}")),
            kErrBadSchemaVersion);
  EXPECT_EQ(
      ErrorCode(Send(server,
                     "{\"schema_version\":\"1\",\"verb\":\"metrics\"}")),
      kErrBadSchemaVersion);
}

TEST(ServeProtocolTest, MissingVerbAndBadParams) {
  Server server;
  EXPECT_EQ(ErrorCode(Send(server, "{\"schema_version\":1}")),
            kErrInvalidParams);
  EXPECT_EQ(ErrorCode(Send(server,
                           "{\"schema_version\":1,\"verb\":\"metrics\","
                           "\"params\":[]}")),
            kErrInvalidParams);
}

TEST(ServeTest, LoadAssessFlowAndNotFound) {
  Server server;
  const std::string key = LoadDataset(server);
  ASSERT_FALSE(key.empty());

  json::Value missing =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"assess_risk\","
           "\"params\":{\"dataset\":\"nope\"}}");
  EXPECT_EQ(ErrorCode(missing), kErrNotFound);

  json::Value assess =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"assess_risk\","
           "\"params\":{\"dataset\":\"" + key + "\"}}");
  ASSERT_TRUE(IsOk(assess));
  const json::Value* report = assess.Find("result")->Find("report");
  ASSERT_NE(report, nullptr);
  auto version = report->GetNumber("schema_version");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1.0);
  EXPECT_TRUE(report->Find("recipe") != nullptr);
}

TEST(ServeTest, RepeatedLoadHitsCache) {
  Server server;
  const std::string key1 = LoadDataset(server);

  json::Value second = Send(
      server,
      "{\"schema_version\":1,\"verb\":\"load_dataset\","
      "\"params\":{\"content\":\"0 1 2\\n0 1\\n1 2 3\\n0 2 3\\n1 3\\n"
      "0 1 3\\n2 3\\n0 3\\n1 2\\n0 1 2 3\\n\"}}");
  ASSERT_TRUE(IsOk(second));
  auto cached = second.Find("result")->GetBoolOr("cached", false);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(*cached);
  auto key2 = second.Find("result")->GetString("dataset");
  ASSERT_TRUE(key2.ok());
  EXPECT_EQ(*key2, key1);

  // The hit is observable in the metrics verb, which is how the
  // acceptance check verifies re-parse was skipped.
  json::Value metrics =
      Send(server, "{\"schema_version\":1,\"verb\":\"metrics\"}");
  ASSERT_TRUE(IsOk(metrics));
  auto prometheus = metrics.Find("result")->GetString("prometheus");
  ASSERT_TRUE(prometheus.ok());
  EXPECT_NE(prometheus->find("anonsafe_serve_dataset_cache_hits_total"),
            std::string::npos);
}

TEST(ServeTest, RepeatedAssessReusesRecipeArtifacts) {
  Server server;
  const std::string key = LoadDataset(server);
  const std::string request =
      "{\"schema_version\":1,\"verb\":\"assess_risk\","
      "\"params\":{\"dataset\":\"" + key + "\"}}";
  json::Value first = Send(server, request);
  json::Value second = Send(server, request);
  ASSERT_TRUE(IsOk(first));
  ASSERT_TRUE(IsOk(second));
  EXPECT_EQ(first.Find("result")->Dump(), second.Find("result")->Dump());

  json::Value metrics =
      Send(server, "{\"schema_version\":1,\"verb\":\"metrics\"}");
  auto prometheus = metrics.Find("result")->GetString("prometheus");
  ASSERT_TRUE(prometheus.ok());
  EXPECT_NE(prometheus->find("anonsafe_recipe_artifact_hits_total"),
            std::string::npos);
}

/// (frequency counts, group builds) made so far in this process.
std::pair<uint64_t, uint64_t> CountsAndGroupBuilds() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("anonsafe_frequency_counts_total")->value(),
          registry.GetCounter("anonsafe_group_builds_total")->value()};
}

/// The counts and group builds one request makes.
std::pair<uint64_t, uint64_t> WorkOf(Server& server,
                                     const std::string& line) {
  const auto before = CountsAndGroupBuilds();
  json::Value response = Send(server, line);
  EXPECT_TRUE(IsOk(response)) << response.Dump();
  const auto after = CountsAndGroupBuilds();
  return {after.first - before.first, after.second - before.second};
}

TEST(ServeTest, ResidentDatasetIsCountedOnceAtLoad) {
  using Work = std::pair<uint64_t, uint64_t>;
  Server server;  // metrics on
  const auto before = CountsAndGroupBuilds();
  const std::string key = LoadDataset(server);
  EXPECT_EQ(CountsAndGroupBuilds(), Work(before.first + 1, before.second + 1));

  const std::string head =
      "{\"schema_version\":2,\"id\":2,\"params\":{\"dataset\":\"" + key +
      "\"";
  const std::string assess =
      head + ",\"include_similarity_curve\":false},\"verb\":\"assess_risk\"}";
  EXPECT_EQ(WorkOf(server, assess), Work(0, 0));
  EXPECT_EQ(WorkOf(server, assess), Work(0, 0));  // repeat
  EXPECT_EQ(WorkOf(server, head + ",\"items\":["
                                  "{\"tolerance\":0.1,"
                                  "\"include_similarity_curve\":false},"
                                  "{\"tolerance\":0.2,"
                                  "\"include_similarity_curve\":false},"
                                  "{\"tolerance\":0.3,"
                                  "\"include_similarity_curve\":false}]},"
                                  "\"verb\":\"assess_risk_batch\"}"),
            Work(0, 0));
  EXPECT_EQ(WorkOf(server, head + "},\"verb\":\"oestimate\"}"), Work(0, 0));
  // One count and one group build per sample, none of the dataset.
  const uint64_t samples = SimilarityOptions{}.sample_fractions.size() * 2;
  EXPECT_EQ(WorkOf(server, head + ",\"samples_per_fraction\":2},"
                                  "\"verb\":\"similarity\"}"),
            Work(samples, samples));
  EXPECT_EQ(
      WorkOf(server, head + "},\"verb\":\"recommend_defense\"}").first, 0u);
}

TEST(ServeTest, OEstimateAndSimilarityVerbs) {
  Server server;
  const std::string key = LoadDataset(server);

  json::Value oe = Send(server,
                        "{\"schema_version\":1,\"verb\":\"oestimate\","
                        "\"params\":{\"dataset\":\"" + key + "\"}}");
  ASSERT_TRUE(IsOk(oe));
  auto cracks = oe.Find("result")->GetNumber("expected_cracks");
  ASSERT_TRUE(cracks.ok());
  EXPECT_GE(*cracks, 0.0);

  json::Value similarity =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"similarity\","
           "\"params\":{\"dataset\":\"" + key +
               "\",\"samples_per_fraction\":2}}");
  ASSERT_TRUE(IsOk(similarity));
  const json::Value* curve = similarity.Find("result")->Find("curve");
  ASSERT_NE(curve, nullptr);
  EXPECT_TRUE(curve->is_array());
  EXPECT_FALSE(curve->items().empty());
}

TEST(ServeTest, EstimatorFieldSelectsPlanner) {
  Server server;
  const std::string key = LoadDataset(server);

  json::Value assess =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"assess_risk\","
           "\"params\":{\"dataset\":\"" + key +
               "\",\"estimator\":\"auto\"}}");
  ASSERT_TRUE(IsOk(assess));
  const json::Value* report = assess.Find("result")->Find("report");
  ASSERT_NE(report, nullptr);
  const json::Value* recipe = report->Find("recipe");
  ASSERT_NE(recipe, nullptr);
  auto estimator = recipe->GetString("estimator");
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(*estimator, "auto");
  // The planner path tags the interval estimate with per-block
  // provenance; the report must carry it through.
  const json::Value* blocks = recipe->Find("interval_blocks");
  ASSERT_NE(blocks, nullptr);
  EXPECT_TRUE(blocks->is_array());
  EXPECT_FALSE(blocks->items().empty());

  // And the per-block counters are scrapeable through the metrics verb.
  json::Value metrics =
      Send(server, "{\"schema_version\":1,\"verb\":\"metrics\"}");
  ASSERT_TRUE(IsOk(metrics));
  auto prometheus = metrics.Find("result")->GetString("prometheus");
  ASSERT_TRUE(prometheus.ok());
  EXPECT_NE(prometheus->find("anonsafe_planner_blocks_total"),
            std::string::npos);
}

TEST(ServeTest, UnknownEstimatorIsInvalidParams) {
  Server server;
  const std::string key = LoadDataset(server);
  json::Value response =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"assess_risk\","
           "\"params\":{\"dataset\":\"" + key +
               "\",\"estimator\":\"frobnicate\"}}");
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), kErrInvalidParams);
}

// Integer params carry a range: a number outside it, or not whole, is
// invalid_params before any cast — never an aborted process (threads,
// runs), an instantly expired deadline or a silently truncated value —
// and the server answers the next request normally.
TEST(ServeTest, OutOfRangeNumbersAreInvalidParams) {
  Server server;
  const std::string key = LoadDataset(server);
  const std::string assess =
      "{\"schema_version\":1,\"verb\":\"assess_risk\","
      "\"params\":{\"dataset\":\"" + key + "\"";
  for (const char* bad :
       {"\"threads\":1e12", "\"runs\":1e15", "\"deadline_ms\":1e300",
        "\"seed\":1e30", "\"seed\":2.5", "\"threads\":0.5",
        "\"threads\":-1"}) {
    json::Value response = Send(server, assess + "," + bad + "}}");
    EXPECT_EQ(ErrorCode(response), kErrInvalidParams) << bad;
    EXPECT_TRUE(IsOk(Send(server, assess + "}}"))) << "after " << bad;
  }
  // The bounds admit every value in use: seeds up to 2^53, threads at
  // nproc and 8.
  EXPECT_TRUE(IsOk(Send(server, assess + ",\"seed\":9007199254740992}}")));
  EXPECT_TRUE(IsOk(Send(server, assess + ",\"threads\":8}}")));
  EXPECT_TRUE(IsOk(Send(
      server,
      assess + ",\"threads\":" +
          std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
          "}}")));
}

// The tentpole acceptance criterion: the serve response embeds the exact
// document the one-shot CLI prints, at any thread count.
TEST(ServeTest, AssessRiskBitIdenticalToCli) {
  const std::string path = WriteDatasetFile();

  CliInvocation cli;
  cli.command = "report";
  cli.positional = {path};
  cli.flags["json"] = "true";
  std::ostringstream cli_out;
  ASSERT_TRUE(RunCli(cli, cli_out).ok());
  std::string cli_line = cli_out.str();
  ASSERT_FALSE(cli_line.empty());
  ASSERT_EQ(cli_line.back(), '\n');
  cli_line.pop_back();

  for (size_t threads : {size_t{1}, size_t{8}}) {
    Server server;
    json::Value load =
        Send(server,
             "{\"schema_version\":1,\"verb\":\"load_dataset\","
             "\"params\":{\"path\":\"" + path + "\"}}");
    ASSERT_TRUE(IsOk(load));
    auto key = load.Find("result")->GetString("dataset");
    ASSERT_TRUE(key.ok());
    json::Value assess =
        Send(server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                     "\"params\":{\"dataset\":\"" + *key +
                         "\",\"threads\":" + std::to_string(threads) + "}}");
    ASSERT_TRUE(IsOk(assess));
    EXPECT_EQ(assess.Find("result")->Find("report")->Dump(), cli_line)
        << "threads=" << threads;
  }
}

TEST(ServeTest, AdversaryReportsBitIdenticalToCli) {
  // The adversary seam spans three surfaces — CLI flag, serve param,
  // report provenance. For every registered adversary the serve report
  // document must be byte-identical to `report --json --adversary=...`.
  const std::string path = WriteDatasetFile();
  for (const std::string& spec :
       {std::string("interval"), std::string("probabilistic:span=1,sigma=0.5"),
        std::string("exact_support:k=2")}) {
    CliInvocation cli;
    cli.command = "report";
    cli.positional = {path};
    cli.flags["json"] = "true";
    cli.flags["adversary"] = spec;
    std::ostringstream cli_out;
    ASSERT_TRUE(RunCli(cli, cli_out).ok()) << spec;
    std::string cli_line = cli_out.str();
    ASSERT_FALSE(cli_line.empty()) << spec;
    cli_line.pop_back();  // trailing newline

    Server server;
    json::Value load =
        Send(server,
             "{\"schema_version\":1,\"verb\":\"load_dataset\","
             "\"params\":{\"path\":\"" + path + "\"}}");
    ASSERT_TRUE(IsOk(load)) << spec;
    auto key = load.Find("result")->GetString("dataset");
    ASSERT_TRUE(key.ok());
    json::Value assess =
        Send(server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                     "\"params\":{\"dataset\":\"" + *key +
                         "\",\"adversary\":\"" + spec + "\"}}");
    ASSERT_TRUE(IsOk(assess)) << spec;
    EXPECT_EQ(assess.Find("result")->Find("report")->Dump(), cli_line)
        << spec;
  }
}

TEST(ServeTest, ConcurrentClientsShareOneCachedDataset) {
  ServerOptions options;
  options.workers = 4;
  Server server(options);
  const std::string key = LoadDataset(server);
  const std::string request =
      "{\"schema_version\":1,\"verb\":\"assess_risk\","
      "\"params\":{\"dataset\":\"" + key + "\"}}";

  std::vector<std::string> responses(8);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = server.HandleLine(request); });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& response : responses) {
    EXPECT_EQ(response, responses[0]);
  }
  auto first = json::Value::Parse(responses[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(IsOk(*first));
}

// A load marks its entry unused and a lookup marks it used. Eviction
// drops the least recently used entry that has been used: an entry
// loaded and never looked up outlives one looked up since.
TEST(DatasetCacheTest, EvictsTheLeastRecentlyUsedOfTheUsedEntries) {
  DatasetCache cache(2);
  auto a = cache.LoadFromContent("0 1\n");
  auto b = cache.LoadFromContent("0 1 2\n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(cache.Find(a->dataset->key), nullptr);
  ASSERT_TRUE(cache.LoadFromContent("1 2\n").ok());
  EXPECT_EQ(cache.size(), 2u);
  // Plain LRU would have dropped b, touched before a.
  EXPECT_EQ(cache.Find(a->dataset->key), nullptr);
  EXPECT_NE(cache.Find(b->dataset->key), nullptr);
}

// With every resident entry unused the plain LRU entry goes. Loading
// an entry again, a hit, marks it unused after its lookup.
TEST(DatasetCacheTest, EvictsThePlainLruEntryWhenNoneIsUsed) {
  DatasetCache cache(2);
  auto a = cache.LoadFromContent("0 1\n");
  auto b = cache.LoadFromContent("0 1 2\n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_NE(cache.Find(a->dataset->key), nullptr);
  auto again = cache.LoadFromContent("0 1\n");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->hit);
  ASSERT_TRUE(cache.LoadFromContent("1 2\n").ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Find(b->dataset->key), nullptr);
  EXPECT_NE(cache.Find(a->dataset->key), nullptr);
}

// Under a hash that maps every content to one handle, a second load
// of different content is refused, naming the handle, and the first
// dataset stays resident under it; the first content loads again as a
// hit.
TEST(DatasetCacheTest, CollidingContentIsRefused) {
  DatasetCache cache(2, [](const std::string&) {
    return std::string("00000000000000ff");
  });
  auto a = cache.LoadFromContent("0 1\n");
  ASSERT_TRUE(a.ok());
  auto b = cache.LoadFromContent("0 1 2\n");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().ToString(),
            "FailedPrecondition: dataset handle 00000000000000ff is "
            "resident with different content");
  EXPECT_EQ(cache.size(), 1u);
  auto found = cache.Find("00000000000000ff");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, a->dataset);
  auto again = cache.LoadFromContent("0 1\n");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->hit);
  EXPECT_EQ(again->dataset, a->dataset);
}

// The handle is XXH64 at seed 0 in 16 lowercase hex digits: the
// published vectors, then prefixes of one FIMI text whose lengths end in
// each tail (1-3, 4-7 and 8-31 bytes) and run one or more 32-byte
// stripes, taken from the reference library (xxHash 0.8.1).
TEST(DatasetCacheTest, HashContentIsXxh64) {
  EXPECT_EQ(DatasetCache::HashContent(""), "ef46db3751d8e999");
  EXPECT_EQ(DatasetCache::HashContent("a"), "d24ec4f1a98c6e5b");
  EXPECT_EQ(DatasetCache::HashContent("abc"), "44bc2cf5ad770999");
  std::string text;
  for (int i = 0; i < 20; ++i) text += "0 1 2 3 4 5 6 7 8 9\n";
  const std::vector<std::pair<size_t, std::string>> prefixes = {
      {1, "633457081244afec"},   {3, "9e5e9d7b654002cb"},
      {4, "e4835eff9ff3e1da"},   {7, "0392d8f82d960756"},
      {8, "8b502d83c00541a7"},   {12, "c4c3ef14f013a357"},
      {31, "2e1a5f3a27b1b7c8"},  {32, "d22cc3b8f228bf76"},
      {63, "bcc4c85a0874bea3"},  {100, "a1c1d71cb523dcf7"},
      {300, "393b18872fc1ef50"},
  };
  for (const auto& [length, want] : prefixes) {
    EXPECT_EQ(DatasetCache::HashContent(text.substr(0, length)), want)
        << "prefix of " << length << " bytes";
  }
}

// A client that loads a dataset and stalls before its first request
// keeps it while others load and use nine datasets through the default
// cache of eight: their used entries are evicted first.
TEST(ServeTest, StalledLoadKeepsItsDataset) {
  Server server;
  auto assess = [](const std::string& key) {
    return "{\"schema_version\":1,\"verb\":\"assess_risk\","
           "\"params\":{\"dataset\":\"" +
           key + "\",\"include_similarity_curve\":false}}";
  };
  const std::string stalled = LoadDataset(server);
  std::string content = kDataset;
  for (int i = 0; i < 9; ++i) {
    content += "0 1 2 3\n";  // distinct bytes, so a distinct dataset
    const std::string key = LoadDataset(server, content);
    ASSERT_NE(key, stalled);
    EXPECT_TRUE(IsOk(Send(server, assess(key))));
  }
  json::Value response = Send(server, assess(stalled));
  EXPECT_TRUE(IsOk(response)) << response.Dump();
}

TEST(ServeTest, DeadlineCancelsLongRequest) {
  ServerOptions options;
  options.enable_test_verbs = true;
  Server server(options);
  const auto start = std::chrono::steady_clock::now();
  json::Value response =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"sleep\","
           "\"params\":{\"millis\":60000,\"deadline_ms\":50}}");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ErrorCode(response), kErrDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(ServeTest, QueueFullBackpressure) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 0;  // never wait: the second request is refused
  options.enable_test_verbs = true;
  Server server(options);

  std::thread occupant([&] {
    server.HandleLine(
        "{\"schema_version\":1,\"verb\":\"sleep\","
        "\"params\":{\"millis\":400}}");
  });
  while (server.outstanding() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  json::Value refused = Send(
      server,
      "{\"schema_version\":1,\"verb\":\"sleep\",\"params\":{\"millis\":1}}");
  EXPECT_EQ(ErrorCode(refused), kErrQueueFull);
  occupant.join();
}

TEST(ServeTest, ShutdownDrainsInFlightWork) {
  ServerOptions options;
  options.workers = 1;
  options.enable_test_verbs = true;
  Server server(options);

  std::string sleep_response;
  std::thread occupant([&] {
    sleep_response = server.HandleLine(
        "{\"schema_version\":1,\"verb\":\"sleep\","
        "\"params\":{\"millis\":200}}");
  });
  while (server.outstanding() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  json::Value drained =
      Send(server, "{\"schema_version\":1,\"verb\":\"shutdown\"}");
  ASSERT_TRUE(IsOk(drained));
  EXPECT_TRUE(server.draining());
  // Drain means drained: nothing admitted is still in flight when the
  // shutdown response exists.
  EXPECT_EQ(server.outstanding(), 0u);

  occupant.join();
  // The in-flight sleep completed successfully — nothing was dropped.
  auto sleep_parsed = json::Value::Parse(sleep_response);
  ASSERT_TRUE(sleep_parsed.ok());
  EXPECT_TRUE(IsOk(*sleep_parsed));

  // Post-shutdown compute requests are refused.
  json::Value late =
      Send(server,
           "{\"schema_version\":1,\"verb\":\"load_dataset\","
           "\"params\":{\"content\":\"0 1\\n\"}}");
  EXPECT_EQ(ErrorCode(late), kErrShuttingDown);
}

TEST(ServeTransportTest, StreamsSessionEndToEnd) {
  Server server;
  std::istringstream in(
      "{\"schema_version\":1,\"id\":1,\"verb\":\"load_dataset\","
      "\"params\":{\"content\":\"0 1 2\\n0 1\\n1 2\\n2 0\\n\"}}\n"
      "\n"
      "{\"schema_version\":1,\"id\":2,\"verb\":\"metrics\"}\n"
      "{\"schema_version\":1,\"id\":3,\"verb\":\"shutdown\"}\n"
      "{\"schema_version\":1,\"id\":4,\"verb\":\"metrics\"}\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStreams(server, in, out).ok());

  std::istringstream lines(out.str());
  std::vector<json::Value> responses;
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = json::Value::Parse(line);
    ASSERT_TRUE(parsed.ok());
    responses.push_back(*parsed);
  }
  // Blank input line skipped; the session stops at shutdown, so the
  // trailing metrics request is never read.
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(IsOk(responses[0]));
  EXPECT_TRUE(IsOk(responses[1]));
  EXPECT_TRUE(IsOk(responses[2]));
  EXPECT_EQ(responses[2].Find("id")->AsDouble(), 3.0);
}

TEST(ServeTransportTest, TcpSessionEndToEnd) {
  Server server;
  uint16_t port = 0;
  std::mutex mu;
  std::condition_variable cv;
  TcpServerOptions options;
  options.on_listening = [&](uint16_t bound) {
    std::lock_guard<std::mutex> lock(mu);
    port = bound;
    cv.notify_all();
  };
  Status serve_status = Status::OK();
  std::thread serving(
      [&] { serve_status = ServeTcp(server, options); });
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return port != 0; })) {
      serving.detach();
      GTEST_SKIP() << "TCP listen did not come up (sandboxed environment?)";
    }
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    server.HandleLine("{\"schema_version\":1,\"verb\":\"shutdown\"}");
    serving.join();
    GTEST_SKIP() << "loopback connect refused (sandboxed environment?)";
  }

  const std::string request =
      "{\"schema_version\":1,\"id\":1,\"verb\":\"metrics\"}\n"
      "{\"schema_version\":1,\"id\":2,\"verb\":\"shutdown\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
    if (std::count(received.begin(), received.end(), '\n') >= 2) break;
  }
  ::close(fd);
  serving.join();
  EXPECT_TRUE(serve_status.ok());

  std::istringstream lines(received);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  auto metrics = json::Value::Parse(line);
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(IsOk(*metrics));
  ASSERT_TRUE(std::getline(lines, line));
  auto drained = json::Value::Parse(line);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(IsOk(*drained));
}

// ------------------------------------------------ Request observability

// The timing-free shape of a span exported in a response's `trace` field.
std::string TraceShape(const json::Value& response) {
  const json::Value* trace = response.Find("trace");
  if (trace == nullptr) return "";
  const json::Value* spans = trace->Find("spans");
  if (spans == nullptr || !spans->is_array()) return "";
  std::string shape;
  for (const json::Value& span : spans->items()) {
    shape += span.GetStringOr("name", "?").value();
    shape += "@" + std::to_string(
                       static_cast<long long>(span.GetNumberOr("depth", -1)
                                                  .value()));
    const json::Value* parent = span.Find("parent");
    if (parent != nullptr && parent->is_number()) {
      shape += "<" + std::to_string(
                         static_cast<long long>(parent->AsDouble()));
    }
    if (const json::Value* annotations = span.Find("annotations")) {
      shape += annotations->Dump();
    }
    shape += ";";
  }
  return shape;
}

TEST(ServeObsTest, TraceFieldIsOptIn) {
  Server server;
  std::string key = LoadDataset(server);

  json::Value plain = Send(
      server, "{\"schema_version\":1,\"id\":2,\"verb\":\"assess_risk\","
              "\"params\":{\"dataset\":\"" + key + "\"}}");
  ASSERT_TRUE(IsOk(plain));
  EXPECT_EQ(plain.Find("trace"), nullptr);

  json::Value traced = Send(
      server, "{\"schema_version\":1,\"id\":3,\"verb\":\"assess_risk\","
              "\"params\":{\"dataset\":\"" + key + "\",\"trace\":true}}");
  ASSERT_TRUE(IsOk(traced));
  const json::Value* trace = traced.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetStringOr("trace_id", "").value(), "req-3");
  const json::Value* spans = trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  EXPECT_FALSE(spans->items().empty());
  EXPECT_EQ(spans->items()[0].GetStringOr("name", "").value(),
            "serve.assess_risk");

  // The trace rides on the envelope; the result stays bit-identical to
  // the untraced run.
  EXPECT_EQ(plain.Find("result")->Dump(), traced.Find("result")->Dump());
}

TEST(ServeObsTest, TracedSpanTreeIdenticalAtOneAndEightThreads) {
  // Fresh server per thread count: repeated assess_risk on one server
  // reuses cached recipe artifacts, which legitimately skips spans.
  auto traced_assess = [](size_t threads) {
    Server server;
    std::string key = LoadDataset(server);
    return Send(
        server, "{\"schema_version\":1,\"id\":2,\"verb\":\"assess_risk\","
                "\"params\":{\"dataset\":\"" + key +
                "\",\"trace\":true,\"threads\":" + std::to_string(threads) +
                "}}");
  };
  json::Value one = traced_assess(1);
  json::Value eight = traced_assess(8);
  ASSERT_TRUE(IsOk(one));
  ASSERT_TRUE(IsOk(eight));
  std::string shape_one = TraceShape(one);
  ASSERT_FALSE(shape_one.empty());
  EXPECT_EQ(shape_one, TraceShape(eight));
  // And the results themselves are bit-identical, as ever.
  EXPECT_EQ(one.Find("result")->Dump(), eight.Find("result")->Dump());
}

TEST(ServeObsTest, FlightRecorderRetainsOutcomes) {
  ServerOptions options;
  options.enable_test_verbs = true;
  options.workers = 1;
  options.queue_capacity = 0;
  Server server(options);
  std::string key = LoadDataset(server);

  // A deadline-exceeded request.
  Send(server, "{\"schema_version\":1,\"verb\":\"sleep\","
               "\"params\":{\"millis\":60000,\"deadline_ms\":50}}");
  // A queue-rejected request: occupy the single worker, then overflow.
  std::thread occupant([&] {
    server.HandleLine(
        "{\"schema_version\":1,\"verb\":\"sleep\","
        "\"params\":{\"millis\":300}}");
  });
  while (server.outstanding() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Send(server,
       "{\"schema_version\":1,\"verb\":\"sleep\",\"params\":{\"millis\":1}}");
  occupant.join();
  // And a parse error.
  server.HandleLine("not json");

  std::vector<std::string> outcomes;
  for (const RequestSummary& summary : server.flight_recorder().Snapshot()) {
    outcomes.push_back(summary.verb + ":" + summary.outcome);
  }
  auto has = [&](const std::string& entry) {
    return std::count(outcomes.begin(), outcomes.end(), entry) > 0;
  };
  EXPECT_TRUE(has("load_dataset:ok"));
  EXPECT_TRUE(has(std::string("sleep:") + kErrDeadlineExceeded));
  EXPECT_TRUE(has(std::string("sleep:") + kErrQueueFull));
  EXPECT_TRUE(has(std::string(":") + kErrParse));
  EXPECT_TRUE(has("sleep:ok"));
}

TEST(ServeObsTest, FlightRecorderEvictsOldestAndSkipsControlVerbs) {
  ServerOptions options;
  options.flight_recorder_capacity = 2;
  Server server(options);
  std::string key = LoadDataset(server);
  Send(server, "{\"schema_version\":1,\"id\":2,\"verb\":\"assess_risk\","
               "\"params\":{\"dataset\":\"" + key + "\"}}");
  // `metrics` and `debug` are observers, not requests worth debugging —
  // polling them must not evict real entries.
  Send(server, "{\"schema_version\":1,\"verb\":\"metrics\"}");
  Send(server, "{\"schema_version\":1,\"verb\":\"debug\"}");

  std::vector<RequestSummary> entries = server.flight_recorder().Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].verb, "load_dataset");
  EXPECT_EQ(entries[1].verb, "assess_risk");
  EXPECT_EQ(server.flight_recorder().total_recorded(), 2u);

  // A third real request evicts the oldest.
  Send(server, "{\"schema_version\":1,\"id\":3,\"verb\":\"assess_risk\","
               "\"params\":{\"dataset\":\"" + key + "\"}}");
  entries = server.flight_recorder().Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].verb, "assess_risk");
  EXPECT_EQ(entries[1].verb, "assess_risk");
}

TEST(ServeObsTest, DebugVerbReportsRecorderAndConfig) {
  ServerOptions options;
  options.workers = 3;
  options.slow_request_ms = 250;
  Server server(options);
  std::string key = LoadDataset(server);

  json::Value response =
      Send(server, "{\"schema_version\":1,\"id\":9,\"verb\":\"debug\"}");
  ASSERT_TRUE(IsOk(response));
  const json::Value* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->GetNumberOr("workers", 0).value(), 3.0);
  EXPECT_EQ(result->GetNumberOr("slow_request_ms", 0).value(), 250.0);
  EXPECT_EQ(result->GetNumberOr("outstanding", -1).value(), 0.0);
  EXPECT_FALSE(result->GetStringOr("log_level", "").value().empty());

  const json::Value* recorder = result->Find("flight_recorder");
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->GetNumberOr("recorded", 0).value(), 1.0);
  const json::Value* requests = recorder->Find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_TRUE(requests->is_array());
  ASSERT_EQ(requests->items().size(), 1u);
  const json::Value& entry = requests->items()[0];
  EXPECT_EQ(entry.GetStringOr("verb", "").value(), "load_dataset");
  EXPECT_EQ(entry.GetStringOr("outcome", "").value(), "ok");
  EXPECT_TRUE(entry.Find("total_ms") != nullptr);
}

TEST(ServeObsTest, AccessLogAndShutdownDump) {
  std::mutex log_mu;
  std::vector<std::string> lines;
  obs::LogLevel previous = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kInfo);
  obs::SetLogSinkForTest([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    lines.push_back(line);
  });

  {
    Server server;
    std::string key = LoadDataset(server);
    Send(server, "{\"schema_version\":1,\"id\":2,\"verb\":\"assess_risk\","
                 "\"params\":{\"dataset\":\"" + key + "\"}}");
    Send(server, "{\"schema_version\":1,\"verb\":\"shutdown\"}");
  }
  obs::SetLogSinkForTest(nullptr);
  obs::SetLogLevel(previous);

  // One serve.request access-log line per request (including shutdown),
  // plus the flight-recorder dump emitted while draining.
  std::vector<json::Value> requests;
  const json::Value* dump = nullptr;
  std::vector<json::Value> parsed_lines;
  for (const std::string& line : lines) {
    auto parsed = json::Value::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    parsed_lines.push_back(std::move(*parsed));
  }
  for (const json::Value& v : parsed_lines) {
    std::string event = v.GetStringOr("event", "").value();
    if (event == "serve.request") requests.push_back(v);
    if (event == "serve.flight_recorder_dump") dump = &v;
  }
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].GetStringOr("verb", "").value(), "load_dataset");
  EXPECT_EQ(requests[1].GetStringOr("verb", "").value(), "assess_risk");
  EXPECT_EQ(requests[1].GetStringOr("outcome", "").value(), "ok");
  EXPECT_FALSE(requests[1].GetStringOr("estimator", "").value().empty());
  EXPECT_FALSE(requests[1].GetStringOr("dataset", "").value().empty());
  EXPECT_TRUE(requests[1].Find("queue_ms") != nullptr);
  EXPECT_TRUE(requests[1].Find("exec_ms") != nullptr);
  EXPECT_TRUE(requests[1].Find("total_ms") != nullptr);

  ASSERT_NE(dump, nullptr);
  EXPECT_EQ(dump->GetNumberOr("recorded", 0).value(), 2.0);
  const json::Value* dumped = dump->Find("requests");
  ASSERT_NE(dumped, nullptr);
  ASSERT_TRUE(dumped->is_array());
  EXPECT_EQ(dumped->items().size(), 2u);
}

TEST(ServeObsTest, SlowRequestThresholdDumpsTrace) {
  std::mutex log_mu;
  std::vector<std::string> lines;
  obs::LogLevel previous = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kWarn);  // warn only: no access log
  obs::SetLogSinkForTest([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    lines.push_back(line);
  });

  ServerOptions options;
  options.enable_test_verbs = true;
  options.slow_request_ms = 10;
  {
    Server server(options);
    Send(server, "{\"schema_version\":1,\"verb\":\"sleep\","
                 "\"params\":{\"millis\":50}}");
  }
  obs::SetLogSinkForTest(nullptr);
  obs::SetLogLevel(previous);

  bool found = false;
  for (const std::string& line : lines) {
    auto parsed = json::Value::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    if (parsed->GetStringOr("event", "").value() != "serve.slow_request") {
      continue;
    }
    found = true;
    EXPECT_EQ(parsed->GetStringOr("verb", "").value(), "sleep");
    EXPECT_GE(parsed->GetNumberOr("exec_ms", 0).value(), 10.0);
    EXPECT_FALSE(parsed->GetStringOr("trace_id", "").value().empty());
    // The dumped table contains the verb's span.
    EXPECT_NE(parsed->GetStringOr("trace_table", "").value().find(
                  "serve.sleep"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace serve
}  // namespace anonsafe
