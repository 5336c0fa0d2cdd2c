// Protocol v2 coverage: the assess_risk_batch verb (bit-identity against
// sequential singles, per-item error envelopes, the v2 gate and the batch
// cap), server_info, per-tenant quotas, the v1 envelope regression
// guarantee, and pipelined/ordered responses over the epoll TCP loop.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"

namespace anonsafe {
namespace serve {
namespace {

constexpr char kDataset[] =
    "0 1 2\n0 1\n1 2 3\n0 2 3\n1 3\n0 1 3\n2 3\n0 3\n1 2\n0 1 2 3\n";

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

std::string EscapedDataset() {
  std::string escaped;
  for (char c : std::string(kDataset)) {
    if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

std::string LoadDataset(Server& server) {
  json::Value response =
      Send(server,
           "{\"schema_version\":2,\"id\":1,\"verb\":\"load_dataset\","
           "\"params\":{\"content\":\"" +
               EscapedDataset() + "\"}}");
  EXPECT_TRUE(IsOk(response));
  auto key = response.Find("result")->GetString("dataset");
  EXPECT_TRUE(key.ok());
  return key.ok() ? *key : "";
}

// The probe-grid items used by the bit-identity tests: distinct
// estimator/tolerance/seed combinations, plus a repeat of the first
// (exercising the intra-batch memo without changing the contract).
const char* const kProbeItems[] = {
    "{\"tolerance\":0.1}",
    "{\"tolerance\":0.25,\"estimator\":\"exact\"}",
    "{\"estimator\":\"sampler\",\"seed\":13}",
    "{\"tolerance\":0.1,\"include_similarity_curve\":false}",
    "{\"tolerance\":0.1}",
};

TEST(ServeBatchTest, BatchItemsBitIdenticalToSequentialSingles) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Server server;
    const std::string key = LoadDataset(server);

    // Sequential singles, each its own request.
    std::vector<std::string> single_reports;
    for (const char* item : kProbeItems) {
      std::string params(item);
      params.insert(1, "\"dataset\":\"" + key + "\",");
      json::Value response =
          Send(server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                       "\"params\":" +
                           params + "}");
      ASSERT_TRUE(IsOk(response)) << item;
      single_reports.push_back(response.Find("result")->Find("report")->Dump());
    }

    // One batch round trip carrying the same grid.
    std::string items;
    for (const char* item : kProbeItems) {
      if (!items.empty()) items += ",";
      items += item;
    }
    json::Value batch = Send(
        server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                "\"params\":{\"dataset\":\"" +
                    key + "\",\"threads\":" + std::to_string(threads) +
                    ",\"items\":[" + items + "]}}");
    ASSERT_TRUE(IsOk(batch));
    const json::Value* result = batch.Find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->GetString("dataset").value_or(""), key);
    const json::Value* out_items = result->Find("items");
    ASSERT_NE(out_items, nullptr);
    ASSERT_EQ(out_items->items().size(), single_reports.size());
    for (size_t i = 0; i < single_reports.size(); ++i) {
      const json::Value& env = out_items->items()[i];
      ASSERT_TRUE(IsOk(env)) << "item " << i;
      EXPECT_EQ(env.Find("report")->Dump(), single_reports[i])
          << "item " << i << " at threads=" << threads;
    }
  }
}

TEST(ServeBatchTest, PerItemErrorEnvelopes) {
  Server server;
  const std::string key = LoadDataset(server);
  json::Value batch = Send(
      server,
      "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
      "\"params\":{\"dataset\":\"" +
          key +
          "\",\"items\":["
          "{\"tolerance\":0.1},"              // fine
          "{\"estimator\":\"frobnicator\"},"  // unknown estimator
          "{\"tolerance\":\"loose\"},"        // wrong type
          "42,"                               // not an object
          "{\"deadline_ms\":5},"              // request-level param
          "{\"threads\":1e12}"                // out of range
          "]}}");
  ASSERT_TRUE(IsOk(batch));  // the batch itself succeeds
  const json::Value* items = batch.Find("result")->Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items().size(), 6u);
  EXPECT_TRUE(IsOk(items->items()[0]));
  for (size_t i = 1; i < 6; ++i) {
    const json::Value& env = items->items()[i];
    EXPECT_FALSE(IsOk(env)) << "item " << i;
    EXPECT_EQ(ErrorCode(env), kErrInvalidParams) << "item " << i;
  }
  // The server keeps serving.
  EXPECT_TRUE(IsOk(Send(server,
                        "{\"schema_version\":2,\"verb\":\"assess_risk\","
                        "\"params\":{\"dataset\":\"" + key + "\"}}")));
}

TEST(ServeBatchTest, BatchVerbRequiresV2Envelope) {
  Server server;
  const std::string key = LoadDataset(server);
  json::Value response = Send(
      server, "{\"schema_version\":1,\"verb\":\"assess_risk_batch\","
              "\"params\":{\"dataset\":\"" +
                  key + "\",\"items\":[{}]}}");
  // To a v1 client this server is indistinguishable from a v1 server,
  // where the verb does not exist.
  EXPECT_EQ(ErrorCode(response), kErrUnknownVerb);
  EXPECT_EQ(response.GetNumber("schema_version").value_or(0), 1.0);
}

TEST(ServeBatchTest, BatchLimitAndShapeErrors) {
  ServerOptions options;
  options.max_batch_items = 2;
  Server server(options);
  const std::string key = LoadDataset(server);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                        "\"params\":{\"dataset\":\"" +
                            key + "\",\"items\":[{},{},{}]}}")),
            kErrInvalidParams);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                        "\"params\":{\"dataset\":\"" +
                            key + "\",\"items\":[]}}")),
            kErrInvalidParams);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                        "\"params\":{\"dataset\":\"" +
                            key + "\",\"items\":{}}}")),
            kErrInvalidParams);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                        "\"params\":{\"items\":[{}]}}")),
            kErrInvalidParams);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
                        "\"params\":{\"dataset\":\"nope\",\"items\":[{}]}}")),
            kErrNotFound);
}

TEST(ServeInfoTest, ServerInfoAdvertisesVersionsVerbsAndLimits) {
  ServerOptions options;
  options.max_batch_items = 33;
  Server server(options);
  json::Value response =
      Send(server, "{\"schema_version\":1,\"verb\":\"server_info\"}");
  ASSERT_TRUE(IsOk(response));
  const json::Value* result = response.Find("result");
  ASSERT_NE(result, nullptr);

  const json::Value* versions = result->Find("schema_versions");
  ASSERT_NE(versions, nullptr);
  ASSERT_EQ(versions->items().size(), 2u);
  EXPECT_EQ(versions->items()[0].AsDouble(), 1.0);
  EXPECT_EQ(versions->items()[1].AsDouble(), 2.0);

  const json::Value* verbs = result->Find("verbs");
  ASSERT_NE(verbs, nullptr);
  bool saw_batch = false;
  bool saw_sleep = false;
  for (const json::Value& verb : verbs->items()) {
    const std::string name = verb.GetString("verb").value_or("");
    if (name == "assess_risk_batch") {
      saw_batch = true;
      EXPECT_EQ(verb.GetNumber("min_schema_version").value_or(0), 2.0);
    }
    if (name == "sleep") saw_sleep = true;
  }
  EXPECT_TRUE(saw_batch);
  // Test-only verbs are not advertised when the gate is off.
  EXPECT_FALSE(saw_sleep);

  const json::Value* limits = result->Find("limits");
  ASSERT_NE(limits, nullptr);
  EXPECT_EQ(limits->GetNumber("max_batch_items").value_or(0), 33.0);
  EXPECT_EQ(limits->GetNumber("max_line_bytes").value_or(0),
            static_cast<double>(options.max_line_bytes));
}

TEST(ServeInfoTest, ServerInfoAdvertisesAdversaryRegistry) {
  Server server;
  json::Value response =
      Send(server, "{\"schema_version\":1,\"verb\":\"server_info\"}");
  ASSERT_TRUE(IsOk(response));
  const json::Value* adversaries =
      response.Find("result")->Find("adversaries");
  ASSERT_NE(adversaries, nullptr);
  ASSERT_EQ(adversaries->items().size(), 3u);
  // Registry order is part of the contract — clients may index it.
  EXPECT_EQ(adversaries->items()[0].GetString("name").value_or(""),
            "interval");
  EXPECT_EQ(adversaries->items()[1].GetString("name").value_or(""),
            "probabilistic");
  EXPECT_EQ(adversaries->items()[2].GetString("name").value_or(""),
            "exact_support");
  for (const json::Value& adv : adversaries->items()) {
    EXPECT_NE(adv.Find("weighted"), nullptr);
    EXPECT_NE(adv.Find("supports_exact"), nullptr);
    EXPECT_NE(adv.Find("params"), nullptr);
    EXPECT_FALSE(adv.GetString("summary").value_or("").empty());
  }
}

TEST(ServeAdversaryTest, UnknownAdversaryIsInvalidParams) {
  Server server;
  const std::string key = LoadDataset(server);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                        "\"params\":{\"dataset\":\"" +
                            key + "\",\"adversary\":\"laplace\"}}")),
            kErrInvalidParams);
  // A known adversary with a malformed parameter is rejected the same
  // way — the spec parser validates against the registry entry.
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                        "\"params\":{\"dataset\":\"" +
                            key +
                            "\",\"adversary\":\"exact_support:k=0\"}}")),
            kErrInvalidParams);
}

// Engine refusals depend on the request, not on the server: an exact
// estimate whose matching-cover block exceeds the Ryser cutoff
// (OutOfRange) and a weighted adversary on a non-O-estimate engine
// (Unimplemented) are invalid_params, as single requests and as batch
// items, and the server keeps answering.
TEST(ServeAdversaryTest, EngineRefusalsAreInvalidParams) {
  Server server;
  // Items 0..29 with supports 1..30 over 32 transactions, plus item 30
  // in every transaction: the δ_med = 1/32 intervals chain items 0..29
  // into one band block of 30 > the Ryser cutoff of 22.
  std::string band;
  for (int t = 0; t < 32; ++t) {
    for (int i = t; i < 30; ++i) band += std::to_string(i) + " ";
    band += "30\\n";
  }
  json::Value load =
      Send(server,
           "{\"schema_version\":2,\"verb\":\"load_dataset\","
           "\"params\":{\"content\":\"" + band + "\"}}");
  ASSERT_TRUE(IsOk(load));
  const std::string key = *load.Find("result")->GetString("dataset");
  const std::string assess =
      "{\"schema_version\":2,\"verb\":\"assess_risk\","
      "\"params\":{\"dataset\":\"" + key + "\",";
  const char* const kRefused[] = {
      "\"estimator\":\"exact\"",
      "\"estimator\":\"auto\",\"adversary\":\"probabilistic\"",
  };
  for (const char* params : kRefused) {
    EXPECT_EQ(ErrorCode(Send(server, assess + params + "}}")),
              kErrInvalidParams)
        << params;
    json::Value batch =
        Send(server,
             "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
             "\"params\":{\"dataset\":\"" + key + "\",\"items\":[{" +
                 params + "},{}]}}");
    ASSERT_TRUE(IsOk(batch)) << params;
    const json::Value* items = batch.Find("result")->Find("items");
    ASSERT_NE(items, nullptr);
    ASSERT_EQ(items->items().size(), 2u);
    EXPECT_EQ(ErrorCode(items->items()[0]), kErrInvalidParams) << params;
    EXPECT_TRUE(IsOk(items->items()[1])) << params;
  }
  // The auto planner degrades the same block to an estimate.
  EXPECT_TRUE(IsOk(Send(server, assess + "\"estimator\":\"auto\"}}")));
}

TEST(ServeAdversaryTest, BatchAdversaryItemsBitIdenticalToSingles) {
  const char* const kAdversaryItems[] = {
      "{\"adversary\":\"interval\"}",
      "{\"adversary\":\"probabilistic:span=1,sigma=0.5\"}",
      "{\"adversary\":\"exact_support:k=2\"}",
  };
  Server server;
  const std::string key = LoadDataset(server);

  std::vector<std::string> single_reports;
  for (const char* item : kAdversaryItems) {
    std::string params(item);
    params.insert(1, "\"dataset\":\"" + key + "\",");
    json::Value response =
        Send(server, "{\"schema_version\":1,\"verb\":\"assess_risk\","
                     "\"params\":" +
                         params + "}");
    ASSERT_TRUE(IsOk(response)) << item;
    single_reports.push_back(response.Find("result")->Find("report")->Dump());
  }

  std::string items;
  for (const char* item : kAdversaryItems) {
    if (!items.empty()) items += ",";
    items += item;
  }
  json::Value batch = Send(
      server, "{\"schema_version\":2,\"verb\":\"assess_risk_batch\","
              "\"params\":{\"dataset\":\"" +
                  key + "\",\"items\":[" + items + "]}}");
  ASSERT_TRUE(IsOk(batch));
  const json::Value* results = batch.Find("result")->Find("items");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 3u);
  for (size_t i = 0; i < single_reports.size(); ++i) {
    const json::Value& entry = results->items()[i];
    ASSERT_TRUE(IsOk(entry)) << i;
    EXPECT_EQ(entry.Find("report")->Dump(), single_reports[i]) << i;
  }
}

TEST(ServeQuotaTest, TokenBucketRefillsAtConfiguredRate) {
  TenantQuotas quotas(/*rate=*/2.0, /*burst=*/2.0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(quotas.TryAcquireAt("a", t0));
  EXPECT_TRUE(quotas.TryAcquireAt("a", t0));
  EXPECT_FALSE(quotas.TryAcquireAt("a", t0));  // burst spent
  // An independent bucket: tenant b is unaffected by a's burn.
  EXPECT_TRUE(quotas.TryAcquireAt("b", t0));
  // Half a second at 2 tokens/s refills one token.
  EXPECT_TRUE(
      quotas.TryAcquireAt("a", t0 + std::chrono::milliseconds(500)));
  EXPECT_FALSE(
      quotas.TryAcquireAt("a", t0 + std::chrono::milliseconds(500)));
  EXPECT_EQ(quotas.num_tenants(), 2u);
}

TEST(ServeQuotaTest, QuotaExceededErrorAndExemptions) {
  ServerOptions options;
  options.enable_test_verbs = true;
  options.tenant_rate = 0.001;  // effectively no refill within the test
  options.tenant_burst = 2.0;
  Server server(options);

  const std::string sleep_a =
      "{\"schema_version\":2,\"tenant\":\"a\",\"verb\":\"sleep\","
      "\"params\":{\"millis\":0}}";
  EXPECT_TRUE(IsOk(Send(server, sleep_a)));
  EXPECT_TRUE(IsOk(Send(server, sleep_a)));
  json::Value rejected = Send(server, sleep_a);
  EXPECT_EQ(ErrorCode(rejected), kErrQuotaExceeded);

  // Observer verbs never spend the budget, and other tenants (including
  // the anonymous v1 bucket) are unaffected.
  EXPECT_TRUE(IsOk(Send(
      server, "{\"schema_version\":2,\"tenant\":\"a\",\"verb\":\"metrics\"}")));
  EXPECT_TRUE(IsOk(Send(
      server,
      "{\"schema_version\":2,\"tenant\":\"b\",\"verb\":\"sleep\","
      "\"params\":{\"millis\":0}}")));
  EXPECT_TRUE(IsOk(Send(
      server,
      "{\"schema_version\":1,\"verb\":\"sleep\",\"params\":{\"millis\":0}}")));
  // The refused request never reached admission, so the quota error wins
  // over queue_full even on a saturated server — and shutdown, a control
  // verb, always works.
  EXPECT_TRUE(IsOk(Send(server, "{\"schema_version\":2,\"tenant\":\"a\","
                                "\"verb\":\"shutdown\"}")));
}

TEST(ServeEnvelopeTest, V1ResponsesAreBitIdenticalToV1Server) {
  Server server;
  // Error envelope: exact bytes a v1-only server produced.
  EXPECT_EQ(server.HandleLine("{\"schema_version\":1,\"id\":7,"
                              "\"verb\":\"frobnicate\"}"),
            "{\"schema_version\":1,\"id\":7,\"ok\":false,\"error\":"
            "{\"code\":\"unknown_verb\",\"message\":"
            "\"unknown verb 'frobnicate'\"}}");
  // A v1 request naming a tenant keeps its v1 meaning: the unknown
  // top-level key is ignored, nothing is charged or echoed.
  json::Value response = Send(
      server, "{\"schema_version\":1,\"tenant\":\"a\",\"verb\":\"metrics\"}");
  EXPECT_TRUE(IsOk(response));
  EXPECT_EQ(response.GetNumber("schema_version").value_or(0), 1.0);
  // A v2 request gets the v2 stamp; an ill-typed tenant is a schema
  // error.
  EXPECT_EQ(Send(server, "{\"schema_version\":2,\"verb\":\"metrics\"}")
                .GetNumber("schema_version")
                .value_or(0),
            2.0);
  EXPECT_EQ(ErrorCode(Send(
                server, "{\"schema_version\":2,\"tenant\":5,"
                        "\"verb\":\"metrics\"}")),
            kErrInvalidParams);
}

// A client that sends its next request the moment the previous response
// arrives must never racily hit queue_full: the admission slot is freed
// before the response is delivered, so on the tightest possible server
// (one worker, zero queue) a strictly sequential client always fits.
TEST(ServeAdmissionTest, SlotIsFreeWhenTheResponseArrives) {
  ServerOptions options;
  options.enable_test_verbs = true;
  options.workers = 1;
  options.queue_capacity = 0;
  Server server(options);
  for (int i = 0; i < 100; ++i) {
    json::Value response =
        Send(server, "{\"schema_version\":1,\"verb\":\"sleep\","
                     "\"params\":{\"millis\":0}}");
    ASSERT_TRUE(IsOk(response)) << "request " << i << " was refused: "
                                << ErrorCode(response);
  }
}

TEST(ServeEventLoopTest, PipelinedRequestsAnsweredInOrder) {
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.enable_test_verbs = true;
  Server server(server_options);
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
  std::thread serving([&] { serve_status = ServeTcp(server, options); });
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

  // Everything in one write: a burst of pipelined requests with distinct
  // ids (the slow one first), then the shutdown. Responses must come
  // back in request order even though verbs run on the runner pool.
  const std::string request =
      "{\"schema_version\":1,\"id\":1,\"verb\":\"sleep\","
      "\"params\":{\"millis\":50}}\n"
      "{\"schema_version\":1,\"id\":2,\"verb\":\"sleep\","
      "\"params\":{\"millis\":1}}\n"
      "{\"schema_version\":2,\"id\":3,\"verb\":\"server_info\"}\n"
      "{\"schema_version\":1,\"id\":4,\"verb\":\"shutdown\"}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string received;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  serving.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.message();

  std::vector<json::Value> responses;
  size_t start = 0;
  for (size_t i = 0; i < received.size(); ++i) {
    if (received[i] != '\n') continue;
    auto parsed = json::Value::Parse(received.substr(start, i - start));
    ASSERT_TRUE(parsed.ok());
    responses.push_back(*parsed);
    start = i + 1;
  }
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(IsOk(responses[i])) << "response " << i;
    EXPECT_EQ(responses[i].GetNumber("id").value_or(0),
              static_cast<double>(i + 1));
  }
  // Version echo holds per request within one connection.
  EXPECT_EQ(responses[2].GetNumber("schema_version").value_or(0), 2.0);
  EXPECT_EQ(responses[3].GetNumber("schema_version").value_or(0), 1.0);
}

}  // namespace
}  // namespace serve
}  // namespace anonsafe
