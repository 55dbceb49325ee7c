// Verification-service integration tests (src/server): a real listener
// on an ephemeral loopback port, driven by plain POSIX-socket clients.
//
// Covered here:
//   * the JSON API surface (health, version, metrics, check, attribute)
//   * response `text` byte-identical to the shared core::RunCheck path
//     (cache-warmed so the replayed timing matches exactly)
//   * structured 400/404/405/413 errors with machine-readable codes
//   * concurrent mixed check/attribute traffic from many client threads
//   * graceful drain under load: every accepted request is answered
//     with a complete response, then the server exits cleanly
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker/trace.hpp"
#include "config/builder.hpp"
#include "core/service.hpp"
#include "corpus/groups.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "test_support.hpp"

namespace iotsan::server {
namespace {

using testing_support::Verdicts;
using testing_support::WithinDeadline;

// ---- loopback HTTP client ----------------------------------------------------

struct ClientResponse {
  int status = 0;
  std::string head;  // raw header block (status line through last header)
  std::string body;
  bool complete = false;  // headers + full Content-Length body received
};

/// Value of `name` in the response's header block ("" when absent).
std::string HeaderValue(const ClientResponse& response,
                        const std::string& name) {
  const std::string marker = "\r\n" + name + ": ";
  const std::size_t at = response.head.find(marker);
  if (at == std::string::npos) return "";
  const std::size_t start = at + marker.size();
  return response.head.substr(
      start, response.head.find("\r\n", start) - start);
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one response off `fd` (headers, then exactly Content-Length
/// body bytes).  Marks `complete` only when nothing was truncated, so
/// the drain test can assert no request got a partial answer.
ClientResponse ReadResponse(int fd) {
  ClientResponse out;
  std::string data;
  char chunk[4096];
  std::size_t head_end;
  while ((head_end = data.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return out;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string head = data.substr(0, head_end);
  if (head.rfind("HTTP/1.1 ", 0) != 0) return out;
  out.head = head;
  out.status = std::atoi(head.c_str() + 9);
  std::size_t body_len = 0;
  const std::string marker = "Content-Length: ";
  if (const std::size_t at = head.find(marker); at != std::string::npos) {
    body_len = static_cast<std::size_t>(
        std::atoll(head.c_str() + at + marker.size()));
  }
  while (data.size() < head_end + 4 + body_len) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return out;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  out.body = data.substr(head_end + 4, body_len);
  out.complete = true;
  return out;
}

/// One-shot request: connect, send, read one response, close.
/// `extra_headers` are raw "Name: value\r\n" lines.
ClientResponse Fetch(int port, const std::string& method,
                     const std::string& target, const std::string& body = "",
                     const std::string& extra_headers = "") {
  ClientResponse out;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return out;
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
  wire += extra_headers;
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  if (SendAll(fd, wire)) out = ReadResponse(fd);
  ::close(fd);
  return out;
}

// ---- fixtures ----------------------------------------------------------------

/// The paper's §8 running example — two devices, two conflicting apps,
/// two violated properties.  Small enough that a check is milliseconds.
json::Value ViolatingDeploymentJson() {
  json::Object lock;
  lock["id"] = "doorLock";
  lock["type"] = "smartLock";
  lock["roles"] = json::Array{json::Value("mainDoorLock")};
  json::Object presence;
  presence["id"] = "alicePresence";
  presence["type"] = "presenceSensor";
  presence["roles"] = json::Array{json::Value("presence")};

  json::Object mode_app;
  mode_app["app"] = "Auto Mode Change";
  json::Object mode_inputs;
  mode_inputs["people"] = json::Array{json::Value("alicePresence")};
  mode_inputs["homeMode"] = "Home";
  mode_inputs["awayMode"] = "Away";
  mode_app["inputs"] = std::move(mode_inputs);
  json::Object unlock_app;
  unlock_app["app"] = "Unlock Door";
  json::Object unlock_inputs;
  unlock_inputs["lock1"] = json::Array{json::Value("doorLock")};
  unlock_app["inputs"] = std::move(unlock_inputs);

  json::Object doc;
  doc["name"] = "server test home";
  doc["devices"] = json::Array{json::Value(std::move(presence)),
                               json::Value(std::move(lock))};
  doc["apps"] = json::Array{json::Value(std::move(mode_app)),
                            json::Value(std::move(unlock_app))};
  return json::Value(std::move(doc));
}

std::string CheckBody(int jobs = 1) {
  json::Object doc;
  doc["schema"] = kRequestSchema;
  doc["deployment"] = ViolatingDeploymentJson();
  json::Object options;
  options["jobs"] = static_cast<std::int64_t>(jobs);
  doc["options"] = std::move(options);
  return json::Value(std::move(doc)).Dump(0);
}

std::string AttributeBody() {
  json::Object doc;
  doc["schema"] = kRequestSchema;
  doc["deployment"] = ViolatingDeploymentJson();
  json::Object app;
  app["corpus"] = "Unlock Door";
  doc["app"] = std::move(app);
  json::Object options;
  options["jobs"] = std::int64_t{1};
  doc["options"] = std::move(options);
  return json::Value(std::move(doc)).Dump(0);
}

std::string TempDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("iotsan_server_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerConfig config = {}) {
    config.port = 0;  // ephemeral
    telemetry::SetActive(&registry_);
    server_ = std::make_unique<Server>(std::move(config));
    server_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    telemetry::SetActive(nullptr);
  }

  telemetry::Registry registry_;
  std::unique_ptr<Server> server_;
};

// ---- API surface -------------------------------------------------------------

TEST_F(ServerTest, HealthVersionMetrics) {
  StartServer();
  const int port = server_->port();

  ClientResponse health = Fetch(port, "GET", "/v1/health");
  ASSERT_TRUE(health.complete);
  EXPECT_EQ(health.status, 200);
  json::Value health_doc = json::Parse(health.body);
  EXPECT_EQ(health_doc.At("status").AsString(), "ok");
  EXPECT_GE(health_doc.At("uptime_seconds").AsNumber(), 0.0);

  ClientResponse version = Fetch(port, "GET", "/v1/version");
  ASSERT_TRUE(version.complete);
  EXPECT_EQ(version.status, 200);
  EXPECT_FALSE(json::Parse(version.body).At("version").AsString().empty());

  ClientResponse metrics = Fetch(port, "GET", "/v1/metrics");
  ASSERT_TRUE(metrics.complete);
  EXPECT_EQ(metrics.status, 200);
  json::Value metrics_doc = json::Parse(metrics.body);
  EXPECT_EQ(metrics_doc.At("schema").AsString(), "iotsan.metrics/1");
  const json::Value& counters = metrics_doc.At("counters");
  // The two earlier GETs are already on the board.
  EXPECT_GE(counters.At("server").At("requests").AsInt(), 2);
  EXPECT_TRUE(counters.Has("search"));
  EXPECT_TRUE(counters.Has("cache"));
}

TEST_F(ServerTest, CheckReportsViolationsWithSharedRenderer) {
  StartServer();
  ClientResponse response =
      Fetch(server_->port(), "POST", "/v1/check", CheckBody());
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200);
  json::Value doc = json::Parse(response.body);
  EXPECT_EQ(doc.At("schema").AsString(), kResponseSchema);
  EXPECT_EQ(doc.At("verdict").AsString(), "violations");
  EXPECT_EQ(doc.At("exit_code").AsInt(), 1);
  // The text is the shared renderer's output: header through RESULT.
  const std::string& text = doc.At("text").AsString();
  EXPECT_NE(text.find("system: server test home (2 devices, 2 apps)\n"),
            std::string::npos);
  EXPECT_NE(text.find("RESULT: 2 violated properties\n"), std::string::npos);
  const json::Value& report = doc.At("report");
  EXPECT_EQ(report.At("violations").AsArray().size(), 2u);
  EXPECT_GT(report.At("states_explored").AsInt(), 0);
}

TEST_F(ServerTest, WarmCacheResponseIsByteIdenticalToCliPath) {
  const std::string cache_dir = TempDir("warm");
  // Cold run through the exact code path `iotsan check` uses, warming
  // the shared on-disk cache.  The replayed cache entry restores the
  // recorded `seconds`, so the warm texts match byte for byte, timing
  // line included.
  cache::CacheConfig cache_config;
  cache_config.dir = cache_dir;
  std::string cli_text;
  {
    cache::ResultCache warm_cache(cache_config);
    core::ServiceEnv env;
    env.cache = &warm_cache;
    core::CheckRequest request;
    request.deployment =
        config::ParseDeployment(ViolatingDeploymentJson());
    request.options.jobs = 1;
    cli_text = core::RunCheck(request, env).text;       // cold: fills cache
    const std::string warm = core::RunCheck(request, env).text;
    ASSERT_EQ(cli_text, warm);  // cache replay is deterministic
  }

  ServerConfig config;
  config.cache_dir = cache_dir;
  StartServer(std::move(config));
  ClientResponse response =
      Fetch(server_->port(), "POST", "/v1/check", CheckBody(/*jobs=*/1));
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(json::Parse(response.body).At("text").AsString(), cli_text);
  EXPECT_GT(registry_.cache.hits.load(), 0u);
  std::filesystem::remove_all(cache_dir);
}

TEST_F(ServerTest, AttributeEndpoint) {
  StartServer();
  ClientResponse response =
      Fetch(server_->port(), "POST", "/v1/attribute", AttributeBody());
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200);
  json::Value doc = json::Parse(response.body);
  // "Unlock Door" alone violates lock invariants on this deployment.
  EXPECT_NE(doc.At("verdict").AsString(), "clean");
  EXPECT_EQ(doc.At("exit_code").AsInt(), 1);
  EXPECT_EQ(doc.At("report").At("app").AsString(), "Unlock Door");
  EXPECT_GT(registry_.server.attributions.load(), 0u);
}

// ---- structured errors -------------------------------------------------------

std::string ErrorCode(const ClientResponse& response) {
  return json::Parse(response.body).At("error").At("code").AsString();
}

TEST_F(ServerTest, MalformedBodiesAreStructuredClientErrors) {
  StartServer();
  const int port = server_->port();

  ClientResponse bad_json = Fetch(port, "POST", "/v1/check", "{nope");
  ASSERT_TRUE(bad_json.complete);
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(ErrorCode(bad_json), "bad_json");

  ClientResponse bad_schema = Fetch(
      port, "POST", "/v1/check",
      R"({"schema": "iotsan.request/99", "deployment": {}})");
  ASSERT_TRUE(bad_schema.complete);
  EXPECT_EQ(bad_schema.status, 400);
  EXPECT_EQ(ErrorCode(bad_schema), "bad_schema");

  ClientResponse no_deployment =
      Fetch(port, "POST", "/v1/check", R"({"schema": "iotsan.request/1"})");
  ASSERT_TRUE(no_deployment.complete);
  EXPECT_EQ(no_deployment.status, 400);
  EXPECT_EQ(ErrorCode(no_deployment), "bad_schema");

  // Option validation mirrors the CLI flag table's ranges; unknown keys
  // are rejected instead of silently defaulting.
  json::Value with_options = json::Parse(CheckBody());
  json::Object bad_options;
  bad_options["jobs"] = std::int64_t{999999};
  with_options.MutableObject()["options"] = std::move(bad_options);
  ClientResponse bad_range =
      Fetch(port, "POST", "/v1/check", with_options.Dump(0));
  ASSERT_TRUE(bad_range.complete);
  EXPECT_EQ(bad_range.status, 400);
  EXPECT_EQ(ErrorCode(bad_range), "bad_request");

  json::Object typo_options;
  typo_options["evnets"] = std::int64_t{3};
  with_options.MutableObject()["options"] = std::move(typo_options);
  ClientResponse typo =
      Fetch(port, "POST", "/v1/check", with_options.Dump(0));
  ASSERT_TRUE(typo.complete);
  EXPECT_EQ(typo.status, 400);
  EXPECT_EQ(ErrorCode(typo), "bad_request");

  ClientResponse not_found = Fetch(port, "GET", "/v1/nope");
  ASSERT_TRUE(not_found.complete);
  EXPECT_EQ(not_found.status, 404);
  EXPECT_EQ(ErrorCode(not_found), "not_found");

  ClientResponse wrong_method = Fetch(port, "GET", "/v1/check");
  ASSERT_TRUE(wrong_method.complete);
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(ErrorCode(wrong_method), "method_not_allowed");

  EXPECT_GT(registry_.server.responses_client_error.load(), 0u);
}

TEST(RequestParseTest, IntegerOptionsMustBeIntegralAndInRange) {
  // No option value is rounded or wrapped: the error quotes what was sent.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"events": 2.5})", R"(option "events" wants an integer, got 2.5)"},
      {R"({"jobs": 0.4})", R"(option "jobs" wants an integer, got 0.4)"},
      {R"({"events": 1e300})",
       R"(option "events" wants a value in [1, 64], got 1e+300)"},
      {R"({"bitstateSeed": -1})",
       R"(option "bitstateSeed" wants a value in [0, 9223372036854775807], )"
       R"(got -1)"},
      {R"({"groupApps": [0, 0.5]})",
       R"(option "groupApps" wants an integer, got 0.5)"},
  };
  for (const auto& [options, message] : cases) {
    json::Value body = json::Parse(CheckBody());
    body.MutableObject()["options"] = json::Parse(options);
    try {
      ParseCheckRequest(body.Dump(0));
      ADD_FAILURE() << "accepted " << options;
    } catch (const RequestError& e) {
      EXPECT_EQ(e.status(), 400);
      EXPECT_EQ(e.code(), kErrBadRequest);
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
  json::Value body = json::Parse(CheckBody());
  body.MutableObject()["options"] =
      json::Parse(R"({"events": 64, "jobs": 0, "bitstateBits": 40.0})");
  const core::CheckRequest request = ParseCheckRequest(body.Dump(0));
  EXPECT_EQ(request.options.events, 64);
  EXPECT_EQ(request.options.jobs, 0);
  EXPECT_EQ(request.options.bitstate_bits_pow, 40);
  EXPECT_TRUE(request.options.bitstate);
}

TEST_F(ServerTest, OversizedBodyIsShedWith413) {
  ServerConfig config;
  config.max_body_bytes = 512;
  StartServer(std::move(config));
  ClientResponse response = Fetch(server_->port(), "POST", "/v1/check",
                                  std::string(4096, 'x'));
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 413);
  EXPECT_EQ(ErrorCode(response), "payload_too_large");
  EXPECT_EQ(registry_.server.shed_oversized.load(), 1u);
}

TEST_F(ServerTest, MalformedHttpIsRejected) {
  StartServer();
  const int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "this is not http\r\n\r\n"));
  ClientResponse response = ReadResponse(fd);
  ::close(fd);
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(ErrorCode(response), "bad_request");
}

// ---- request deadlines -------------------------------------------------------

TEST_F(ServerTest, RequestInterruptWindsDownAsBudgetHit) {
  // The per-request deadline rides the checker's CancelFn plumbing;
  // the same path serves the drain interrupt.  A pre-raised interrupt
  // flag must wind the search down as an incomplete (budget-hit) run —
  // quickly, and without caching the partial result.
  std::atomic<bool> interrupt{true};
  core::ServiceEnv env;
  env.interrupt = &interrupt;
  core::CheckRequest request;
  request.deployment = config::ParseDeployment(ViolatingDeploymentJson());
  request.options.jobs = 1;
  core::CheckResponse response = core::RunCheck(request, env);
  EXPECT_FALSE(response.report.completed);
  EXPECT_NE(response.text.find("(budget hit)"), std::string::npos);
}

// ---- concurrency and drain ---------------------------------------------------

TEST_F(ServerTest, ConcurrentMixedTrafficMatchesSerialResponses) {
  const std::string cache_dir = TempDir("mixed");
  ServerConfig config;
  config.cache_dir = cache_dir;
  config.http_workers = 4;
  StartServer(std::move(config));
  const int port = server_->port();

  // Serial reference responses (these also warm the cache, so every
  // concurrent repeat replays the same stored result byte for byte).
  ClientResponse check_ref = Fetch(port, "POST", "/v1/check", CheckBody());
  ClientResponse attr_ref =
      Fetch(port, "POST", "/v1/attribute", AttributeBody());
  ASSERT_TRUE(check_ref.complete);
  ASSERT_TRUE(attr_ref.complete);
  ASSERT_EQ(check_ref.status, 200);
  ASSERT_EQ(attr_ref.status, 200);

  // Correlation makes each response unique: strip the per-request id
  // (top level and inside artifact manifests) before comparing.
  auto normalized = [](const std::string& body) {
    json::Value doc = json::Parse(body);
    doc.MutableObject().erase("request_id");
    doc.MutableObject().erase("artifacts");
    return doc.Dump(0);
  };
  const std::string check_expected = normalized(check_ref.body);
  const std::string attr_expected = normalized(attr_ref.body);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] {
      for (int j = 0; j < kPerThread; ++j) {
        const bool attribute = (i + j) % 2 == 0;
        ClientResponse response =
            attribute ? Fetch(port, "POST", "/v1/attribute", AttributeBody())
                      : Fetch(port, "POST", "/v1/check", CheckBody());
        if (!response.complete || response.status != 200) {
          ++failures;
          continue;
        }
        const std::string& expected =
            attribute ? attr_expected : check_expected;
        if (normalized(response.body) != expected) ++mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(registry_.server.checks.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread / 2));
  std::filesystem::remove_all(cache_dir);
}

TEST_F(ServerTest, GracefulDrainAnswersEveryAcceptedRequest) {
  ServerConfig config;
  config.http_workers = 4;
  StartServer(std::move(config));
  const int port = server_->port();

  constexpr int kThreads = 6;
  std::atomic<int> incomplete{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back([&] {
      for (int j = 0; j < 4; ++j) {
        const int fd = ConnectLoopback(port);
        if (fd < 0) return;  // listener already gone: fine mid-drain
        std::string body = CheckBody();
        std::string wire = "POST /v1/check HTTP/1.1\r\nHost: l\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
        if (!SendAll(fd, wire)) {
          ::close(fd);
          return;
        }
        ClientResponse response = ReadResponse(fd);
        ::close(fd);
        if (response.status == 0) return;  // drained before being served
        // A started response must never be truncated mid-body.
        if (!response.complete) {
          ++incomplete;
        } else {
          ++answered;
        }
      }
    });
  }
  // Let some requests land, then drain while clients are still firing.
  while (answered.load() == 0 && incomplete.load() == 0) {
    std::this_thread::yield();
  }
  server_->Stop();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(incomplete.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_FALSE(server_->running());
}

// ---- request correlation -----------------------------------------------------

TEST_F(ServerTest, EveryResponseCarriesAGeneratedRequestId) {
  StartServer();
  const int port = server_->port();

  // Success, 404, and 405 responses all carry the header, and JSON
  // bodies echo the same id at the top level.
  for (const auto& [method, target] :
       std::vector<std::pair<std::string, std::string>>{
           {"GET", "/v1/health"}, {"GET", "/v1/nope"}, {"GET", "/v1/check"}}) {
    ClientResponse response = Fetch(port, method, target);
    ASSERT_TRUE(response.complete) << target;
    const std::string id = HeaderValue(response, "X-Request-Id");
    EXPECT_EQ(id.size(), 16u) << target;  // generated: 16 hex digits
    EXPECT_EQ(json::Parse(response.body).At("request_id").AsString(), id)
        << target;
  }

  // Two requests never share a generated id.
  ClientResponse a = Fetch(port, "GET", "/v1/health");
  ClientResponse b = Fetch(port, "GET", "/v1/health");
  EXPECT_NE(HeaderValue(a, "X-Request-Id"), HeaderValue(b, "X-Request-Id"));
}

TEST_F(ServerTest, ClientSuppliedRequestIdIsEchoedWhenValid) {
  StartServer();
  const int port = server_->port();

  ClientResponse echoed = Fetch(port, "GET", "/v1/health", "",
                                "X-Request-Id: my-trace_1.42\r\n");
  ASSERT_TRUE(echoed.complete);
  EXPECT_EQ(HeaderValue(echoed, "X-Request-Id"), "my-trace_1.42");
  EXPECT_EQ(json::Parse(echoed.body).At("request_id").AsString(),
            "my-trace_1.42");

  // Ids with characters outside [A-Za-z0-9._-] or longer than 64 are
  // replaced with a generated one instead of being reflected back.
  ClientResponse invalid = Fetch(port, "GET", "/v1/health", "",
                                 "X-Request-Id: bad id \"quotes\"\r\n");
  ASSERT_TRUE(invalid.complete);
  const std::string replaced = HeaderValue(invalid, "X-Request-Id");
  EXPECT_EQ(replaced.size(), 16u);
  EXPECT_EQ(replaced.find(' '), std::string::npos);

  ClientResponse too_long = Fetch(port, "GET", "/v1/health", "",
                                  "X-Request-Id: " + std::string(65, 'a') +
                                      "\r\n");
  ASSERT_TRUE(too_long.complete);
  EXPECT_EQ(HeaderValue(too_long, "X-Request-Id").size(), 16u);
}

TEST_F(ServerTest, CheckViolationArtifactsCarryTheRequestId) {
  StartServer();
  ClientResponse response =
      Fetch(server_->port(), "POST", "/v1/check", CheckBody(),
            "X-Request-Id: corr-7\r\n");
  ASSERT_TRUE(response.complete);
  ASSERT_EQ(response.status, 200);
  json::Value doc = json::Parse(response.body);
  EXPECT_EQ(doc.At("request_id").AsString(), "corr-7");
  // The §8 deployment violates two properties; each artifact's manifest
  // names the originating request.
  ASSERT_TRUE(doc.Has("artifacts"));
  const json::Array& artifacts = doc.At("artifacts").AsArray();
  ASSERT_EQ(artifacts.size(), 2u);
  for (const json::Value& artifact_json : artifacts) {
    const checker::ViolationArtifact artifact =
        checker::ArtifactFromJson(artifact_json);
    EXPECT_EQ(artifact.manifest.request_id, "corr-7");
    EXPECT_TRUE(checker::ValidateArtifact(artifact, "").empty());
  }
}

// ---- metrics content negotiation ---------------------------------------------

TEST_F(ServerTest, MetricsNegotiatesPrometheusExposition) {
  StartServer();
  const int port = server_->port();

  // Prime the request-duration histogram with a couple of requests.
  ASSERT_TRUE(Fetch(port, "GET", "/v1/health").complete);
  ASSERT_TRUE(Fetch(port, "GET", "/v1/version").complete);

  ClientResponse via_query =
      Fetch(port, "GET", "/v1/metrics?format=prometheus");
  ASSERT_TRUE(via_query.complete);
  EXPECT_EQ(via_query.status, 200);
  EXPECT_NE(via_query.head.find(telemetry::kPrometheusContentType),
            std::string::npos);
  for (const std::string& problem :
       telemetry::ValidateExposition(via_query.body)) {
    ADD_FAILURE() << problem;
  }
  // All nine latency families are present, counters too.
  for (const char* family :
       {"iotsan_server_request_duration_us", "iotsan_server_queue_wait_us",
        "iotsan_server_request_body_bytes",
        "iotsan_search_group_check_duration_us",
        "iotsan_search_group_states_per_second",
        "iotsan_cache_lookup_hit_duration_us",
        "iotsan_cache_lookup_miss_duration_us",
        "iotsan_parallel_task_run_duration_us",
        "iotsan_parallel_steal_wait_duration_us"}) {
    EXPECT_NE(via_query.body.find(std::string("# TYPE ") + family +
                                  " histogram"),
              std::string::npos)
        << family;
  }
  EXPECT_NE(via_query.body.find("iotsan_server_requests"),
            std::string::npos);

  ClientResponse via_accept = Fetch(port, "GET", "/v1/metrics", "",
                                    "Accept: text/plain\r\n");
  ASSERT_TRUE(via_accept.complete);
  EXPECT_EQ(via_accept.status, 200);
  EXPECT_NE(via_accept.body.find("# TYPE"), std::string::npos);

  // The default JSON document is byte-compatible with iotsan.metrics/1:
  // same schema, no correlation fields spliced in.
  ClientResponse as_json = Fetch(port, "GET", "/v1/metrics");
  ASSERT_TRUE(as_json.complete);
  json::Value doc = json::Parse(as_json.body);
  EXPECT_EQ(doc.At("schema").AsString(), "iotsan.metrics/1");
  EXPECT_FALSE(doc.Has("request_id"));
  // The correlation header still rides on the response itself.
  EXPECT_EQ(HeaderValue(as_json, "X-Request-Id").size(), 16u);
}

// ---- access log --------------------------------------------------------------

TEST_F(ServerTest, AccessLogWritesOneLinePerRequestWithMatchingIds) {
  const std::string log_dir = TempDir("accesslog");
  const std::string log_path = log_dir + "/access.jsonl";
  ServerConfig config;
  config.http_workers = 4;
  config.access_log_path = log_path;
  StartServer(std::move(config));
  const int port = server_->port();

  // Concurrent clients, each tagging its requests with a unique id.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::mutex sent_mutex;
  std::map<std::string, int> sent;  // id -> expected status
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] {
      for (int j = 0; j < kPerThread; ++j) {
        const std::string id =
            "t" + std::to_string(i) + "-r" + std::to_string(j);
        ClientResponse response = Fetch(port, "GET", "/v1/health", "",
                                        "X-Request-Id: " + id + "\r\n");
        if (!response.complete ||
            HeaderValue(response, "X-Request-Id") != id) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(sent_mutex);
        sent[id] = response.status;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  // One error response too: 404s are logged with their error code.
  ClientResponse missing = Fetch(port, "GET", "/v1/nope", "",
                                 "X-Request-Id: miss-1\r\n");
  ASSERT_TRUE(missing.complete);
  sent["miss-1"] = missing.status;

  server_->Stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::map<std::string, int> logged_count;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value entry = json::Parse(line);
    const std::string id = entry.At("id").AsString();
    ++logged_count[id];
    EXPECT_EQ(entry.At("status").AsInt(), sent.at(id)) << id;
    EXPECT_EQ(entry.At("method").AsString(), "GET");
    EXPECT_GE(entry.At("latency_us").AsNumber(), 0.0);
    EXPECT_GE(entry.At("queue_us").AsNumber(), 0.0);
    EXPECT_GE(entry.At("ts").AsNumber(), 0.0);
    if (id == "miss-1") {
      EXPECT_EQ(entry.At("path").AsString(), "/v1/nope");
      EXPECT_EQ(entry.At("error").At("code").AsString(), "not_found");
    } else {
      EXPECT_EQ(entry.At("path").AsString(), "/v1/health");
      EXPECT_FALSE(entry.Has("error"));
    }
  }
  // Exactly one line per request, every request present.
  EXPECT_EQ(logged_count.size(), sent.size());
  for (const auto& [id, status] : sent) {
    EXPECT_EQ(logged_count[id], 1) << id;
  }
  std::filesystem::remove_all(log_dir);
}

TEST_F(ServerTest, KeepAliveServesSequentialRequests) {
  StartServer();
  const int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  const std::string get =
      "GET /v1/health HTTP/1.1\r\nHost: l\r\nContent-Length: 0\r\n\r\n";
  ASSERT_TRUE(SendAll(fd, get));
  ClientResponse first = ReadResponse(fd);
  ASSERT_TRUE(first.complete);
  EXPECT_EQ(first.status, 200);
  ASSERT_TRUE(SendAll(fd, get));
  ClientResponse second = ReadResponse(fd);
  ::close(fd);
  ASSERT_TRUE(second.complete);
  EXPECT_EQ(second.status, 200);
}

// ---- live introspection: /v1/status, /v1/events, enriched health -------------

/// One parsed SSE frame.
struct SseEvent {
  std::string name;
  std::string data;
};

/// A streaming client for `GET /v1/events`: reads the chunked response
/// head, then de-chunks and splits SSE frames incrementally, so tests
/// can assert on events while the stream stays open.  Receives carry a
/// timeout so a broken stream fails the test instead of hanging it.
class SseClient {
 public:
  explicit SseClient(int port, const std::string& extra_headers = "") {
    fd_ = ConnectLoopback(port);
    if (fd_ < 0) return;
    struct timeval tv = {};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string wire = "GET /v1/events HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    wire += extra_headers;
    wire += "\r\n";
    if (!SendAll(fd_, wire)) Close();
  }
  ~SseClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool ok() const { return fd_ >= 0; }
  const std::string& head() const { return head_; }

  /// Reads the response head; true when it is a 200 chunked
  /// text/event-stream response.
  bool ReadHead() {
    std::size_t head_end;
    while ((head_end = raw_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    head_ = raw_.substr(0, head_end);
    raw_.erase(0, head_end + 4);
    return head_.rfind("HTTP/1.1 200", 0) == 0 &&
           head_.find("Transfer-Encoding: chunked") != std::string::npos &&
           head_.find("Content-Type: text/event-stream") != std::string::npos;
  }

  /// Blocks for the next SSE event, skipping keepalive comment frames;
  /// false when the stream ends (last-chunk or socket close/timeout).
  bool NextEvent(SseEvent& out) {
    for (;;) {
      std::size_t frame_end;
      while ((frame_end = decoded_.find("\n\n")) == std::string::npos) {
        if (!DechunkOne()) return false;
      }
      const std::string frame = decoded_.substr(0, frame_end);
      decoded_.erase(0, frame_end + 2);
      if (frame.rfind(":", 0) == 0) continue;  // comment (keepalive)
      out = {};
      std::size_t start = 0;
      while (start < frame.size()) {
        std::size_t eol = frame.find('\n', start);
        if (eol == std::string::npos) eol = frame.size();
        const std::string line = frame.substr(start, eol - start);
        if (line.rfind("event: ", 0) == 0) out.name = line.substr(7);
        if (line.rfind("data: ", 0) == 0) out.data = line.substr(6);
        start = eol + 1;
      }
      return true;
    }
  }

 private:
  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    raw_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Decodes one chunked-transfer chunk into `decoded_`; false on the
  /// terminating zero chunk or a dead socket.
  bool DechunkOne() {
    std::size_t size_end;
    while ((size_end = raw_.find("\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::size_t size =
        static_cast<std::size_t>(std::strtoull(raw_.c_str(), nullptr, 16));
    if (size == 0) return false;  // last-chunk: stream over
    while (raw_.size() < size_end + 2 + size + 2) {
      if (!Fill()) return false;
    }
    decoded_.append(raw_, size_end + 2, size);
    raw_.erase(0, size_end + 2 + size + 2);
    return true;
  }

  int fd_ = -1;
  std::string head_;
  std::string raw_;      // bytes as received (still chunk-framed)
  std::string decoded_;  // de-chunked SSE payload
};

TEST(InflightTableTest, RegisterUpdateSnapshotFinish) {
  InflightTable table;
  InflightEntry entry;
  entry.request_id = "req-1";
  entry.endpoint = "check";
  entry.deployment = "alice home";
  entry.fingerprint = "abcd";
  entry.deadline_seconds = 30;
  entry.started = std::chrono::steady_clock::now();
  table.Register(entry);
  EXPECT_EQ(table.size(), 1u);

  telemetry::GroupProgress progress;
  progress.groups_total = 4;
  progress.groups_done = 2;
  progress.states_explored = 1000;
  progress.store_memory_bytes = 4096;
  table.Update("req-1", progress);
  table.Update("no-such-id", progress);  // no-op, must not throw

  const json::Array snapshot = table.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const json::Value& doc = snapshot[0];
  EXPECT_EQ(doc.At("request_id").AsString(), "req-1");
  EXPECT_EQ(doc.At("endpoint").AsString(), "check");
  EXPECT_EQ(doc.At("deployment").AsString(), "alice home");
  EXPECT_EQ(doc.At("groups_total").AsInt(), 4);
  EXPECT_EQ(doc.At("groups_done").AsInt(), 2);
  EXPECT_EQ(doc.At("states_explored").AsInt(), 1000);
  EXPECT_EQ(doc.At("store_memory_bytes").AsInt(), 4096);
  EXPECT_GE(doc.At("elapsed_seconds").AsNumber(), 0.0);
  EXPECT_GE(doc.At("states_per_second").AsNumber(), 0.0);
  EXPECT_EQ(doc.At("deadline_seconds").AsNumber(), 30.0);

  table.Finish("req-1");
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Snapshot().empty());
}

TEST(EventBrokerTest, PublishFansOutToEverySubscriber) {
  EventBroker broker;
  auto a = broker.Subscribe();
  auto b = broker.Subscribe();
  EXPECT_EQ(broker.subscriber_count(), 2u);

  broker.Publish({"progress", "{\"n\":1}"});
  Event event;
  ASSERT_TRUE(a->Next(event, 0));
  EXPECT_EQ(event.name, "progress");
  EXPECT_EQ(event.data, "{\"n\":1}");
  ASSERT_TRUE(b->Next(event, 0));
  EXPECT_EQ(event.name, "progress");

  broker.Unsubscribe(a);
  EXPECT_EQ(broker.subscriber_count(), 1u);
  broker.Publish({"verdict", "{}"});
  EXPECT_FALSE(a->Next(event, 0));  // unsubscribed: nothing enqueued
  ASSERT_TRUE(b->Next(event, 0));
  EXPECT_EQ(event.name, "verdict");
  broker.Unsubscribe(b);
}

TEST(EventBrokerTest, SlowSubscriberDropsOldProgressButKeepsVerdicts) {
  EventBroker broker;
  auto slow = broker.Subscribe();
  // A verdict published early, then far more progress ticks than the
  // queue bound (256): the ticks must be the casualties, not the verdict.
  broker.Publish({"verdict", "{\"v\":1}"});
  for (int i = 0; i < 400; ++i) {
    broker.Publish({"progress", "{\"i\":" + std::to_string(i) + "}"});
  }
  EXPECT_GT(slow->dropped(), 0u);

  bool saw_verdict = false;
  std::size_t delivered = 0;
  Event event;
  while (slow->Next(event, 0)) {
    ++delivered;
    if (event.name == "verdict") saw_verdict = true;
  }
  EXPECT_TRUE(saw_verdict);
  EXPECT_LE(delivered, 256u);
  broker.Unsubscribe(slow);
}

TEST_F(ServerTest, StatusEndpointReportsIdleSnapshot) {
  StartServer();
  ClientResponse response = Fetch(server_->port(), "GET", "/v1/status");
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200);
  json::Value doc = json::Parse(response.body);
  EXPECT_EQ(doc.At("schema").AsString(), "iotsan.status/1");
  EXPECT_EQ(doc.At("status").AsString(), "ok");
  EXPECT_GE(doc.At("uptime_seconds").AsNumber(), 0.0);
  EXPECT_GT(doc.At("peak_rss_bytes").AsNumber(), 0.0);
  EXPECT_TRUE(doc.At("inflight").AsArray().empty());
  EXPECT_FALSE(doc.At("request_id").AsString().empty());
  // The status handler samples peak RSS into the registry as it reads.
  EXPECT_GT(registry_.memory.peak_rss_bytes.load(), 0u);

  ClientResponse post = Fetch(server_->port(), "POST", "/v1/status");
  ASSERT_TRUE(post.complete);
  EXPECT_EQ(post.status, 405);
}

TEST_F(ServerTest, HealthCarriesBuildInfoAndIntrospectionGauges) {
  StartServer();
  ClientResponse response = Fetch(server_->port(), "GET", "/v1/health");
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200);
  json::Value doc = json::Parse(response.body);
  EXPECT_FALSE(doc.At("version").AsString().empty());
  EXPECT_FALSE(doc.At("build").At("compiler").AsString().empty());
  EXPECT_FALSE(doc.At("build").At("standard").AsString().empty());
  EXPECT_EQ(doc.At("inflight_requests").AsInt(), 0);
  EXPECT_EQ(doc.At("event_subscribers").AsInt(), 0);
  EXPECT_GE(doc.At("active_connections").AsInt(), 1);  // this request
}

TEST_F(ServerTest, EventStreamDeliversProgressThenVerdict) {
  StartServer();
  const int port = server_->port();

  SseClient subscriber(port, "X-Request-Id: stream-1\r\n");
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(subscriber.ReadHead());
  EXPECT_NE(subscriber.head().find("X-Request-Id: stream-1"),
            std::string::npos);

  SseEvent hello;
  ASSERT_TRUE(subscriber.NextEvent(hello));
  EXPECT_EQ(hello.name, "hello");
  EXPECT_EQ(json::Parse(hello.data).At("request_id").AsString(), "stream-1");

  // With the subscriber attached, a check publishes per-group progress
  // and one terminal verdict, all stamped with the check's request id.
  ClientResponse check = Fetch(port, "POST", "/v1/check", CheckBody(),
                               "X-Request-Id: check-42\r\n");
  ASSERT_TRUE(check.complete);
  ASSERT_EQ(check.status, 200);

  std::size_t progress_events = 0;
  std::uint64_t last_groups_done = 0;
  SseEvent event;
  bool saw_verdict = false;
  while (!saw_verdict) {
    ASSERT_TRUE(subscriber.NextEvent(event)) << "stream ended early";
    json::Value data = json::Parse(event.data);
    ASSERT_EQ(data.At("request_id").AsString(), "check-42");
    if (event.name == "progress") {
      ++progress_events;
      const auto done = static_cast<std::uint64_t>(
          data.At("groups_done").AsNumber());
      EXPECT_GT(done, last_groups_done);  // strictly advancing
      last_groups_done = done;
      EXPECT_LE(done, static_cast<std::uint64_t>(
                          data.At("groups_total").AsNumber()));
      EXPECT_GE(data.At("states_explored").AsNumber(), 0.0);
      EXPECT_GE(data.At("store_memory_bytes").AsNumber(), 0.0);
    } else if (event.name == "verdict") {
      saw_verdict = true;
      EXPECT_EQ(data.At("verdict").AsString(), "violations");
      EXPECT_EQ(data.At("exit_code").AsInt(), 1);
      EXPECT_EQ(data.At("violations").AsInt(), 2);
      EXPECT_GT(data.At("states_explored").AsNumber(), 0.0);
      EXPECT_TRUE(data.At("completed").AsBool());
    }
  }
  // The §8 deployment splits into two related-set groups.
  EXPECT_GE(progress_events, 2u);
  EXPECT_EQ(last_groups_done, progress_events);
  subscriber.Close();
}

TEST_F(ServerTest, ConcurrentEventSubscribersBothReceiveTheVerdict) {
  StartServer();
  const int port = server_->port();

  SseClient first(port);
  SseClient second(port);
  ASSERT_TRUE(first.ReadHead());
  ASSERT_TRUE(second.ReadHead());

  ClientResponse check = Fetch(port, "POST", "/v1/check", CheckBody(),
                               "X-Request-Id: fanout-1\r\n");
  ASSERT_TRUE(check.complete);

  for (SseClient* subscriber : {&first, &second}) {
    bool saw_verdict = false;
    SseEvent event;
    while (!saw_verdict) {
      ASSERT_TRUE(subscriber->NextEvent(event));
      if (event.name != "verdict") continue;
      EXPECT_EQ(json::Parse(event.data).At("request_id").AsString(),
                "fanout-1");
      saw_verdict = true;
    }
  }
}

TEST_F(ServerTest, EventStreamDisconnectLeavesServerServing) {
  StartServer();
  const int port = server_->port();

  {
    SseClient dropper(port);
    ASSERT_TRUE(dropper.ReadHead());
  }  // closes the socket mid-stream

  // The stream thread notices the dead peer on its next idle tick and
  // unsubscribes; meanwhile the server keeps answering.
  ClientResponse check = Fetch(port, "POST", "/v1/check", CheckBody());
  ASSERT_TRUE(check.complete);
  EXPECT_EQ(check.status, 200);

  for (int i = 0; i < 50; ++i) {
    ClientResponse health = Fetch(port, "GET", "/v1/health");
    ASSERT_TRUE(health.complete);
    if (json::Parse(health.body).At("event_subscribers").AsInt() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ClientResponse health = Fetch(port, "GET", "/v1/health");
  ASSERT_TRUE(health.complete);
  EXPECT_EQ(json::Parse(health.body).At("event_subscribers").AsInt(), 0);
}

TEST_F(ServerTest, AccessLogRotatesOnReopen) {
  const std::string log_dir = TempDir("rotate");
  const std::string log_path = log_dir + "/access.jsonl";
  ServerConfig config;
  config.access_log_path = log_path;
  StartServer(std::move(config));
  const int port = server_->port();

  ASSERT_TRUE(Fetch(port, "GET", "/v1/health", "",
                    "X-Request-Id: before-rotate\r\n")
                  .complete);

  // The operator's logrotate move-then-SIGHUP dance: rename the live
  // file, then ask the server to reopen its path.
  const std::string rotated = log_dir + "/access.jsonl.1";
  std::filesystem::rename(log_path, rotated);
  server_->RotateAccessLog();

  ASSERT_TRUE(Fetch(port, "GET", "/v1/health", "",
                    "X-Request-Id: after-rotate\r\n")
                  .complete);
  server_->Stop();

  auto ids_in = [](const std::string& path) {
    std::set<std::string> ids;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ids.insert(json::Parse(line).At("id").AsString());
    }
    return ids;
  };
  EXPECT_TRUE(ids_in(rotated).count("before-rotate"));
  EXPECT_FALSE(ids_in(rotated).count("after-rotate"));
  EXPECT_TRUE(ids_in(log_path).count("after-rotate"));
  std::filesystem::remove_all(log_dir);
}

// ---- Hostile and heavy inputs -------------------------------------------------

TEST_F(ServerTest, DeeplyNestedBodyIsBadJsonAndServerStaysHealthy) {
  StartServer();
  const int port = server_->port();
  // One '[' per nesting level: unbounded recursion in the JSON parser
  // used to overflow the stack and kill the daemon.
  ClientResponse bomb =
      Fetch(port, "POST", "/v1/check", std::string(100000, '['));
  ASSERT_TRUE(bomb.complete);
  EXPECT_EQ(bomb.status, 400);
  EXPECT_EQ(ErrorCode(bomb), "bad_json");

  ClientResponse health = Fetch(port, "GET", "/v1/health");
  ASSERT_TRUE(health.complete);
  EXPECT_EQ(health.status, 200);
}

TEST_F(ServerTest, DeepSmartScriptIsBadRequestAndServerStaysHealthy) {
  StartServer();
  const int port = server_->port();
  // 100 000 unary minus signs in a property expression, and 100 000
  // parentheses in an inline app: unbounded recursion in the SmartScript
  // parser used to overflow the stack and kill the daemon.
  json::Value deep_property = json::Parse(CheckBody());
  json::Object property;
  property["id"] = "P90";
  property["description"] = "deep";
  property["expression"] = std::string(100000, '-') + "1";
  deep_property.MutableObject()["properties"] =
      json::Array{json::Value(std::move(property))};

  // A 100 000-term sum parses in a loop, but is as deep a tree.
  json::Value long_property = json::Parse(CheckBody());
  property = json::Object();
  property["id"] = "P91";
  property["description"] = "long";
  std::string sum = "1";
  for (int i = 0; i < 100000; ++i) sum += "+1";
  property["expression"] = sum + " == 0";
  long_property.MutableObject()["properties"] =
      json::Array{json::Value(std::move(property))};

  json::Value deep_app = json::Parse(CheckBody());
  json::Object sources;
  sources["Unlock Door"] = "definition(name: \"Unlock Door\")\ndef f() {\n" +
                           std::string(100000, '(') + "1" +
                           std::string(100000, ')') + "\n}\n";
  deep_app.MutableObject()["appSources"] = std::move(sources);

  for (const json::Value* body : {&deep_property, &long_property, &deep_app}) {
    ClientResponse response =
        Fetch(port, "POST", "/v1/check", body->Dump(0));
    ASSERT_TRUE(response.complete);
    EXPECT_EQ(response.status, 400);
    EXPECT_EQ(ErrorCode(response), "bad_request");
    EXPECT_NE(response.body.find("nesting deeper than"), std::string::npos)
        << response.body;
  }

  ClientResponse health = Fetch(port, "GET", "/v1/health");
  ASSERT_TRUE(health.complete);
  EXPECT_EQ(health.status, 200);
}

TEST_F(ServerTest, AppSourceSyntaxErrorIsARejectedApp) {
  // Only the nesting bound refuses the request.  Any other syntax error
  // is the check's to report, and the rest of the deployment is checked.
  StartServer();
  json::Value body = json::Parse(CheckBody());
  json::Object sources;
  sources["Unlock Door"] = "definition(name: \"Unlock Door\")\ndef f() {\n";
  body.MutableObject()["appSources"] = std::move(sources);
  ClientResponse response =
      Fetch(server_->port(), "POST", "/v1/check", body.Dump(0));
  ASSERT_TRUE(response.complete);
  EXPECT_EQ(response.status, 200) << response.body;
  const json::Value doc = json::Parse(response.body);
  const json::Array& rejected =
      doc.At("report").At("rejected_apps").AsArray();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_NE(rejected[0].AsString().find("Unlock Door:3:"), std::string::npos)
      << rejected[0].AsString();
  EXPECT_EQ(doc.At("report").At("verdict").AsString(), "clean");
}

/// A check request for an expert group, with `options`.
std::string GroupBody(const corpus::SystemUnderTest& sut,
                      json::Object options = {}) {
  json::Object doc;
  doc["schema"] = kRequestSchema;
  doc["deployment"] = config::DeploymentToJson(sut.deployment);
  json::Object sources;
  for (const auto& [name, source] : sut.extra_sources) {
    sources[name] = source;
  }
  doc["appSources"] = std::move(sources);
  if (!options.empty()) doc["options"] = std::move(options);
  return json::Value(std::move(doc)).Dump(0);
}

/// The climate expert group: 168 related sets but only 118 distinct
/// cache keys, so parallel group checks race on in-flight keys.
const corpus::SystemUnderTest& Climate() { return corpus::ExpertGroups()[1]; }

std::string ClimateBody() { return GroupBody(Climate()); }

std::string SerialClimateText() {
  core::CheckRequest request;
  request.deployment = Climate().deployment;
  request.extra_sources = Climate().extra_sources;
  request.options.jobs = 1;
  return core::RunCheck(request).text;
}

TEST_F(ServerTest, ParallelCheckWithDuplicateGroupKeysAnswers) {
  // The serve default sizes the pool to the hardware; four lanes make
  // the single-flight race reproducible on any machine.
  ServerConfig config;
  config.jobs = 4;
  StartServer(std::move(config));
  ClientResponse response;
  WithinDeadline(std::chrono::seconds(120), [&] {
    response = Fetch(server_->port(), "POST", "/v1/check", ClimateBody());
  });
  ASSERT_TRUE(response.complete);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(Verdicts(json::Parse(response.body).At("text").AsString()),
            Verdicts(SerialClimateText()));
}

TEST_F(ServerTest, OneLaneBitstateResultIsCachedOnAMultiLaneServer) {
  // Only a bitstate search on more than one lane is barred from the
  // cache.  The lanes are those the search ran on, not the width of the
  // server's pool, so a one-lane request is stored and then replayed.
  ServerConfig config;
  config.jobs = 4;
  StartServer(std::move(config));
  json::Object options;
  options["bitstate"] = true;
  options["jobs"] = std::int64_t{1};
  const std::string body = GroupBody(corpus::ExpertGroups()[0], options);
  const ClientResponse cold =
      Fetch(server_->port(), "POST", "/v1/check", body);
  ASSERT_TRUE(cold.complete);
  ASSERT_EQ(cold.status, 200) << cold.body;
  const std::uint64_t lookups = registry_.cache.lookups.load();
  const std::uint64_t hits = registry_.cache.hits.load();
  const ClientResponse warm =
      Fetch(server_->port(), "POST", "/v1/check", body);
  ASSERT_TRUE(warm.complete);
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_EQ(registry_.cache.store_skips.load(), 0u);
  EXPECT_GT(registry_.cache.lookups.load(), lookups);
  EXPECT_EQ(registry_.cache.hits.load() - hits,
            registry_.cache.lookups.load() - lookups)
      << "every group of the repeat is a cache hit";
  EXPECT_EQ(json::Parse(warm.body).At("text").AsString(),
            json::Parse(cold.body).At("text").AsString());
}

TEST_F(ServerTest, ParallelFleetDeltaCheckAnswers) {
  ServerConfig config;
  config.jobs = 4;
  StartServer(std::move(config));
  const int port = server_->port();
  const std::string serial = Verdicts(SerialClimateText());
  for (int round = 0; round < 2; ++round) {
    ClientResponse put = Fetch(port, "PUT", "/v1/deployments/climate",
                               ClimateBody());
    ASSERT_TRUE(put.complete);
    ASSERT_EQ(put.status, round == 0 ? 201 : 200) << put.body;
    ClientResponse check;
    WithinDeadline(std::chrono::seconds(120), [&] {
      check = Fetch(port, "POST", "/v1/deployments/climate/check");
    });
    ASSERT_TRUE(check.complete);
    ASSERT_EQ(check.status, 200) << check.body;
    EXPECT_EQ(Verdicts(json::Parse(check.body).At("text").AsString()), serial)
        << "round " << round;
  }
}

}  // namespace
}  // namespace iotsan::server
