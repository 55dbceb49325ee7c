// Cluster coordinator tests (src/cluster): a real 2-worker loopback
// cluster must produce reports byte-identical to a single-node run —
// including when a worker fails mid-check and its units are
// re-dispatched — plus unit tests for the batch wire format, the work
// planner, and the HTTP client's backoff/deadline machinery.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "config/deployment.hpp"
#include "core/service.hpp"
#include "corpus/groups.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "util/http_client.hpp"
#include "util/json.hpp"

namespace iotsan::cluster {
namespace {

// ---- fixtures ----------------------------------------------------------------

/// The paper's §8 violating pair plus `cold_apps` independent
/// "It's Too Cold" instances on private sensor/heater pairs — one
/// related-set group each, so the planner yields 1 + cold_apps units.
json::Value DeploymentJson(int cold_apps) {
  json::Array devices;
  json::Array apps;
  {
    json::Object presence;
    presence["id"] = "presence0";
    presence["type"] = "presenceSensor";
    presence["roles"] = json::Array{json::Value("presence")};
    devices.push_back(json::Value(std::move(presence)));
    json::Object lock;
    lock["id"] = "lock0";
    lock["type"] = "smartLock";
    lock["roles"] = json::Array{json::Value("mainDoorLock")};
    devices.push_back(json::Value(std::move(lock)));
    json::Object mode_app;
    mode_app["app"] = "Auto Mode Change";
    json::Object mode_inputs;
    mode_inputs["people"] = json::Array{json::Value("presence0")};
    mode_inputs["homeMode"] = "Home";
    mode_inputs["awayMode"] = "Away";
    mode_app["inputs"] = std::move(mode_inputs);
    apps.push_back(json::Value(std::move(mode_app)));
    json::Object unlock_app;
    unlock_app["app"] = "Unlock Door";
    json::Object unlock_inputs;
    unlock_inputs["lock1"] = json::Array{json::Value("lock0")};
    unlock_app["inputs"] = std::move(unlock_inputs);
    apps.push_back(json::Value(std::move(unlock_app)));
  }
  for (int i = 0; i < cold_apps; ++i) {
    json::Object sensor;
    sensor["id"] = "temp" + std::to_string(i);
    sensor["type"] = "motionTempSensor";
    devices.push_back(json::Value(std::move(sensor)));
    json::Object heater;
    heater["id"] = "heater" + std::to_string(i);
    heater["type"] = "smartSwitch";
    devices.push_back(json::Value(std::move(heater)));
    json::Object app;
    app["app"] = "It's Too Cold";
    json::Object inputs;
    inputs["temperatureSensor1"] =
        json::Array{json::Value("temp" + std::to_string(i))};
    inputs["temperature1"] = 40;
    inputs["switch1"] =
        json::Array{json::Value("heater" + std::to_string(i))};
    app["inputs"] = std::move(inputs);
    apps.push_back(json::Value(std::move(app)));
  }
  json::Object doc;
  doc["name"] = "cluster test home";
  doc["devices"] = std::move(devices);
  doc["apps"] = std::move(apps);
  return json::Value(std::move(doc));
}

core::CheckRequest MakeRequest(int cold_apps, int jobs = 1) {
  core::CheckRequest request;
  request.deployment =
      config::ParseDeployment(DeploymentJson(cold_apps));
  request.options.jobs = jobs;
  return request;
}

/// Everything the determinism guarantee covers: verdict text (violation
/// blocks with their counter-example traces, in canonical order), the
/// result line, and the summed search counters.
struct Determinism {
  std::string violations;
  std::string result_line;
  int exit_code = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_matched = 0;
  std::uint64_t transitions = 0;
  std::uint64_t store_entries = 0;
  std::vector<std::uint64_t> depth_histogram;

  bool operator==(const Determinism&) const = default;
};

Determinism Facts(const core::CheckResponse& response) {
  Determinism out;
  out.violations = core::RenderViolations(response.report);
  out.result_line = core::RenderResultLine(response.report);
  out.exit_code = response.exit_code;
  out.states_explored = response.report.states_explored;
  out.states_matched = response.report.states_matched;
  out.transitions = response.report.transitions;
  out.store_entries = response.report.store_entries;
  out.depth_histogram = response.report.depth_histogram;
  return out;
}

/// A worker that answers /v1/health but abandons every /v1/check
/// connection (closes without responding) — the shape of a process that
/// dies mid-dispatch.  Used to drive the re-dispatch path.  Given a
/// `check_reply`, it answers every /v1/check with that 200 body instead.
class BrokenCheckWorker {
 public:
  explicit BrokenCheckWorker(std::string check_reply = "")
      : check_reply_(std::move(check_reply)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    thread_ = std::thread([this] { Loop(); });
  }

  ~BrokenCheckWorker() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }

  int port() const { return port_; }

 private:
  void Loop() {
    for (;;) {
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client < 0) return;
      std::string head;
      char chunk[4096];
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(client, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        head.append(chunk, static_cast<std::size_t>(n));
      }
      std::string body;
      if (head.rfind("GET /v1/health", 0) == 0) {
        body = "{}";
      } else if (!check_reply_.empty()) {
        body = check_reply_;
      }
      // Anything else — by default every /v1/check — is abandoned.
      if (!body.empty()) {
        const std::string response =
            "HTTP/1.1 200 OK\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
            body;
        ::send(client, response.data(), response.size(), MSG_NOSIGNAL);
      }
      ::close(client);
    }
  }

  std::string check_reply_;
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

/// Starts `count` real worker servers of `jobs` lanes each on ephemeral
/// loopback ports.
class WorkerFleet {
 public:
  explicit WorkerFleet(int count, int jobs = 1) {
    for (int i = 0; i < count; ++i) {
      server::ServerConfig config;
      config.port = 0;
      config.jobs = jobs;
      config.http_workers = 2;
      auto server = std::make_unique<server::Server>(std::move(config));
      server->Start();
      servers_.push_back(std::move(server));
    }
  }

  std::vector<WorkerSpec> Specs() const {
    std::vector<WorkerSpec> out;
    for (const auto& server : servers_) {
      out.push_back({"127.0.0.1", server->port()});
    }
    return out;
  }

  void Stop(std::size_t index) { servers_[index]->Stop(); }

 private:
  std::vector<std::unique_ptr<server::Server>> servers_;
};

/// How many units a plan of `request` has: its distinct related sets.
std::size_t DistinctSets(const core::CheckRequest& request) {
  core::SanitizerReport report;
  const std::vector<std::vector<std::size_t>> groups =
      core::Sanitizer(request.deployment)
          .PlanGroups(core::MakeCheckOptions(request.options, {}), report);
  return PlanUnits(groups).size();
}

ClusterOptions FastRetryOptions(std::vector<WorkerSpec> workers) {
  ClusterOptions options;
  options.workers = std::move(workers);
  options.connect_timeout_ms = 1000;
  options.max_attempts = 2;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 5;
  return options;
}

// ---- worker list -------------------------------------------------------------

TEST(WorkerListTest, ParsesHostsAndPorts) {
  const std::vector<WorkerSpec> workers =
      ParseWorkerList("127.0.0.1:9001,localhost:9002, ,");
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].host, "127.0.0.1");
  EXPECT_EQ(workers[0].port, 9001);
  EXPECT_EQ(workers[1].host, "localhost");
  EXPECT_EQ(workers[1].port, 9002);
  EXPECT_EQ(workers[0].endpoint(), "127.0.0.1:9001");
}

TEST(WorkerListTest, RejectsMalformedEntries) {
  EXPECT_THROW(ParseWorkerList(""), Error);
  EXPECT_THROW(ParseWorkerList("no-port"), Error);
  EXPECT_THROW(ParseWorkerList("host:"), Error);
  EXPECT_THROW(ParseWorkerList(":9001"), Error);
  EXPECT_THROW(ParseWorkerList("host:0"), Error);
  EXPECT_THROW(ParseWorkerList("host:70000"), Error);
  EXPECT_THROW(ParseWorkerList("host:abc"), Error);
}

// ---- backoff / deadline ------------------------------------------------------

TEST(BackoffTest, DelaysStayInsideExponentialWindowAndCap) {
  util::RetryPolicy policy;
  policy.base_delay_ms = 100;
  policy.max_delay_ms = 350;
  iotsan::Rng rng(7);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const int window = std::min(policy.max_delay_ms,
                                policy.base_delay_ms * (1 << (attempt - 1)));
    for (int i = 0; i < 50; ++i) {
      const int delay = util::BackoffDelayMs(policy, attempt, rng);
      EXPECT_GE(delay, 0);
      EXPECT_LE(delay, window);
    }
  }
}

TEST(BackoffTest, SameSeedSameSequence) {
  util::RetryPolicy policy;
  iotsan::Rng a(42);
  iotsan::Rng b(42);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(util::BackoffDelayMs(policy, attempt, a),
              util::BackoffDelayMs(policy, attempt, b));
  }
}

TEST(BackoffTest, RetryHelperRetriesTransientOnly) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 1;
  policy.max_delay_ms = 2;
  int calls = 0;
  int retries_seen = 0;
  const util::HttpResponse response = util::HttpCallWithRetry(
      policy,
      [&] {
        if (++calls < 3) throw util::HttpError("boom", /*transient=*/true);
        return util::HttpResponse{200, "ok"};
      },
      [&](int, int, const std::string&) { ++retries_seen; });
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries_seen, 2);

  calls = 0;
  EXPECT_THROW(util::HttpCallWithRetry(
                   policy,
                   [&]() -> util::HttpResponse {
                     ++calls;
                     throw util::HttpError("bad", /*transient=*/false);
                   }),
               util::HttpError);
  EXPECT_EQ(calls, 1);  // non-transient: no retry

  calls = 0;
  EXPECT_THROW(util::HttpCallWithRetry(
                   policy,
                   [&]() -> util::HttpResponse {
                     ++calls;
                     throw util::HttpError("down", /*transient=*/true);
                   }),
               util::HttpError);
  EXPECT_EQ(calls, 3);  // transient: bounded by max_attempts
}

TEST(DeadlineTest, ReadTimeoutBoundsAStalledServer) {
  // A listener that accepts and then never answers: the read deadline,
  // not the peer, must end the call.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  ::listen(fd, 1);

  util::HttpClientConfig config;
  config.connect_timeout_ms = 1000;
  config.read_timeout_ms = 150;
  const auto start = std::chrono::steady_clock::now();
  bool transient = false;
  EXPECT_THROW(
      {
        try {
          util::HttpCall("127.0.0.1", ntohs(addr.sin_port), "GET", "/x", "",
                         {}, config);
        } catch (const util::HttpError& e) {
          transient = e.transient();
          throw;
        }
      },
      util::HttpError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(transient);  // a timeout is worth retrying
  EXPECT_LT(elapsed, 5.0);
  ::close(fd);
}

// ---- wire format -------------------------------------------------------------

TEST(WireTest, CheckResultRoundTripsEveryMergedField) {
  checker::CheckResult result;
  checker::Violation violation;
  violation.property_id = "P06";
  violation.description = "door unlocks when nobody is home";
  violation.apps = {"Auto Mode Change", "Unlock Door"};
  violation.occurrences = 3;
  result.violations.push_back(violation);
  result.states_explored = 1234;
  result.states_matched = 56;
  result.transitions = 2000;
  result.cascade_drains = 77;
  result.completed = false;
  result.seconds = 1.25;
  result.store_fill_ratio = 0.5;
  result.est_omission_probability = 0.01;
  result.store_entries = 1200;
  result.store_memory_bytes = 65536;
  result.store_bytes_per_state = 54.6;
  result.compress_pool_entries = 10;
  result.compress_pool_bytes = 320;
  result.compress_lookups = 99;
  result.compress_hits = 80;
  result.depth_histogram = {1, 4, 9, 2};

  const checker::CheckResult back =
      checker::CheckResultFromJson(checker::CheckResultToJson(result));
  EXPECT_EQ(back.states_explored, result.states_explored);
  EXPECT_EQ(back.states_matched, result.states_matched);
  EXPECT_EQ(back.transitions, result.transitions);
  EXPECT_EQ(back.cascade_drains, result.cascade_drains);
  EXPECT_EQ(back.completed, result.completed);
  EXPECT_DOUBLE_EQ(back.seconds, result.seconds);
  EXPECT_DOUBLE_EQ(back.store_fill_ratio, result.store_fill_ratio);
  EXPECT_DOUBLE_EQ(back.est_omission_probability,
                   result.est_omission_probability);
  EXPECT_EQ(back.store_entries, result.store_entries);
  EXPECT_EQ(back.store_memory_bytes, result.store_memory_bytes);
  EXPECT_DOUBLE_EQ(back.store_bytes_per_state, result.store_bytes_per_state);
  EXPECT_EQ(back.compress_pool_entries, result.compress_pool_entries);
  EXPECT_EQ(back.compress_pool_bytes, result.compress_pool_bytes);
  EXPECT_EQ(back.compress_lookups, result.compress_lookups);
  EXPECT_EQ(back.compress_hits, result.compress_hits);
  EXPECT_EQ(back.depth_histogram, result.depth_histogram);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].property_id, "P06");
  EXPECT_EQ(back.violations[0].apps, violation.apps);
  EXPECT_EQ(back.violations[0].occurrences, 3u);
}

TEST(WireTest, UnitReplyWithMalformedCountThrows) {
  // A worker's reply is outside input: a count that is negative,
  // fractional or too large for its field is an Error (the coordinator
  // then re-dispatches the unit), never an unchecked cast.
  for (const std::string bad : {"-1", "2.5", "1e300"}) {
    const json::Value doc = json::Parse(
        R"({"violations": [], "states_explored": )" + bad + "}");
    EXPECT_THROW(checker::CheckResultFromJson(doc), Error) << bad;
  }
  EXPECT_THROW(checker::CheckResultFromJson(json::Parse(
                   R"({"violations": [], "depth_histogram": [1, -1]})")),
               Error);
}

TEST(WireTest, BatchRequestRoundTripsThroughTheWorkerParser) {
  core::CheckRequest request = MakeRequest(/*cold_apps=*/1);
  request.options.events = 4;
  request.options.failures = true;
  request.options.deadline_seconds = 30;
  core::CheckUnit pair;
  pair.group_apps = {0, 1};
  core::CheckUnit cold;
  cold.group_apps = {2};

  const json::Value doc = BatchRequestJson(request, {pair, cold});
  EXPECT_EQ(doc.At("schema").AsString(), "iotsan.request/1");
  EXPECT_TRUE(doc.Has("deployment"));
  const json::Value& options = doc.At("options");
  EXPECT_EQ(options.At("events").AsInt(), 4);
  EXPECT_TRUE(options.At("failures").AsBool());
  EXPECT_EQ(options.At("deadlineSeconds").AsInt(), 30);
  // The worker's own pool must size the search: jobs never forwarded.
  EXPECT_FALSE(options.Has("jobs"));
  ASSERT_EQ(doc.At("units").AsArray().size(), 2u);

  const core::CheckRequest back =
      server::ParseCheckRequest(doc.Dump(0), core::RequestOptions{});
  EXPECT_EQ(back.options.events, 4);
  EXPECT_TRUE(back.options.failures);
  EXPECT_EQ(back.deployment.apps.size(), request.deployment.apps.size());
  ASSERT_EQ(back.units.size(), 2u);
  EXPECT_EQ(back.units[0].group_apps, pair.group_apps);
  EXPECT_EQ(back.units[1].group_apps, cold.group_apps);

  // The reply: one compact result per unit, in request order.
  const std::vector<checker::CheckResult> results =
      core::RunCheckUnits(back);
  ASSERT_EQ(results.size(), 2u);
  json::Array list;
  for (const checker::CheckResult& result : results) {
    list.push_back(checker::CheckResultToJson(result));
  }
  json::Object reply;
  reply["units"] = std::move(list);
  const std::vector<checker::CheckResult> decoded =
      BatchResultsFromJson(json::Value(std::move(reply)), 2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded[i].states_explored, results[i].states_explored);
    EXPECT_EQ(checker::CheckResultToJson(decoded[i]).Dump(),
              checker::CheckResultToJson(results[i]).Dump());
  }
}

TEST(WireTest, BatchReplyWithTheWrongUnitCountThrows) {
  const json::Value one = json::Parse(
      R"({"units": [{"violations": [], "states_explored": 1}]})");
  EXPECT_EQ(BatchResultsFromJson(one, 1).size(), 1u);
  EXPECT_THROW(BatchResultsFromJson(one, 2), Error);
  EXPECT_THROW(BatchResultsFromJson(json::Parse(R"({"units": []})"), 1),
               Error);
  EXPECT_THROW(BatchResultsFromJson(json::Parse(R"({"unit": {}})"), 1),
               Error);
}

// ---- planner -----------------------------------------------------------------

TEST(PlanTest, OneUnitPerSet) {
  const std::vector<std::vector<std::size_t>> groups = {{0, 1}, {2}};
  const std::vector<WorkUnit> units = PlanUnits(groups);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].group_apps, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(units[1].group_index, 1u);
}

TEST(PlanTest, OneUnitPerDistinctSet) {
  // A repeated app-index list is planned once, at its first position;
  // the merge copies that result to the repeats.
  const std::vector<std::vector<std::size_t>> groups = {
      {0, 1}, {2}, {0, 1}, {3}, {2}};
  const std::vector<WorkUnit> units = PlanUnits(groups);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].group_index, 0u);
  EXPECT_EQ(units[1].group_index, 1u);
  EXPECT_EQ(units[2].group_index, 3u);
  EXPECT_EQ(core::FirstOccurrences(groups),
            (std::vector<std::size_t>{0, 1, 0, 3, 1}));
}

// ---- end-to-end cluster ------------------------------------------------------

TEST(ClusterTest, TwoWorkersMatchSingleNodeByteForByte) {
  WorkerFleet fleet(2);
  Coordinator coordinator(FastRetryOptions(fleet.Specs()));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/2);
  const ClusterOutcome outcome = coordinator.Check(request);
  const core::CheckResponse local = core::RunCheck(request);

  EXPECT_EQ(Facts(outcome.response), Facts(local));
  EXPECT_EQ(outcome.response.report.related_set_count,
            local.report.related_set_count);
  // One unit per distinct related set, all of them dispatched remotely.
  EXPECT_EQ(outcome.units_total, DistinctSets(request));
  EXPECT_EQ(outcome.units_remote, outcome.units_total);
  EXPECT_EQ(outcome.units_local, 0u);
  EXPECT_EQ(outcome.units_redispatched, 0u);
  EXPECT_FALSE(outcome.degraded_local);
}

TEST(ClusterTest, CoordinatorReportsOncePerUnit) {
  // A unit counts once, when its result arrives, so the coordinated
  // check ends on the single node's last report.
  const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[5];
  core::CheckRequest request;
  request.deployment = sut.deployment;
  request.extra_sources = sut.extra_sources;
  request.options.jobs = 1;
  std::vector<telemetry::Progress> coordinated;
  std::vector<telemetry::Progress> single;
  core::ServiceEnv env;
  env.on_progress = [&coordinated](const telemetry::Progress& progress) {
    coordinated.push_back(progress);
  };
  WorkerFleet fleet(2);
  Coordinator coordinator(FastRetryOptions(fleet.Specs()));
  const ClusterOutcome outcome = coordinator.Check(request, env);
  env.on_progress = [&single](const telemetry::Progress& progress) {
    single.push_back(progress);
  };
  core::RunCheck(request, env);

  ASSERT_GT(outcome.units_total, 1u);
  ASSERT_EQ(coordinated.size(), outcome.units_total);
  for (std::size_t i = 0; i < coordinated.size(); ++i) {
    EXPECT_EQ(coordinated[i].groups_done, i + 1);
    EXPECT_EQ(coordinated[i].groups_total, outcome.units_total);
  }
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(coordinated.back().groups_done, single.back().groups_done);
  EXPECT_EQ(coordinated.back().groups_total, single.back().groups_total);
  EXPECT_EQ(coordinated.back().states_explored,
            single.back().states_explored);
}

TEST(ClusterTest, ParallelRequestStillMatchesSingleNode) {
  WorkerFleet fleet(2);
  Coordinator coordinator(FastRetryOptions(fleet.Specs()));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/2,
                                                 /*jobs=*/4);
  const ClusterOutcome outcome = coordinator.Check(request);
  const core::CheckResponse local = core::RunCheck(request);
  EXPECT_EQ(Facts(outcome.response), Facts(local));
}

TEST(ClusterTest, MultiLaneWorkersPrintTheSingleNodeText) {
  // Expert group 6's last batch holds one unit.  A worker searches a
  // lone unit on one lane, as it searches every unit of a larger batch,
  // so four-lane workers print what one node prints at one lane.  Each
  // run is a fresh pair of workers with empty caches.
  const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[5];
  core::CheckRequest request;
  request.deployment = sut.deployment;
  request.extra_sources = sut.extra_sources;
  request.options.jobs = 1;
  const std::string local =
      testing_support::MaskTime(core::RunCheck(request).text);
  for (int run = 0; run < 5; ++run) {
    WorkerFleet fleet(2, /*jobs=*/4);
    Coordinator coordinator(FastRetryOptions(fleet.Specs()));
    const ClusterOutcome outcome = coordinator.Check(request);
    EXPECT_EQ(outcome.units_remote, outcome.units_total);
    EXPECT_EQ(testing_support::MaskTime(outcome.response.text), local)
        << "run " << run;
  }
}

TEST(ClusterTest, DeadWorkerUnitsAreRedispatchedToSurvivors) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  WorkerFleet fleet(1);
  BrokenCheckWorker broken;  // health ok, every check abandoned

  std::vector<WorkerSpec> specs = fleet.Specs();
  specs.push_back({"127.0.0.1", broken.port()});
  Coordinator coordinator(FastRetryOptions(std::move(specs)));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/3);
  const ClusterOutcome outcome = coordinator.Check(request);
  const core::CheckResponse local = core::RunCheck(request);

  EXPECT_EQ(Facts(outcome.response), Facts(local));
  EXPECT_FALSE(outcome.degraded_local);
  // The broken worker took at least one unit down with it; the
  // survivor (or, if it died last, local fallback) finished the job
  // without losing work.
  EXPECT_GE(outcome.units_redispatched + outcome.units_local, 1u);

  bool broken_row_seen = false;
  for (const WorkerStatus& status : coordinator.WorkerRows()) {
    if (status.endpoint == "127.0.0.1:" + std::to_string(broken.port())) {
      broken_row_seen = true;
      EXPECT_FALSE(status.healthy);
      EXPECT_GE(status.units_failed, 1u);
    }
  }
  EXPECT_TRUE(broken_row_seen);
  const telemetry::Registry* t = telemetry::Active();
  EXPECT_GE(t->cluster.worker_failures.load(), 1u);
  telemetry::SetActive(nullptr);
}

TEST(ClusterTest, AllWorkersDownDegradesToLocalWithSameReport) {
  // Grab (and immediately release) two ephemeral ports: nothing listens.
  int dead_ports[2];
  for (int& port : dead_ports) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
    ::close(fd);
  }
  Coordinator coordinator(FastRetryOptions(
      {{"127.0.0.1", dead_ports[0]}, {"127.0.0.1", dead_ports[1]}}));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/1);
  const ClusterOutcome outcome = coordinator.Check(request);
  const core::CheckResponse local = core::RunCheck(request);
  EXPECT_TRUE(outcome.degraded_local);
  EXPECT_EQ(Facts(outcome.response), Facts(local));
  for (const WorkerStatus& status : coordinator.WorkerRows()) {
    EXPECT_FALSE(status.healthy);
  }
}

TEST(ClusterTest, NoLocalFallbackFailsFastWhenFleetIsDown) {
  ClusterOptions options =
      FastRetryOptions({{"127.0.0.1", 1}});  // port 1: nothing listens
  options.allow_local_fallback = false;
  Coordinator coordinator(std::move(options));
  EXPECT_THROW(coordinator.Check(MakeRequest(/*cold_apps=*/0)), Error);
}

TEST(ClusterTest, WrongLengthReplyIsAWorkerFailure) {
  // A worker that answers 200 with the wrong number of results is
  // declared dead like one that drops the connection: its units run
  // elsewhere and the report is unchanged.
  BrokenCheckWorker short_replies(R"({"units": []})");
  Coordinator coordinator(
      FastRetryOptions({{"127.0.0.1", short_replies.port()}}));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/2);
  const ClusterOutcome outcome = coordinator.Check(request);
  EXPECT_EQ(Facts(outcome.response), Facts(core::RunCheck(request)));
  EXPECT_FALSE(outcome.degraded_local);
  EXPECT_EQ(outcome.units_local, outcome.units_total);
  const std::vector<WorkerStatus> rows = coordinator.WorkerRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].healthy);
  EXPECT_NE(rows[0].last_error.find("results for"), std::string::npos)
      << rows[0].last_error;
}

TEST(ClusterTest, WorkerBatchEndpointReturnsRawResults) {
  // The worker half of the protocol: POST /v1/check with a "units" list
  // returns one compact CheckResult per unit, not a rendered report.
  WorkerFleet fleet(1);
  const WorkerSpec spec = fleet.Specs()[0];
  const core::CheckRequest request = MakeRequest(/*cold_apps=*/1);
  core::CheckUnit pair;
  pair.group_apps = {0, 1};
  core::CheckUnit cold;
  cold.group_apps = {2};
  const util::HttpResponse response =
      util::HttpCall(spec.host, spec.port, "POST", "/v1/check",
                     BatchRequestJson(request, {pair, cold}).Dump(0));
  ASSERT_EQ(response.status, 200);
  const std::vector<checker::CheckResult> results =
      BatchResultsFromJson(json::Parse(response.body), 2);
  EXPECT_GT(results[0].states_explored, 0u);
  ASSERT_FALSE(results[0].violations.empty());
  // Compact: coordinates only, nothing observed along the path.
  for (const checker::TraceStep& step : results[0].violations[0].steps) {
    EXPECT_EQ(step.index, 0);
    EXPECT_TRUE(step.description.empty());
    EXPECT_TRUE(step.notes.empty());
  }
  EXPECT_GT(results[1].states_explored, 0u);

  // Out-of-range app indices are a client error, not a crash.
  core::CheckUnit bad;
  bad.group_apps = {99};
  const util::HttpResponse rejected =
      util::HttpCall(spec.host, spec.port, "POST", "/v1/check",
                     BatchRequestJson(request, {pair, bad}).Dump(0));
  EXPECT_EQ(rejected.status, 400);
}

}  // namespace
}  // namespace iotsan::cluster
