// Cluster coordinator tests (src/cluster): a real 2-worker loopback
// cluster must produce reports byte-identical to a single-node run —
// including when a worker fails mid-check and its units are
// re-dispatched — plus unit tests for the wire format, the work
// planner, the shard merge, and the HTTP client's backoff/deadline
// machinery.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "config/deployment.hpp"
#include "core/service.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
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
/// dies mid-dispatch.  Used to drive the re-dispatch path.
class BrokenCheckWorker {
 public:
  BrokenCheckWorker() {
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
      if (head.rfind("GET /v1/health", 0) == 0) {
        const char response[] =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
            "Connection: close\r\n\r\n{}";
        ::send(client, response, sizeof response - 1, MSG_NOSIGNAL);
      }
      // Anything else — including every /v1/check — is abandoned.
      ::close(client);
    }
  }

  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

/// Starts `count` real worker servers on ephemeral loopback ports.
class WorkerFleet {
 public:
  explicit WorkerFleet(int count) {
    for (int i = 0; i < count; ++i) {
      server::ServerConfig config;
      config.port = 0;
      config.jobs = 1;
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

TEST(WireTest, UnitRequestCarriesEnvelopeAndUnitOptions) {
  core::CheckRequest request = MakeRequest(/*cold_apps=*/0);
  request.options.events = 4;
  request.options.failures = true;
  request.options.deadline_seconds = 30;
  WorkUnit unit;
  unit.group_apps = {0, 1};
  unit.branch_modulus = 4;
  unit.branch_residue = 2;
  unit.bitstate_seed = 99;

  const json::Value doc = UnitRequestJson(request, unit);
  EXPECT_EQ(doc.At("schema").AsString(), "iotsan.request/1");
  EXPECT_TRUE(doc.Has("deployment"));
  const json::Value& options = doc.At("options");
  EXPECT_EQ(options.At("events").AsInt(), 4);
  EXPECT_TRUE(options.At("failures").AsBool());
  EXPECT_EQ(options.At("deadlineSeconds").AsInt(), 30);
  EXPECT_EQ(options.At("groupApps").AsArray().size(), 2u);
  EXPECT_EQ(options.At("branchModulus").AsInt(), 4);
  EXPECT_EQ(options.At("branchResidue").AsInt(), 2);
  EXPECT_EQ(options.At("bitstateSeed").AsInt(), 99);
  // The worker's own pool must size the search: jobs never forwarded.
  EXPECT_FALSE(options.Has("jobs"));
}

// ---- planner / shard merge ---------------------------------------------------

TEST(PlanTest, OneGroupUnitPerGroupByDefault) {
  const std::vector<std::vector<std::size_t>> groups = {{0, 1}, {2}};
  const std::vector<WorkUnit> units =
      PlanUnits(groups, ClusterOptions{}, core::RequestOptions{});
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].kind, UnitKind::kGroup);
  EXPECT_EQ(units[0].group_apps, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(units[1].group_index, 1u);
}

TEST(PlanTest, BranchSplitYieldsResidueShards) {
  ClusterOptions options;
  options.branch_split = 3;
  const std::vector<WorkUnit> units =
      PlanUnits({{0, 1}}, options, core::RequestOptions{});
  ASSERT_EQ(units.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(units[i].kind, UnitKind::kBranchShard);
    EXPECT_EQ(units[i].branch_modulus, 3u);
    EXPECT_EQ(units[i].branch_residue, i);
  }
}

TEST(PlanTest, SwarmLanesNeedBitstateAndDiversifySeeds) {
  ClusterOptions options;
  options.swarm_lanes = 3;
  // Without bitstate, lanes are meaningless: plain group units.
  EXPECT_EQ(PlanUnits({{0}}, options, core::RequestOptions{}).size(), 1u);
  core::RequestOptions bitstate;
  bitstate.bitstate = true;
  const std::vector<WorkUnit> units = PlanUnits({{0}}, options, bitstate);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].bitstate_seed, 0u);  // lane 0 = historical family
  EXPECT_NE(units[1].bitstate_seed, 0u);
  EXPECT_NE(units[1].bitstate_seed, units[2].bitstate_seed);
}

TEST(MergeTest, BranchShardsDropDuplicateInitialStateAccounting) {
  // Each field's merge rule (checker::Accumulate) in one place: counts
  // and seconds add, `completed` ANDs, and the store's worst case keeps
  // the larger shard's value — taken once from each shard below, so a
  // sum or a first-wins rule would fail.
  checker::CheckResult a;
  a.states_explored = 5;
  a.states_matched = 2;
  a.transitions = 4;
  a.cascade_drains = 5;
  a.seconds = 0.5;
  a.depth_histogram = {1, 4};
  a.store_fill_ratio = 0.25;
  a.est_omission_probability = 0.01;
  a.store_entries = 6;
  a.store_memory_bytes = 4096;
  a.compress_states_encoded = 7;
  a.compress_pool_entries = 3;
  a.compress_pool_bytes = 200;
  a.compress_lookups = 21;
  a.compress_hits = 18;
  a.store_bytes_per_state = 716.0;
  a.jobs = 4;
  a.parallel_branches = 2;
  a.worker_states_explored = {2, 1, 1, 1};
  checker::CheckResult b;
  b.states_explored = 7;
  b.states_matched = 3;
  b.transitions = 6;
  b.cascade_drains = 8;
  b.completed = false;
  b.seconds = 0.25;
  b.depth_histogram = {1, 6};
  b.store_fill_ratio = 0.125;
  b.est_omission_probability = 0.02;
  b.store_entries = 8;
  b.store_memory_bytes = 2048;
  b.compress_states_encoded = 9;
  b.compress_pool_entries = 4;
  b.compress_pool_bytes = 300;
  b.compress_lookups = 27;
  b.compress_hits = 23;
  b.store_bytes_per_state = 293.5;
  b.parallel_branches = 3;
  b.worker_states_explored = {7};
  checker::Violation v;
  v.property_id = "P01";
  v.occurrences = 2;
  b.violations.push_back(v);

  const checker::CheckResult merged =
      MergeShardResults(UnitKind::kBranchShard, {a, b});
  // Both shards accounted the shared initial state; a single run counts
  // it once.
  EXPECT_EQ(merged.states_explored, 11u);
  EXPECT_EQ(merged.depth_histogram,
            (std::vector<std::uint64_t>{1, 10}));
  EXPECT_EQ(merged.states_matched, 5u);
  EXPECT_EQ(merged.transitions, 10u);
  EXPECT_EQ(merged.cascade_drains, 13u);
  EXPECT_FALSE(merged.completed);
  EXPECT_DOUBLE_EQ(merged.seconds, 0.75);
  EXPECT_DOUBLE_EQ(merged.store_fill_ratio, 0.25);
  EXPECT_DOUBLE_EQ(merged.est_omission_probability, 0.02);
  EXPECT_EQ(merged.store_entries, 14u);
  EXPECT_EQ(merged.store_memory_bytes, 4096u);
  EXPECT_EQ(merged.compress_states_encoded, 16u);
  EXPECT_EQ(merged.compress_pool_entries, 7u);
  EXPECT_EQ(merged.compress_pool_bytes, 300u);
  EXPECT_EQ(merged.compress_lookups, 48u);
  EXPECT_EQ(merged.compress_hits, 41u);
  EXPECT_DOUBLE_EQ(merged.store_bytes_per_state, 716.0);
  EXPECT_EQ(merged.jobs, 4);
  EXPECT_EQ(merged.parallel_branches, 5u);
  EXPECT_EQ(merged.worker_states_explored,
            (std::vector<std::uint64_t>{9, 1, 1, 1}));
  ASSERT_EQ(merged.violations.size(), 1u);
  EXPECT_EQ(merged.violations[0].occurrences, 2u);
}

TEST(ShardTest, OneLaneBranchShardNeedsNoMoreMemoryThanTheWholeGroup) {
  // On a one-lane worker a branch shard is the one-lane search over a
  // subset of the root branches, with the 1-shard store and codec of a
  // whole-group run, so it needs no more store or pool memory.
  core::CheckRequest request = MakeRequest(/*cold_apps=*/0);
  request.options.state_compression = true;
  request.options.group_apps = {0, 1};
  const checker::CheckResult whole = core::RunCheckUnit(request);
  request.options.branch_modulus = 2;
  for (unsigned residue = 0; residue < 2; ++residue) {
    request.options.branch_residue = residue;
    const checker::CheckResult shard = core::RunCheckUnit(request);
    EXPECT_LT(shard.states_explored, whole.states_explored);
    EXPECT_LE(shard.store_memory_bytes, whole.store_memory_bytes);
    EXPECT_LE(shard.compress_pool_bytes, whole.compress_pool_bytes);
  }
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
  // One kGroup unit per related set, all of them dispatched remotely.
  EXPECT_EQ(outcome.units_total,
            static_cast<std::size_t>(local.report.related_set_count));
  EXPECT_EQ(outcome.units_remote, outcome.units_total);
  EXPECT_EQ(outcome.units_local, 0u);
  EXPECT_EQ(outcome.units_redispatched, 0u);
  EXPECT_FALSE(outcome.degraded_local);
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

TEST(ClusterTest, BranchShardsPreserveVerdicts) {
  WorkerFleet fleet(2);
  ClusterOptions options = FastRetryOptions(fleet.Specs());
  options.branch_split = 3;
  Coordinator coordinator(std::move(options));

  const core::CheckRequest request = MakeRequest(/*cold_apps=*/1);
  const ClusterOutcome outcome = coordinator.Check(request);
  const core::CheckResponse local = core::RunCheck(request);

  // Shards re-explore shared prefixes, so counters — including the
  // per-violation "seen Nx" occurrence tallies — exceed a single run's;
  // the verdicts, ordering, and counter-example traces must be
  // identical.  Scrub the occurrence counts before comparing.
  const auto scrub = [](std::string text) {
    for (std::size_t at = text.find("seen "); at != std::string::npos;
         at = text.find("seen ", at + 1)) {
      std::size_t digits = at + 5;
      while (digits < text.size() && std::isdigit(text[digits]) != 0) {
        text.erase(digits, 1);
      }
    }
    return text;
  };
  EXPECT_EQ(outcome.units_total,
            static_cast<std::size_t>(local.report.related_set_count) * 3);
  EXPECT_EQ(scrub(core::RenderViolations(outcome.response.report)),
            scrub(core::RenderViolations(local.report)));
  EXPECT_EQ(core::RenderResultLine(outcome.response.report),
            core::RenderResultLine(local.report));
  EXPECT_EQ(outcome.response.exit_code, local.exit_code);
  EXPECT_GE(outcome.response.report.states_explored,
            local.report.states_explored);
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

TEST(ClusterTest, WorkerUnitEndpointReturnsRawResult) {
  // The worker half of the protocol: POST /v1/check with groupApps
  // returns a "unit" CheckResult, not a rendered report.
  WorkerFleet fleet(1);
  const WorkerSpec spec = fleet.Specs()[0];
  core::CheckRequest request = MakeRequest(/*cold_apps=*/0);
  WorkUnit unit;
  unit.group_apps = {0, 1};
  const util::HttpResponse response =
      util::HttpCall(spec.host, spec.port, "POST", "/v1/check",
                     UnitRequestJson(request, unit).Dump(0));
  ASSERT_EQ(response.status, 200);
  const json::Value doc = json::Parse(response.body);
  ASSERT_TRUE(doc.Has("unit"));
  const checker::CheckResult result =
      checker::CheckResultFromJson(doc.At("unit"));
  EXPECT_GT(result.states_explored, 0u);
  EXPECT_FALSE(result.violations.empty());

  // Out-of-range app indices are a client error, not a crash.
  WorkUnit bad;
  bad.group_apps = {99};
  const util::HttpResponse rejected =
      util::HttpCall(spec.host, spec.port, "POST", "/v1/check",
                     UnitRequestJson(request, bad).Dump(0));
  EXPECT_EQ(rejected.status, 400);
}

}  // namespace
}  // namespace iotsan::cluster
