// Fleet-registry tests (src/registry + the /v1/deployments surface):
//
//   * a delta check is byte-identical to a cold full check of the same
//     revision — serial and with --jobs 4, and on a four-lane server
//     whose delta searches one related set (see docs/fleet.md)
//   * with a result cache, only the groups a revision touched are
//     searched; added and removed apps reuse what the cache holds, and
//     a memory-only cache holds each deployment's last check whatever
//     else it evicts
//   * the If-Match revision guard (409), corrupt-entry recovery,
//     revision persistence across store restarts, and records in the
//     earlier format that retained group results
//   * concurrent PUT + check on the same id stays clean under TSan
//   * the REST surface end to end: PUT/GET/DELETE/check, ETag headers,
//     405 with Allow, reuse across a server restart
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "config/deployment.hpp"
#include "core/service.hpp"
#include "corpus/groups.hpp"
#include "registry/deployment_store.hpp"
#include "registry/fleet.hpp"
#include "server/handlers.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace iotsan::registry {
namespace {

// ---- fixtures ----------------------------------------------------------------

/// The fleet test deployment: one presence/lock pair running the
/// paper's §8 violation ("Auto Mode Change" + "Unlock Door"), plus
/// `device_pairs` independent sensor/heater pairs of which the first
/// `app_pairs` run an "It's Too Cold" instance.  Those instances don't
/// subscribe to location mode, so each is its own related-set group;
/// `threshold` parameterizes pair 0's temperature input, letting a
/// revision dirty exactly one group's fingerprint.  Devices are emitted
/// for every pair regardless of `app_pairs` — group fingerprints cover
/// the whole device table, so keeping it constant is what lets
/// app-only revisions reuse untouched groups.
json::Value FleetDeploymentJson(int device_pairs, int app_pairs,
                                int threshold) {
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
  for (int i = 0; i < device_pairs; ++i) {
    json::Object sensor;
    sensor["id"] = "temp" + std::to_string(i);
    sensor["type"] = "motionTempSensor";
    devices.push_back(json::Value(std::move(sensor)));
    json::Object heater;
    heater["id"] = "heater" + std::to_string(i);
    heater["type"] = "smartSwitch";
    devices.push_back(json::Value(std::move(heater)));
  }
  for (int i = 0; i < app_pairs; ++i) {
    json::Object cold_app;
    cold_app["app"] = "It's Too Cold";
    json::Object cold_inputs;
    cold_inputs["temperatureSensor1"] =
        json::Array{json::Value("temp" + std::to_string(i))};
    cold_inputs["temperature1"] = i == 0 ? threshold : 40;
    cold_inputs["switch1"] =
        json::Array{json::Value("heater" + std::to_string(i))};
    cold_app["inputs"] = std::move(cold_inputs);
    apps.push_back(json::Value(std::move(cold_app)));
  }
  json::Object doc;
  doc["name"] = "fleet home";
  doc["devices"] = std::move(devices);
  doc["apps"] = std::move(apps);
  return json::Value(std::move(doc));
}

StoredDeployment MakeStored(const std::string& id, int pairs,
                            int threshold, int app_pairs = -1) {
  StoredDeployment out;
  out.id = id;
  out.deployment = config::ParseDeployment(FleetDeploymentJson(
      pairs, app_pairs < 0 ? pairs : app_pairs, threshold));
  return out;
}

std::string TempDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("iotsan_registry_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Installs a telemetry registry for the test body (Fleet::Check ticks
/// registry.* counters only when one is active).
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::SetActive(&registry_); }
  void TearDown() override { telemetry::SetActive(nullptr); }
  telemetry::Registry registry_;
};

// ---- delta correctness -------------------------------------------------------

TEST_F(RegistryTest, DeltaIsByteIdenticalToColdFullCheckSerial) {
  // One shared result cache makes the comparison exact: the cold full
  // check replays the per-group entries the registry checks recorded,
  // so the reported per-group seconds agree byte for byte.  The delta's
  // reuse is the same cache's hits.
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  core::RequestOptions options;
  options.jobs = 1;

  Fleet fleet(StoreConfig{});
  ASSERT_EQ(fleet.Put(MakeStored("home", 4, 40)), 1u);
  auto full = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->groups_reused, 0u);
  EXPECT_EQ(full->groups_recomputed, full->groups_total);
  EXPECT_GE(full->groups_total, 6u);

  // Revision 2 edits one app input: exactly one group's fingerprint
  // changes.
  ASSERT_EQ(fleet.Put(MakeStored("home", 4, 35)), 2u);
  auto delta = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->groups_total, full->groups_total);
  EXPECT_EQ(delta->groups_recomputed, 1u);
  EXPECT_EQ(delta->groups_reused, delta->groups_total - 1);

  // Cold full check of the same revision through the CLI/service code
  // path, against the same cache.
  core::CheckRequest request;
  request.deployment =
      config::ParseDeployment(FleetDeploymentJson(4, 4, 35));
  request.options = options;
  core::CheckResponse cold = core::RunCheck(request, env);
  EXPECT_EQ(delta->response.text, cold.text);
  EXPECT_EQ(delta->response.exit_code, cold.exit_code);
  EXPECT_EQ(delta->response.report.states_explored,
            cold.report.states_explored);
  EXPECT_EQ(delta->response.report.seconds, cold.report.seconds);

  EXPECT_GT(registry_.registry.groups_reused.load(), 0u);
  EXPECT_EQ(registry_.registry.checks_full.load(), 1u);
  EXPECT_EQ(registry_.registry.checks_delta.load(), 1u);
}

TEST_F(RegistryTest, DeltaIsByteIdenticalToColdFullCheckWithJobs4) {
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  core::RequestOptions options;
  options.jobs = 4;

  Fleet fleet(StoreConfig{});
  fleet.Put(MakeStored("home", 4, 40));
  auto full = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(full.has_value());
  fleet.Put(MakeStored("home", 4, 35));
  auto delta = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->groups_recomputed, 1u);

  // A fresh registry over a fresh cache searches every group: a cold
  // full check through the same dispatch.  Its searches time apart from
  // the delta's, so only the time is masked; the serial test above
  // compares the seconds too.
  cache::ResultCache cold_cache(cache::CacheConfig{});
  core::ServiceEnv cold_env;
  cold_env.cache = &cold_cache;
  Fleet cold_fleet(StoreConfig{});
  cold_fleet.Put(MakeStored("home", 4, 35));
  auto cold = cold_fleet.Check("home", std::nullopt, options, cold_env);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->groups_reused, 0u);
  EXPECT_EQ(testing_support::MaskTime(delta->response.text),
            testing_support::MaskTime(cold->response.text));
  EXPECT_EQ(delta->response.exit_code, cold->response.exit_code);
}

TEST_F(RegistryTest, ChecksWithCompressionReuseNoPlainGroup) {
  // Groups a plain check recorded cannot answer a check with COLLAPSE
  // on: the store footprint and counters may differ.
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  Fleet fleet(StoreConfig{});
  ASSERT_EQ(fleet.Put(MakeStored("home", 2, 40)), 1u);
  ASSERT_TRUE(fleet.Check("home", std::nullopt, {}, env).has_value());
  core::RequestOptions options;
  options.state_compression = true;
  auto check = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->groups_reused, 0u);
  EXPECT_EQ(check->groups_recomputed, check->groups_total);
}

TEST_F(RegistryTest, AddedAndRemovedAppsReclassifyGroups) {
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  core::RequestOptions options;
  options.jobs = 1;

  Fleet fleet(StoreConfig{});
  fleet.Put(MakeStored("home", 4, 40, 3));
  auto first = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(first.has_value());
  const std::uint64_t base_groups = first->groups_total;

  // A new app over existing devices only runs its own group.
  fleet.Put(MakeStored("home", 4, 40, 4));
  auto grown = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(grown.has_value());
  EXPECT_GT(grown->groups_total, base_groups);
  EXPECT_EQ(grown->groups_reused, base_groups);
  EXPECT_EQ(grown->groups_recomputed, grown->groups_total - base_groups);

  // Shrinking back re-runs nothing: every surviving group is in the
  // cache, and removed groups are simply not planned.
  fleet.Put(MakeStored("home", 4, 40, 3));
  auto shrunk = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->groups_total, base_groups);
  EXPECT_EQ(shrunk->groups_recomputed, 0u);
  EXPECT_EQ(shrunk->groups_reused, base_groups);

  // And a re-check with no new revision reuses everything too.
  auto idle = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(idle->groups_recomputed, 0u);
}

TEST_F(RegistryTest, MemoryOnlyCacheKeepsEachDeploymentsLastCheck) {
  // Far fewer LRU entries than either deployment has sets: what the
  // deployments' next checks reuse is what the cache holds for them.
  cache::CacheConfig config;
  config.memory_entries = 1;
  cache::ResultCache cache(config);
  core::ServiceEnv env;
  env.cache = &cache;
  core::RequestOptions options;
  options.jobs = 1;
  Fleet fleet(StoreConfig{});
  fleet.Put(MakeStored("a", 4, 40));
  fleet.Put(MakeStored("b", 5, 40));  // another device table: no shared set
  for (const char* id : {"a", "b"}) {
    auto full = fleet.Check(id, std::nullopt, options, env);
    ASSERT_TRUE(full.has_value());
    EXPECT_GT(full->groups_total, 2u);
    EXPECT_EQ(full->groups_reused, 0u);
  }
  // Other traffic through the same cache evicts every LRU entry.
  core::CheckRequest other;
  other.deployment = MakeStored("c", 6, 40).deployment;
  other.options = options;
  core::RunCheck(other, env);

  fleet.Put(MakeStored("a", 4, 35));
  auto edited = fleet.Check("a", std::nullopt, options, env);
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->groups_recomputed, 1u);
  auto unchanged = fleet.Check("b", std::nullopt, options, env);
  ASSERT_TRUE(unchanged.has_value());
  EXPECT_EQ(unchanged->groups_recomputed, 0u);

  // Removing a deployment drops what the cache held for it.
  ASSERT_TRUE(fleet.Remove("a", env));
  fleet.Put(MakeStored("a", 4, 35));
  auto again = fleet.Check("a", std::nullopt, options, env);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->groups_reused, 0u);
}

// ---- revision guard and lifecycle --------------------------------------------

TEST_F(RegistryTest, StaleIfMatchThrowsRevisionConflict) {
  core::ServiceEnv env;
  core::RequestOptions options;
  options.jobs = 1;
  Fleet fleet(StoreConfig{});
  EXPECT_EQ(fleet.Put(MakeStored("home", 1, 40)), 1u);
  EXPECT_EQ(fleet.Put(MakeStored("home", 1, 35)), 2u);
  try {
    fleet.Check("home", std::uint64_t{1}, options, env);
    FAIL() << "stale If-Match did not throw";
  } catch (const RevisionConflict& e) {
    EXPECT_EQ(e.expected_revision, 1u);
    EXPECT_EQ(e.current_revision, 2u);
  }
  EXPECT_EQ(registry_.registry.revision_conflicts.load(), 1u);
  // The current revision still checks.
  EXPECT_TRUE(
      fleet.Check("home", std::uint64_t{2}, options, env).has_value());
  // Unknown ids are nullopt, not errors.
  EXPECT_FALSE(
      fleet.Check("nope", std::nullopt, options, env).has_value());
}

TEST_F(RegistryTest, CorruptEntryIsNotFoundAndRecoverable) {
  const std::string dir = TempDir("corrupt");
  {
    DeploymentStore store(StoreConfig{dir, 64});
    EXPECT_EQ(store.Put(MakeStored("home", 1, 40)), 1u);
  }
  std::ofstream(dir + "/home/deployment.json", std::ios::trunc)
      << "{not json";

  DeploymentStore reopened(StoreConfig{dir, 64});
  EXPECT_FALSE(reopened.Get("home").has_value());
  EXPECT_GT(registry_.registry.corrupt_entries.load(), 0u);
  // A fresh PUT heals the entry (the corrupt revision is unreadable, so
  // numbering restarts — monotonic per readable lineage).
  EXPECT_EQ(reopened.Put(MakeStored("home", 1, 40)), 1u);
  EXPECT_TRUE(reopened.Get("home").has_value());
}

TEST_F(RegistryTest, RevisionsPersistAcrossStoreRestarts) {
  const std::string dir = TempDir("persist");
  {
    DeploymentStore store(StoreConfig{dir, 64});
    EXPECT_EQ(store.Put(MakeStored("home", 1, 40)), 1u);
    EXPECT_EQ(store.Put(MakeStored("home", 1, 35)), 2u);
  }
  DeploymentStore reopened(StoreConfig{dir, 64});
  auto deployment = reopened.Get("home");
  ASSERT_TRUE(deployment.has_value());
  EXPECT_EQ(deployment->revision, 2u);
  EXPECT_EQ(reopened.Put(MakeStored("home", 1, 45)), 3u);
  EXPECT_EQ(reopened.List(), std::vector<std::string>{"home"});
}

TEST_F(RegistryTest, MemoryLayerEvictsToTheDiskCopy) {
  // One resident deployment: a PUT of another id evicts the first from
  // memory, and its disk copy serves it from then on.
  const std::string dir = TempDir("evict");
  Fleet fleet(StoreConfig{dir, 1});
  core::ServiceEnv env;
  core::RequestOptions options;
  options.jobs = 1;
  StoredDeployment home = MakeStored("home", 1, 40);
  ASSERT_EQ(fleet.Put(home), 1u);
  auto checked = fleet.Check("home", std::nullopt, options, env);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(registry_.registry.evictions.load(), 0u);
  ASSERT_EQ(fleet.Put(MakeStored("cabin", 2, 35)), 1u);
  EXPECT_EQ(registry_.registry.evictions.load(), 1u);

  // Read back from disk (evicting cabin in turn), unchanged.
  const std::optional<StoredDeployment> reread = fleet.Get("home");
  ASSERT_TRUE(reread.has_value());
  home.revision = 1;
  EXPECT_EQ(StoredDeploymentToJson(*reread).Dump(0),
            StoredDeploymentToJson(home).Dump(0));
  EXPECT_EQ(registry_.registry.evictions.load(), 2u);

  // Evicted again, its next PUT still gets the next revision, and the
  // record of its check survives.
  ASSERT_TRUE(fleet.Get("cabin").has_value());
  EXPECT_EQ(registry_.registry.evictions.load(), 3u);
  EXPECT_EQ(fleet.Put(MakeStored("home", 1, 45)), 2u);
  bool listed = false;
  for (const Fleet::Status& status : fleet.List()) {
    if (status.id != "home") continue;
    listed = true;
    EXPECT_EQ(status.revision, 2u);
    EXPECT_EQ(status.checked_revision, 1u);
    EXPECT_EQ(status.verdict, checked->response.report.violations.empty()
                                  ? "clean"
                                  : "violations");
    EXPECT_EQ(status.groups_total, checked->groups_total);
    EXPECT_EQ(status.groups_recomputed, checked->groups_recomputed);
  }
  EXPECT_TRUE(listed);
}

TEST_F(RegistryTest, EarlierRecordFormatLoadsAsItsStatusRow) {
  // tests/data/record_with_groups.json is a record.json as the registry
  // wrote it when it also retained each group's cache entry (here of a
  // two-group presence/lock home).  It still loads: the status row is
  // read and the retained groups are ignored.
  const std::string dir = TempDir("earlier_record");
  {
    DeploymentStore store(StoreConfig{dir, 64});
    EXPECT_EQ(store.Put(MakeStored("home", 1, 40)), 1u);
  }
  std::filesystem::copy_file(
      std::string(IOTSAN_TEST_DATA_DIR) + "/record_with_groups.json",
      dir + "/home/record.json");
  DeploymentStore reopened(StoreConfig{dir, 64});
  const std::optional<CheckRecord> record = reopened.GetRecord("home");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->revision, 1u);
  EXPECT_EQ(record->verdict, "violations");
  EXPECT_EQ(record->exit_code, 1);
  EXPECT_GT(record->check_seconds, 0);
  EXPECT_EQ(record->groups_total, 2u);
  EXPECT_EQ(record->groups_recomputed, 2u);
  EXPECT_EQ(registry_.registry.corrupt_entries.load(), 0u);
}

TEST_F(RegistryTest, ConcurrentPutAndCheckStayCoherent) {
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  core::RequestOptions options;
  options.jobs = 1;
  Fleet fleet(StoreConfig{});
  fleet.Put(MakeStored("home", 1, 40));

  std::thread writer([&] {
    for (int i = 0; i < 16; ++i) {
      fleet.Put(MakeStored("home", 1, i % 2 == 0 ? 35 : 40));
    }
  });
  std::thread checker([&] {
    for (int i = 0; i < 8; ++i) {
      auto outcome = fleet.Check("home", std::nullopt, options, env);
      ASSERT_TRUE(outcome.has_value());
      EXPECT_GT(outcome->groups_total, 0u);
      // Every revision keeps the presence/lock set: a hit after the
      // first check.
      if (i > 0) {
        EXPECT_GT(outcome->groups_reused, 0u);
      }
    }
  });
  writer.join();
  checker.join();
  auto deployment = fleet.Get("home");
  ASSERT_TRUE(deployment.has_value());
  EXPECT_EQ(deployment->revision, 17u);
}

// ---- REST surface ------------------------------------------------------------

/// Minimal loopback client (same shape as server_test's).
struct ClientResponse {
  int status = 0;
  std::string head;
  std::string body;
  bool complete = false;
};

std::string HeaderValue(const ClientResponse& response,
                        const std::string& name) {
  const std::string marker = "\r\n" + name + ": ";
  const std::size_t at = response.head.find(marker);
  if (at == std::string::npos) return "";
  const std::size_t start = at + marker.size();
  return response.head.substr(
      start, response.head.find("\r\n", start) - start);
}

ClientResponse Fetch(int port, const std::string& method,
                     const std::string& target, const std::string& body = "",
                     const std::string& extra_headers = "") {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\nConnection: close\r\n";
  wire += extra_headers;
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  std::size_t sent = 0;
  bool ok = true;
  while (ok && sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) ok = false;
    sent += n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  std::string data;
  char chunk[4096];
  while (ok) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = data.find("\r\n\r\n");
  if (!ok || head_end == std::string::npos ||
      data.rfind("HTTP/1.1 ", 0) != 0) {
    return out;
  }
  out.head = data.substr(0, head_end);
  out.status = std::atoi(out.head.c_str() + 9);
  out.body = data.substr(head_end + 4);
  out.complete = true;
  return out;
}

std::string PutBody(int pairs, int threshold) {
  json::Object doc;
  doc["schema"] = server::kRequestSchema;
  doc["deployment"] = FleetDeploymentJson(pairs, pairs, threshold);
  return json::Value(std::move(doc)).Dump(0);
}

TEST_F(RegistryTest, RestSurfaceRoundTrip) {
  server::ServerConfig config;
  config.port = 0;
  config.registry_dir = TempDir("rest");
  server::Server server(config);
  server.Start();
  const int port = server.port();

  // PUT creates at revision 1 (201 + ETag), updates at 2 (200).
  ClientResponse created =
      Fetch(port, "PUT", "/v1/deployments/home", PutBody(2, 40));
  ASSERT_TRUE(created.complete);
  EXPECT_EQ(created.status, 201);
  EXPECT_EQ(HeaderValue(created, "ETag"), "\"1\"");
  EXPECT_EQ(json::Parse(created.body).At("revision").AsInt(), 1);
  ClientResponse updated =
      Fetch(port, "PUT", "/v1/deployments/home", PutBody(2, 35));
  ASSERT_TRUE(updated.complete);
  EXPECT_EQ(updated.status, 200);
  EXPECT_EQ(HeaderValue(updated, "ETag"), "\"2\"");

  // GET serves the stored document verbatim with the revision ETag.
  ClientResponse got = Fetch(port, "GET", "/v1/deployments/home");
  ASSERT_TRUE(got.complete);
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(HeaderValue(got, "ETag"), "\"2\"");
  json::Value stored = json::Parse(got.body);
  EXPECT_EQ(stored.At("schema").AsString(), kDeploymentSchema);
  EXPECT_EQ(stored.At("revision").AsInt(), 2);

  // First check is full; a re-check of the same revision reuses every
  // group.
  ClientResponse check =
      Fetch(port, "POST", "/v1/deployments/home/check");
  ASSERT_TRUE(check.complete);
  ASSERT_EQ(check.status, 200);
  json::Value check_doc = json::Parse(check.body);
  EXPECT_EQ(check_doc.At("delta").At("groups_reused").AsInt(), 0);
  EXPECT_GT(check_doc.At("delta").At("groups_recomputed").AsInt(), 0);
  EXPECT_EQ(check_doc.At("verdict").AsString(), "violations");
  ClientResponse recheck =
      Fetch(port, "POST", "/v1/deployments/home/check");
  ASSERT_TRUE(recheck.complete);
  json::Value recheck_doc = json::Parse(recheck.body);
  EXPECT_EQ(recheck_doc.At("delta").At("groups_recomputed").AsInt(), 0);
  EXPECT_EQ(recheck_doc.At("text").AsString(),
            check_doc.At("text").AsString());

  // Stale If-Match answers 409 revision_conflict; the fresh pin passes.
  ClientResponse stale = Fetch(port, "POST", "/v1/deployments/home/check",
                               "", "If-Match: \"1\"\r\n");
  ASSERT_TRUE(stale.complete);
  EXPECT_EQ(stale.status, 409);
  EXPECT_EQ(json::Parse(stale.body).At("error").At("code").AsString(),
            server::kErrConflict);
  ClientResponse pinned = Fetch(port, "POST", "/v1/deployments/home/check",
                                "", "If-Match: \"2\"\r\n");
  ASSERT_TRUE(pinned.complete);
  EXPECT_EQ(pinned.status, 200);

  // The status list reflects the last check.
  ClientResponse list = Fetch(port, "GET", "/v1/deployments");
  ASSERT_TRUE(list.complete);
  json::Value list_doc = json::Parse(list.body);
  const json::Array& rows = list_doc.At("deployments").AsArray();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].At("id").AsString(), "home");
  EXPECT_EQ(rows[0].At("checked_revision").AsInt(), 2);
  EXPECT_EQ(rows[0].At("verdict").AsString(), "violations");

  // Wrong methods carry the Allow header.
  ClientResponse wrong = Fetch(port, "POST", "/v1/deployments");
  ASSERT_TRUE(wrong.complete);
  EXPECT_EQ(wrong.status, 405);
  EXPECT_EQ(HeaderValue(wrong, "Allow"), "GET");
  ClientResponse wrong_item = Fetch(port, "PATCH", "/v1/deployments/home");
  ASSERT_TRUE(wrong_item.complete);
  EXPECT_EQ(wrong_item.status, 405);
  EXPECT_EQ(HeaderValue(wrong_item, "Allow"), "GET, PUT, DELETE");

  // Bad ids are rejected before touching the store.
  ClientResponse bad_id = Fetch(port, "GET", "/v1/deployments/..");
  ASSERT_TRUE(bad_id.complete);
  EXPECT_EQ(bad_id.status, 400);

  // Deployments survive a server restart (disk-backed registry), and so
  // does reuse: with no cache dir of its own, the server keeps its
  // result cache in <registry-dir>/.cache, which is not a deployment.
  server.Stop();
  server::Server reopened(config);
  reopened.Start();
  ClientResponse after = Fetch(reopened.port(), "GET",
                               "/v1/deployments/home");
  ASSERT_TRUE(after.complete);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(HeaderValue(after, "ETag"), "\"2\"");
  ClientResponse warm =
      Fetch(reopened.port(), "POST", "/v1/deployments/home/check");
  ASSERT_TRUE(warm.complete);
  ASSERT_EQ(warm.status, 200);
  json::Value warm_doc = json::Parse(warm.body);
  EXPECT_EQ(warm_doc.At("delta").At("groups_recomputed").AsInt(), 0);
  EXPECT_EQ(warm_doc.At("text").AsString(), check_doc.At("text").AsString());
  ClientResponse relisted = Fetch(reopened.port(), "GET", "/v1/deployments");
  ASSERT_TRUE(relisted.complete);
  EXPECT_EQ(json::Parse(relisted.body).At("deployments").AsArray().size(), 1u);

  // DELETE removes the deployment and its record.
  ClientResponse removed =
      Fetch(reopened.port(), "DELETE", "/v1/deployments/home");
  ASSERT_TRUE(removed.complete);
  EXPECT_EQ(removed.status, 200);
  ClientResponse gone = Fetch(reopened.port(), "GET",
                              "/v1/deployments/home");
  ASSERT_TRUE(gone.complete);
  EXPECT_EQ(gone.status, 404);
  reopened.Stop();
}

/// An iotsan.request/1 envelope of a corpus group: its deployment and
/// the variant app sources it references.
std::string GroupBody(const corpus::SystemUnderTest& sut) {
  json::Object doc;
  doc["schema"] = server::kRequestSchema;
  doc["deployment"] = config::DeploymentToJson(sut.deployment);
  json::Object sources;
  for (const auto& [name, source] : sut.extra_sources) {
    sources[name] = source;
  }
  doc["appSources"] = std::move(sources);
  return json::Value(std::move(doc)).Dump(0);
}

TEST_F(RegistryTest, OneSetDeltaOnAFourLaneServerPrintsTheSerialText) {
  // Group 4 with app 0's first numeric input raised by one: the delta
  // searches one related set and takes the rest from the cache.  That
  // set is searched as a cold check searches it, on one lane, so the
  // delta text and the cached result a later /v1/check replays both
  // equal an uncached one-lane check.  Each round is a fresh server.
  const corpus::SystemUnderTest& base = corpus::ExpertGroups()[3];
  corpus::SystemUnderTest edited = base;
  for (auto& [name, binding] : edited.deployment.apps[0].inputs) {
    if (binding.number) {
      *binding.number += 1;
      break;
    }
  }
  core::CheckRequest request;
  request.deployment = edited.deployment;
  request.extra_sources = edited.extra_sources;
  request.options.jobs = 1;
  const std::string serial =
      testing_support::MaskTime(core::RunCheck(request).text);

  for (int round = 0; round < 5; ++round) {
    server::ServerConfig config;
    config.port = 0;
    config.jobs = 4;
    server::Server server(config);
    server.Start();
    const int port = server.port();
    ASSERT_EQ(Fetch(port, "PUT", "/v1/deployments/g4", GroupBody(base)).status,
              201);
    ASSERT_EQ(Fetch(port, "POST", "/v1/deployments/g4/check").status, 200);
    ASSERT_EQ(
        Fetch(port, "PUT", "/v1/deployments/g4", GroupBody(edited)).status,
        200);
    ClientResponse delta = Fetch(port, "POST", "/v1/deployments/g4/check");
    ASSERT_EQ(delta.status, 200) << delta.body;
    const json::Value delta_doc = json::Parse(delta.body);
    EXPECT_EQ(delta_doc.At("delta").At("groups_recomputed").AsInt(), 1);
    EXPECT_EQ(testing_support::MaskTime(delta_doc.At("text").AsString()),
              serial)
        << "round " << round;
    ClientResponse check = Fetch(port, "POST", "/v1/check", GroupBody(edited));
    ASSERT_EQ(check.status, 200) << check.body;
    EXPECT_EQ(
        testing_support::MaskTime(json::Parse(check.body).At("text").AsString()),
        serial)
        << "round " << round;
    server.Stop();
  }
}

}  // namespace
}  // namespace iotsan::registry
