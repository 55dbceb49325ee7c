// Incremental-analysis cache tests (src/cache): warm runs must be
// indistinguishable from cold ones, invalidation must be exact (only
// groups whose inputs changed re-verify), and the store must shrug off
// corruption and concurrent callers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <regex>
#include <sstream>
#include <thread>
#include <variant>

#include "cache/result_cache.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "core/service.hpp"
#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "test_support.hpp"

namespace iotsan {
namespace {

namespace fs = std::filesystem;
using testing_support::Verdicts;
using testing_support::WithinDeadline;

constexpr const char* kSourceA = R"(
definition(name: "Cache App A", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

constexpr const char* kSourceB = R"(
definition(name: "Cache App B", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

/// A comment-only edit to app B: identical semantics (so the related-set
/// grouping is unchanged) but different source bytes, so only B's group
/// key moves.
constexpr const char* kSourceBEdited = R"(
// revision 2
definition(name: "Cache App B", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";

/// Two apps over disjoint devices: dependency analysis yields two
/// related-set groups, so the cache sees two independent keys.
core::Sanitizer TwoGroupSanitizer(const std::string& source_b = kSourceB) {
  config::DeploymentBuilder b("cachehome");
  b.Device("m1", "motionSensor");
  b.Device("m2", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.App("Cache App A").Devices("m1", {"m1"}).Devices("sw", {"sw1"});
  b.App("Cache App B").Devices("m1", {"m2"}).Devices("sw", {"sw2"});
  core::Sanitizer sanitizer(b.Build());
  sanitizer.AddAppSource("Cache App A", kSourceA);
  sanitizer.AddAppSource("Cache App B", source_b);
  return sanitizer;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "iotsan_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

/// RAII telemetry registry: counters observable after each run.
struct ScopedRegistry {
  telemetry::Registry registry;
  ScopedRegistry() { telemetry::SetActive(&registry); }
  ~ScopedRegistry() { telemetry::SetActive(nullptr); }
};

void ExpectSameReport(const core::SanitizerReport& cold,
                      const core::SanitizerReport& warm) {
  EXPECT_EQ(cold.states_explored, warm.states_explored);
  EXPECT_EQ(cold.states_matched, warm.states_matched);
  EXPECT_EQ(cold.transitions, warm.transitions);
  EXPECT_EQ(cold.cascade_drains, warm.cascade_drains);
  EXPECT_EQ(cold.completed, warm.completed);
  EXPECT_EQ(cold.depth_histogram, warm.depth_histogram);
  ASSERT_EQ(cold.violations.size(), warm.violations.size());
  for (std::size_t i = 0; i < cold.violations.size(); ++i) {
    EXPECT_EQ(checker::FormatViolation(cold.violations[i]),
              checker::FormatViolation(warm.violations[i]));
  }
  EXPECT_EQ(cold.per_set_violations.size(), warm.per_set_violations.size());
}

// ---- Entry serialization -----------------------------------------------------

TEST(CacheEntryTest, RoundTripsResultExactly) {
  cache::GroupKey key;
  key.digest = 0x1234;
  key.text = "{\"k\":1}";
  checker::CheckResult result;
  result.states_explored = 17;
  result.states_matched = 4;
  result.transitions = 30;
  result.seconds = 0.123456789012345;
  result.depth_histogram = {1, 8, 8};
  checker::Violation violation;
  violation.property_id = "P06";
  violation.description = "door unlocks";
  violation.apps = {"A"};
  violation.depth = 2;
  result.violations.push_back(violation);

  const json::Value doc = cache::EntryToJson(key, "v1", result);
  const checker::CheckResult back = cache::EntryFromJson(doc, key, "v1");
  EXPECT_EQ(back.states_explored, result.states_explored);
  EXPECT_EQ(back.states_matched, result.states_matched);
  EXPECT_EQ(back.transitions, result.transitions);
  EXPECT_EQ(back.seconds, result.seconds);  // %.17g round-trips exactly
  EXPECT_EQ(back.depth_histogram, result.depth_histogram);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].property_id, "P06");
  EXPECT_EQ(back.violations[0].apps, violation.apps);
  EXPECT_EQ(back.violations[0].depth, 2);
}

TEST(CacheEntryTest, RejectsWrongVersionAndCollidingKey) {
  cache::GroupKey key;
  key.digest = 1;
  key.text = "{\"k\":1}";
  const json::Value doc = cache::EntryToJson(key, "v1", {});
  EXPECT_THROW(cache::EntryFromJson(doc, key, "v2"), Error);
  cache::GroupKey other = key;
  other.text = "{\"k\":2}";  // same digest, different key document
  EXPECT_THROW(cache::EntryFromJson(doc, other, "v1"), Error);
}

// ---- End-to-end warm runs ----------------------------------------------------

TEST(CacheTest, WarmSerialRunIsIdenticalAndAllHits) {
  const std::string dir = FreshDir("warm_serial");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;

  core::SanitizerReport cold, warm;
  {
    ScopedRegistry scoped;
    cold = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 0u);
    EXPECT_EQ(scoped.registry.cache.misses, 2u);
    EXPECT_EQ(scoped.registry.cache.stores, 2u);
  }
  {
    ScopedRegistry scoped;
    warm = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 2u)
        << "every group must hit on an unchanged deployment";
    EXPECT_EQ(scoped.registry.cache.misses, 0u);
  }
  ExpectSameReport(cold, warm);
  // Serial merge sums the memoized per-group seconds in group order, so
  // even the timing line is byte-identical.
  EXPECT_EQ(cold.seconds, warm.seconds);
}

TEST(CacheTest, WarmParallelRunMatchesColdSerial) {
  const std::string dir = FreshDir("warm_jobs");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;

  core::SanitizerReport cold = sanitizer.Check(options);  // jobs = 1
  options.check.jobs = 4;
  core::SanitizerReport warm;
  {
    ScopedRegistry scoped;
    warm = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.hits, 2u)
        << "the key must be --jobs independent";
  }
  ExpectSameReport(cold, warm);
}

TEST(CacheTest, DiskLayerServesAFreshProcess) {
  const std::string dir = FreshDir("disk");
  cache::CacheConfig config;
  config.dir = dir;
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;

  core::SanitizerReport cold;
  {
    cache::ResultCache cold_cache(config);
    options.cache = &cold_cache;
    cold = sanitizer.Check(options);
  }
  // A new instance has an empty memory layer — hits must come from disk.
  cache::ResultCache warm_cache(config);
  options.cache = &warm_cache;
  ScopedRegistry scoped;
  core::SanitizerReport warm = sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits_disk, 2u);
  ExpectSameReport(cold, warm);
  EXPECT_EQ(cold.seconds, warm.seconds);
}

TEST(CacheTest, CorruptEntryDegradesToMissAndIsRepaired) {
  // Unparseable text, and a well-formed entry whose count no uint64 can
  // hold: both are misses, never a served result.
  for (const bool negative_count : {false, true}) {
    SCOPED_TRACE(negative_count ? "negative count" : "garbage");
    const std::string dir = FreshDir("corrupt");
    cache::CacheConfig config;
    config.dir = dir;
    core::Sanitizer sanitizer = TwoGroupSanitizer();
    core::SanitizerOptions options;
    options.check.max_events = 2;
    core::SanitizerReport cold;
    {
      cache::ResultCache cache(config);
      options.cache = &cache;
      cold = sanitizer.Check(options);
    }
    int corrupted = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      std::string text = "{ not json";
      if (negative_count) {
        std::stringstream stored;
        stored << std::ifstream(entry.path()).rdbuf();
        json::Value doc = json::Parse(stored.str());
        doc.MutableObject()["result"].MutableObject()["states_explored"] = -1;
        text = doc.Dump(0);
      }
      std::ofstream(entry.path(), std::ios::trunc) << text;
      ++corrupted;
    }
    ASSERT_EQ(corrupted, 2);
    cache::ResultCache cache(config);
    options.cache = &cache;
    ScopedRegistry scoped;
    core::SanitizerReport warm = sanitizer.Check(options);
    EXPECT_EQ(scoped.registry.cache.misses, 2u);
    EXPECT_EQ(scoped.registry.cache.corrupt_entries, 2u);
    EXPECT_EQ(scoped.registry.cache.stores, 2u) << "good entries rewritten";
    ExpectSameReport(cold, warm);
  }
}

TEST(CacheTest, VersionBumpInvalidatesEverything) {
  const std::string dir = FreshDir("version");
  core::Sanitizer sanitizer = TwoGroupSanitizer();
  core::SanitizerOptions options;
  options.check.max_events = 2;
  cache::CacheConfig config;
  config.dir = dir;
  config.version = "build-A";
  {
    cache::ResultCache cache(config);
    options.cache = &cache;
    sanitizer.Check(options);
  }
  config.version = "build-B";
  cache::ResultCache cache(config);
  options.cache = &cache;
  ScopedRegistry scoped;
  sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits, 0u);
  EXPECT_EQ(scoped.registry.cache.misses, 2u);
  // The stale build-A entries are prunable but not served.
  const cache::DirStats stats = cache::ResultCache::Prune(dir, "build-B");
  EXPECT_EQ(stats.entries, 2u);   // the fresh build-B entries
  EXPECT_EQ(stats.stale, 2u);     // the build-A leftovers
  EXPECT_EQ(stats.removed, 2u);
}

TEST(CacheTest, SourceEditInvalidatesOnlyContainingGroups) {
  const std::string dir = FreshDir("edit");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.cache = &cache;
  {
    core::Sanitizer sanitizer = TwoGroupSanitizer();
    sanitizer.Check(options);
  }
  // Same deployment, app B's source edited: A's group must still hit.
  core::Sanitizer sanitizer = TwoGroupSanitizer(kSourceBEdited);
  ScopedRegistry scoped;
  sanitizer.Check(options);
  EXPECT_EQ(scoped.registry.cache.hits, 1u)
      << "group {A} is untouched by B's edit";
  EXPECT_EQ(scoped.registry.cache.misses, 1u)
      << "only group {B} re-verifies";
}

// ---- Store policy and mechanics ----------------------------------------------

TEST(CacheTest, RefusesResultsThatAreNotPureFunctionsOfTheKey) {
  cache::ResultCache cache(cache::CacheConfig{});
  ScopedRegistry scoped;
  cache::GroupKey key;
  key.digest = 7;
  key.text = "k";
  checker::CheckResult incomplete;
  incomplete.completed = false;  // budget-stopped: wall-clock dependent
  cache.Store(key, incomplete);
  checker::CheckResult racy_bitstate;
  racy_bitstate.store_fill_ratio = 0.25;  // bitstate occupancy
  racy_bitstate.jobs = 4;                 // multi-lane: racy omission set
  cache.Store(key, racy_bitstate);
  EXPECT_EQ(scoped.registry.cache.store_skips, 2u);
  EXPECT_EQ(scoped.registry.cache.stores, 0u);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  // The same bitstate result computed on one lane is deterministic.
  racy_bitstate.jobs = 1;
  cache.Store(key, racy_bitstate);
  EXPECT_EQ(scoped.registry.cache.stores, 1u);
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST(CacheTest, MemoryLruEvictsLeastRecentlyUsed) {
  cache::CacheConfig config;
  config.memory_entries = 2;
  cache::ResultCache cache(config);
  ScopedRegistry scoped;
  auto key_n = [](std::uint64_t n) {
    cache::GroupKey key;
    key.digest = n;
    key.text = "key-" + std::to_string(n);
    return key;
  };
  cache.Store(key_n(1), {});
  cache.Store(key_n(2), {});
  EXPECT_TRUE(cache.Lookup(key_n(1)).has_value());  // touch 1; LRU = 2
  cache.Store(key_n(3), {});                        // evicts 2
  EXPECT_EQ(scoped.registry.cache.evictions, 1u);
  EXPECT_TRUE(cache.Lookup(key_n(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key_n(3)).has_value());
  EXPECT_FALSE(cache.Lookup(key_n(2)).has_value());
}

TEST(CacheTest, DigestCollisionDetectedByKeyText) {
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 99;
  key.text = "group-one";
  checker::CheckResult result;
  result.states_explored = 5;
  cache.Store(key, result);
  cache::GroupKey colliding;
  colliding.digest = 99;  // same address
  colliding.text = "group-two";
  EXPECT_FALSE(cache.Lookup(colliding).has_value());
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST(CacheTest, SingleFlightComputesOnce) {
  cache::ResultCache cache(cache::CacheConfig{});
  ScopedRegistry scoped;
  cache::GroupKey key;
  key.digest = 42;
  key.text = "shared";
  std::atomic<int> computes{0};
  auto compute = [&]() {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    checker::CheckResult result;
    result.states_explored = 11;
    return result;
  };
  std::vector<std::thread> threads;
  std::atomic<int> wrong_results{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&]() {
      const checker::CheckResult result = cache.FetchOrCompute(key, compute);
      if (result.states_explored != 11) ++wrong_results;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes, 1) << "concurrent same-key callers must share one run";
  EXPECT_EQ(wrong_results, 0);
  EXPECT_GT(scoped.registry.cache.singleflight_waits, 0u);
}

TEST(CacheTest, SingleFlightSurvivesLeaderFailure) {
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 43;
  key.text = "flaky";
  std::atomic<int> attempts{0};
  auto compute = [&]() -> checker::CheckResult {
    if (attempts.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw Error("transient");
    }
    checker::CheckResult result;
    result.states_explored = 23;
    return result;
  };
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&]() {
      try {
        if (cache.FetchOrCompute(key, compute).states_explored == 23) {
          ++successes;
        }
      } catch (const Error&) {
        // The failing leader rethrows to its own caller.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes, 3) << "a waiter must take over after a failed leader";
}

// ---- Single-flight under nested parallelism -----------------------------------
//
// Checks help-drain nested ParallelFor batches, so the thread leading a
// group's computation may itself pick up another task for the same key,
// or a task of a batch it joins.  Waiting there deadlocks; these tests
// fail through a watchdog instead of hanging ctest.

checker::CheckResult StatesResult(std::uint64_t states) {
  checker::CheckResult result;
  result.states_explored = states;
  return result;
}

TEST(CacheTest, LeaderComputesItsOwnInFlightKeyInsteadOfWaiting) {
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 44;
  key.text = "reentrant";
  std::uint64_t inner = 0;
  WithinDeadline(std::chrono::seconds(120), [&] {
    cache.FetchOrCompute(key, [&] {
      inner = cache.FetchOrCompute(key, [] { return StatesResult(7); })
                  .states_explored;
      return StatesResult(5);
    });
  });
  EXPECT_EQ(inner, 7u);
  EXPECT_EQ(cache.Lookup(key)->states_explored, 5u);
}

TEST(CacheTest, PoolTaskComputesAnInFlightKeyInsteadOfWaiting) {
  // The leader cannot finish before the pool batch does (as when it
  // joins that batch further down its stack), so a task of the batch
  // that waited for the leader would never return.
  cache::ResultCache cache(cache::CacheConfig{});
  cache::GroupKey key;
  key.digest = 45;
  key.text = "nested";
  std::promise<void> batch_done;
  std::shared_future<void> batch_finished = batch_done.get_future().share();
  std::promise<void> leading;
  std::thread leader([&] {
    cache.FetchOrCompute(key, [&] {
      leading.set_value();
      batch_finished.wait();
      return StatesResult(5);
    });
  });
  leading.get_future().wait();
  util::ThreadPool pool(2);
  std::atomic<std::uint64_t> seen{0};
  WithinDeadline(std::chrono::seconds(120), [&] {
    pool.ParallelFor(2, [&](std::size_t i) {
      if (i == 0) {
        seen = cache.FetchOrCompute(key, [] { return StatesResult(7); })
                   .states_explored;
      }
    });
    batch_done.set_value();
  });
  leader.join();
  EXPECT_EQ(seen.load(), 7u);
  EXPECT_EQ(cache.Lookup(key)->states_explored, 5u);
}

/// The climate expert group: 168 related sets, 118 distinct group keys.
const corpus::SystemUnderTest& Climate() { return corpus::ExpertGroups()[1]; }

TEST(CacheTest, ParallelCheckWithDuplicateGroupKeysFinishes) {
  core::CheckRequest request;
  request.deployment = Climate().deployment;
  request.extra_sources = Climate().extra_sources;
  request.options.jobs = 1;
  const std::string serial = core::RunCheck(request).text;

  const std::string dir = FreshDir("climate");
  cache::CacheConfig config;
  config.dir = dir;
  cache::ResultCache cache(config);
  core::ServiceEnv env;
  env.cache = &cache;
  request.options.jobs = 4;
  std::string parallel;
  WithinDeadline(std::chrono::seconds(120),
                 [&] { parallel = core::RunCheck(request, env).text; });
  EXPECT_EQ(Verdicts(parallel), Verdicts(serial));
  fs::remove_all(dir);
}

TEST(CacheTest, ParallelAttributionWithSharedGroupsFinishes) {
  // Attribution fans configurations over the pool; every configuration
  // re-checks the same app-alone groups, so in-flight keys meet tasks of
  // batches their leaders join.  The climate group's first ten installs
  // are corpus apps (no variant sources) and keep the run short.
  core::AttributeRequest request;
  request.app_source = corpus::FindApp("It's Too Cold")->source;
  request.deployment = Climate().deployment;
  request.deployment.apps.resize(10);
  request.options.jobs = 1;
  const std::string serial = core::RunAttribute(request).text;

  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  request.options.jobs = 4;
  std::string parallel;
  WithinDeadline(std::chrono::seconds(120),
                 [&] { parallel = core::RunAttribute(request, env).text; });
  EXPECT_EQ(parallel, serial);
}

TEST(CacheTest, ScanAndClearAccountForEveryFile) {
  const std::string dir = FreshDir("maint");
  cache::CacheConfig config;
  config.dir = dir;
  config.version = "v";
  cache::ResultCache cache(config);
  cache::GroupKey key;
  key.digest = 5;
  key.text = "k";
  cache.Store(key, {});
  std::ofstream(dir + "/deadbeefdeadbeef.json") << "not json";
  cache::DirStats stats = cache::ResultCache::Scan(dir, "v");
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.removed, 0u);
  stats = cache::ResultCache::Clear(dir);
  EXPECT_EQ(stats.removed, 2u);
  EXPECT_TRUE(fs::is_empty(dir));
}

// ---- Keys across options -----------------------------------------------------

/// Alice's home (configs/alice_home.json): the paper's §8 example.
config::Deployment AliceHome() {
  return config::ParseDeploymentText(R"JSON({
    "name": "alice's home",
    "contactPhone": "555-0100",
    "devices": [
      {"id": "alicePresence", "type": "presenceSensor", "roles": ["presence"]},
      {"id": "doorLock", "type": "smartLock", "roles": ["mainDoorLock"]}
    ],
    "apps": [
      {"app": "Auto Mode Change",
       "inputs": {"people": ["alicePresence"],
                  "homeMode": "Home", "awayMode": "Away"}},
      {"app": "Unlock Door", "inputs": {"lock1": ["doorLock"]}}
    ]
  })JSON");
}

/// Everything a check reports, minus wall-clock seconds: the default
/// text, the --stats block, and the JSON report.
std::string ReportSurfaces(const config::Deployment& deployment,
                           const core::CheckResponse& response,
                           bool bitstate) {
  static const std::regex kSeconds(" in [0-9]+\\.[0-9]+s");
  json::Value doc = core::CheckReportToJson(deployment, response.report);
  doc.MutableObject().erase("seconds");
  return std::regex_replace(
             response.text +
                 core::RenderSearchStats(response.report, bitstate),
             kSeconds, " in <t>s") +
         doc.Dump(2);
}

TEST(CacheKeyTest, EveryRequestOptionKeysTheCacheOrLeavesTheResult) {
  // For each request option at its smallest non-default value, a warm
  // run served from a cache the defaults filled must report exactly
  // what a cold run does: an option that changes the result must key
  // the cache.  groupApps selects a work unit's apps, not an option of
  // a whole-deployment check.
  const config::Deployment deployment = AliceHome();
  for (const core::OptionSpec& spec : core::RequestOptionTable()) {
    using Apps = std::vector<std::size_t> core::RequestOptions::*;
    if (std::holds_alternative<Apps>(spec.field)) continue;
    SCOPED_TRACE(spec.key);
    core::CheckRequest request;
    request.deployment = deployment;
    core::SetOption(request.options, spec, spec.min);
    if (core::OptionsToJson(request.options).empty()) {
      request.options = {};
      core::SetOption(request.options, spec, spec.min + 1);
    }
    const core::CheckResponse cold = core::RunCheck(request);

    cache::ResultCache cache(cache::CacheConfig{});
    core::ServiceEnv env;
    env.cache = &cache;
    core::CheckRequest defaults = request;
    defaults.options = {};
    core::RunCheck(defaults, env);
    const core::CheckResponse warm = core::RunCheck(request, env);
    EXPECT_EQ(ReportSurfaces(deployment, cold, request.options.bitstate),
              ReportSurfaces(deployment, warm, request.options.bitstate));
  }
}

TEST(CacheKeyTest, DefaultOptionKeysMatchGolden) {
  // Existing caches stay warm only while the key text at default
  // options is byte-stable (tests/data/group_key_default.txt).
  const core::Sanitizer sanitizer = TwoGroupSanitizer();
  const core::SanitizerOptions options = core::MakeCheckOptions({}, {});
  std::string keys;
  for (const std::vector<std::size_t>& group :
       std::vector<std::vector<std::size_t>>{{0}, {1}}) {
    const cache::GroupKey key = sanitizer.GroupKeyFor(group, options, "golden");
    keys += key.Hex() + " " + key.text + "\n";
  }
  std::ifstream in(IOTSAN_TEST_DATA_DIR "/group_key_default.txt");
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(keys, golden.str());
}

}  // namespace
}  // namespace iotsan
