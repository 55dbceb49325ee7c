// Model-checker tests: state stores, search bounds, budgets, traces, and
// the depth-in-state fidelity option (paper §2.3/§8).
#include <gtest/gtest.h>

#include "checker/checker.hpp"
#include "checker/state_store.hpp"
#include "config/builder.hpp"
#include "ir/analyzer.hpp"

namespace iotsan::checker {
namespace {

// ---- Stores ------------------------------------------------------------------

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(ExhaustiveStoreTest, ExactMembership) {
  ExhaustiveStore store;
  EXPECT_FALSE(store.TestAndInsert(Bytes({1, 2, 3})));
  EXPECT_TRUE(store.TestAndInsert(Bytes({1, 2, 3})));
  EXPECT_FALSE(store.TestAndInsert(Bytes({1, 2, 4})));
  EXPECT_FALSE(store.TestAndInsert(Bytes({})));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(ExhaustiveStoreTest, MemoryIsKeyBytesPlusTwoPointersPerState) {
  // The formula behind the `store:` line and store.bytes_per_state.
  ExhaustiveStore store(4);
  store.TestAndInsert(Bytes({1, 2, 3}));
  store.TestAndInsert(Bytes({1, 2, 3}));
  store.TestAndInsert(Bytes({4, 5}));
  EXPECT_EQ(store.memory_bytes(), 3 + 2 + 2 * 2 * sizeof(void*));
}

TEST(InternPoolTest, IndicesAreDenseAndMemoryIsArenaPlusEntries) {
  InternPool pool(1);
  // An empty run first: the arena has no block yet.
  EXPECT_EQ(pool.Intern(Bytes({})), 0u);
  EXPECT_EQ(pool.Intern(Bytes({1, 2, 3})), 1u);
  EXPECT_EQ(pool.Intern(Bytes({4})), 2u);
  EXPECT_EQ(pool.Intern(Bytes({1, 2, 3})), 1u);
  EXPECT_EQ(pool.Intern(Bytes({})), 0u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.lookups(), 5u);
  EXPECT_EQ(pool.hits(), 2u);
  // One 256-byte arena block, plus the per-entry index cost.
  EXPECT_EQ(pool.memory_bytes(),
            256 + 3 * (2 * sizeof(void*) + sizeof(std::uint32_t)));
}

TEST(BitstateStoreTest, BasicMembership) {
  BitstateStore store(1 << 16);
  EXPECT_FALSE(store.TestAndInsert(Bytes({1, 2, 3})));
  EXPECT_TRUE(store.TestAndInsert(Bytes({1, 2, 3})));
  EXPECT_FALSE(store.TestAndInsert(Bytes({9, 9})));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.memory_bytes(), (1u << 16) / 8);
  EXPECT_GT(store.Occupancy(), 0.0);
}

TEST(BitstateStoreTest, NoFalsePositivesWhenSparse) {
  BitstateStore store(1 << 20);
  int collisions = 0;
  for (int i = 0; i < 5000; ++i) {
    if (store.TestAndInsert(Bytes({i & 0xFF, (i >> 8) & 0xFF, 7}))) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(BitstateStoreTest, SaturationCausesFalsePositives) {
  // Spin's known BITSTATE trade-off: a tiny bit field saturates.
  BitstateStore store(64, 3);
  int collisions = 0;
  for (int i = 0; i < 200; ++i) {
    if (store.TestAndInsert(Bytes({i & 0xFF, (i >> 8) & 0xFF}))) {
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 0);
  EXPECT_GT(store.Occupancy(), 0.3);
}

// ---- Search ------------------------------------------------------------------

constexpr const char* kUnlockApp = R"(
definition(name: "UnlockOnAway", namespace: "t")
preferences {
    section("S") {
        input "p1", "capability.presenceSensor"
        input "lock1", "capability.lock"
    }
}
def installed() {
    subscribe(p1, "presence.notpresent", handler)
}
def handler(evt) {
    lock1.unlock()
}
)";

model::SystemModel UnlockModel() {
  config::DeploymentBuilder b("home");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("UnlockOnAway").Devices("p1", {"p1"}).Devices("lock1", {"lock1"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kUnlockApp, "UnlockOnAway"));
  return model::SystemModel(b.Build(), std::move(apps));
}

TEST(CheckerTest, FindsInvariantViolationWithTrace) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);

  ASSERT_TRUE(result.HasViolation("P06"));
  const Violation& v = *result.Find("P06");
  EXPECT_EQ(v.kind, props::PropertyKind::kInvariant);
  EXPECT_EQ(v.depth, 1);
  EXPECT_EQ(v.apps, (std::vector<std::string>{"UnlockOnAway"}));
  ASSERT_FALSE(v.steps.empty());
  const std::vector<std::string> trace = v.TraceLines();
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.front().find("notpresent"), std::string::npos);
  EXPECT_NE(trace.back().find("assertion violated"), std::string::npos);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.states_explored, 0u);
  EXPECT_GT(result.transitions, 0u);
}

TEST(CheckerTest, DepthZeroExploresNothing) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 0;
  CheckResult result = checker.Run(options);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.transitions, 0u);
}

TEST(CheckerTest, StopAtFirstViolation) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  options.stop_at_first_violation = true;
  CheckResult result = checker.Run(options);
  EXPECT_EQ(result.violations.size(), 1u);
  EXPECT_FALSE(result.completed);
}

TEST(CheckerTest, StateBudgetStopsSearch) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 8;
  options.max_states = 3;
  CheckResult result = checker.Run(options);
  EXPECT_FALSE(result.completed);
  EXPECT_LE(result.states_explored, 3u);
}

TEST(CheckerTest, OccurrencesCountRevisits) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  CheckResult result = checker.Run(options);
  ASSERT_TRUE(result.HasViolation("P06"));
  // The unsafe state recurs along many permutations at depth 3.
  EXPECT_GT(result.Find("P06")->occurrences, 1u);
}

TEST(CheckerTest, DepthInStateControlsPruning) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions with_depth;
  with_depth.max_events = 6;
  with_depth.include_depth_in_state = true;
  CheckOptions sans_depth;
  sans_depth.max_events = 6;
  sans_depth.include_depth_in_state = false;
  CheckResult a = checker.Run(with_depth);
  CheckResult b = checker.Run(sans_depth);
  // Same verdicts, but the Spin-faithful mode distinguishes states per
  // depth and therefore expands strictly more.
  EXPECT_EQ(a.HasViolation("P06"), b.HasViolation("P06"));
  EXPECT_GT(a.states_explored, b.states_explored);
}

TEST(CheckerTest, BitstateModeFindsSameViolations) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions exhaustive;
  exhaustive.max_events = 4;
  CheckOptions bitstate;
  bitstate.max_events = 4;
  bitstate.store = StoreKind::kBitstate;
  bitstate.bitstate_bits = 1 << 20;
  CheckResult a = checker.Run(exhaustive);
  CheckResult b = checker.Run(bitstate);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.states_explored, b.states_explored);
}

TEST(CheckerTest, FormatViolationIsReadable) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = checker.Run(options);
  std::string report = FormatViolation(*result.Find("P06"));
  EXPECT_NE(report.find("violated property P06"), std::string::npos);
  EXPECT_NE(report.find("UnlockOnAway"), std::string::npos);
  EXPECT_NE(report.find("counter-example"), std::string::npos);
}

TEST(CheckerTest, MonitorViolationsCarryFailureLabels) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  options.model_failures = true;
  CheckResult result = checker.Run(options);
  // The lost unlock command with no notification violates robustness.
  ASSERT_TRUE(result.HasViolation("P45"));
  EXPECT_FALSE(result.Find("P45")->failure.empty());
}

// ---- Parallel search (--jobs) ------------------------------------------------

/// Every caller-visible field of the report must match between a serial
/// and a parallel run: the parallel search is canonicalized to be
/// indistinguishable from jobs=1 (docs/performance.md).
void ExpectSameReport(const CheckResult& serial, const CheckResult& parallel) {
  EXPECT_EQ(serial.states_explored, parallel.states_explored);
  EXPECT_EQ(serial.states_matched, parallel.states_matched);
  EXPECT_EQ(serial.transitions, parallel.transitions);
  EXPECT_EQ(serial.cascade_drains, parallel.cascade_drains);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.depth_histogram, parallel.depth_histogram);
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    const Violation& a = serial.violations[i];
    const Violation& b = parallel.violations[i];
    EXPECT_EQ(a.property_id, b.property_id);
    EXPECT_EQ(a.occurrences, b.occurrences);
    EXPECT_EQ(a.apps, b.apps);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.TraceLines(), b.TraceLines());
    EXPECT_EQ(FormatViolation(a), FormatViolation(b));
  }
}

TEST(ParallelCheckerTest, JobsFourMatchesSerial) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions serial_options;
  serial_options.max_events = 3;
  CheckOptions parallel_options = serial_options;
  parallel_options.jobs = 4;
  CheckResult serial = checker.Run(serial_options);
  CheckResult parallel = checker.Run(parallel_options);
  EXPECT_EQ(parallel.jobs, 4);
  EXPECT_GT(parallel.parallel_branches, 0u);
  ExpectSameReport(serial, parallel);
  // Per-lane state counts partition the total.
  std::uint64_t lane_total = 0;
  for (std::uint64_t n : parallel.worker_states_explored) lane_total += n;
  EXPECT_EQ(lane_total, parallel.states_explored);
}

TEST(ParallelCheckerTest, JobsFourMatchesSerialWithFailures) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions serial_options;
  serial_options.max_events = 2;
  serial_options.model_failures = true;
  CheckOptions parallel_options = serial_options;
  parallel_options.jobs = 4;
  ExpectSameReport(checker.Run(serial_options), checker.Run(parallel_options));
}

TEST(ParallelCheckerTest, OneLaneTicksNoParallelCounter) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  CheckOptions shard = options;  // a cluster branch shard on one lane
  shard.branch_modulus = 2;
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  const CheckResult result = checker.Run(options);
  checker.Run(shard);
  telemetry::SetActive(nullptr);

  EXPECT_GT(registry.search.states_explored.load(), 0u);
#define IOTSAN_EXPECT_ZERO(name, kind) \
  EXPECT_EQ(registry.parallel.name.load(), 0u) << "parallel." #name;
  IOTSAN_PARALLEL_COUNTERS(IOTSAN_EXPECT_ZERO)
#undef IOTSAN_EXPECT_ZERO
  EXPECT_EQ(result.jobs, 1);
  EXPECT_EQ(result.parallel_branches, 0u);
  EXPECT_TRUE(result.worker_states_explored.empty());
}

TEST(ParallelCheckerTest, ParallelTraceReplays) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  options.jobs = 4;
  CheckResult result = checker.Run(options);
  ASSERT_TRUE(result.HasViolation("P06"));
  // The canonical counter-example from a parallel run re-executes
  // deterministically, like any serial trace.
  ViolationArtifact artifact =
      MakeArtifact(*result.Find("P06"), options, "home", "hash");
  ReplayResult replay = checker.Replay(artifact);
  EXPECT_TRUE(replay.reproduced) << replay.message;
}

}  // namespace
}  // namespace iotsan::checker
