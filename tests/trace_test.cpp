// Violation-forensics tests: structured TraceStep records, artifact
// (de)serialization round-trips, deterministic replay, the
// reverify-bitstate false-positive filter, and counter-example building.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "checker/checker.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "corpus/groups.hpp"
#include "ir/analyzer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace iotsan::checker {
namespace {

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

/// A search of `checker` with every counter-example rendered, as a
/// report prints them.
CheckResult RunRendered(const Checker& checker, const CheckOptions& options) {
  CheckResult result = checker.Run(options);
  for (Violation& v : result.violations) checker.Render(v, options);
  return result;
}

json::Value StepsJson(const std::vector<TraceStep>& steps) {
  json::Array out;
  for (const TraceStep& step : steps) out.push_back(ToJson(step));
  return json::Value(std::move(out));
}

// ---- Structured trace content ------------------------------------------------

TEST(TraceTest, StepRecordsEventCascadeAndDeltas) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);

  ASSERT_TRUE(result.HasViolation("P06"));
  const Violation& v = *result.Find("P06");
  ASSERT_EQ(v.steps.size(), 1u);
  const TraceStep& step = v.steps.front();
  EXPECT_EQ(step.index, 1);
  EXPECT_EQ(step.sim_time_ms, 1000);
  EXPECT_EQ(step.kind, "sensor");
  EXPECT_EQ(step.device, "p1");
  EXPECT_EQ(step.attribute, "presence");
  EXPECT_EQ(step.value, "notpresent");
  // The cascade dispatched the app's handler and issued the unlock.
  ASSERT_FALSE(step.dispatches.empty());
  EXPECT_EQ(step.dispatches.front().app, "UnlockOnAway");
  EXPECT_EQ(step.dispatches.front().handler, "handler");
  ASSERT_FALSE(step.commands.empty());
  EXPECT_EQ(step.commands.front().device, "lock1");
  EXPECT_EQ(step.commands.front().command, "unlock");
  EXPECT_TRUE(step.commands.front().delivered);
  // Attribute deltas: the sensor flip and the lock state change.
  ASSERT_GE(step.deltas.size(), 2u);
  bool lock_changed = false;
  for (const TraceDelta& delta : step.deltas) {
    if (delta.device == "lock1" && delta.attribute == "lock") {
      lock_changed = true;
      EXPECT_EQ(delta.to, "unlocked");
    }
  }
  EXPECT_TRUE(lock_changed);
  EXPECT_GE(step.queue_peak, 1);
  EXPECT_FALSE(step.notes.empty());
  // model_apps names the checked model's app instances (for replay).
  EXPECT_EQ(v.model_apps, (std::vector<std::string>{"UnlockOnAway"}));
  EXPECT_NE(v.detail.find("assertion violated"), std::string::npos);
}

TEST(TraceTest, FlattenedTraceKeepsFig7Layout) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);
  const Violation& v = *result.Find("P06");

  const std::vector<std::string> lines = v.TraceLines();
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().rfind("== event 1:", 0), 0u) << lines.front();
  EXPECT_EQ(lines.back(), v.detail);
}

// ---- Determinism across stores -----------------------------------------------

TEST(TraceDeterminismTest, ExhaustiveAndBitstateProduceIdenticalTraces) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions exhaustive;
  exhaustive.max_events = 2;
  CheckOptions bitstate = exhaustive;
  bitstate.store = StoreKind::kBitstate;

  CheckResult a = RunRendered(checker, exhaustive);
  CheckResult b = RunRendered(checker, bitstate);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].property_id, b.violations[i].property_id);
    EXPECT_EQ(a.violations[i].steps, b.violations[i].steps);
    // Byte-identical once serialized, too.
    EXPECT_EQ(StepsJson(a.violations[i].steps).Dump(),
              StepsJson(b.violations[i].steps).Dump());
  }
}

TEST(TraceDeterminismTest, RepeatedRunsSerializeIdentically) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 2;
  CheckResult a = RunRendered(checker, options);
  CheckResult b = RunRendered(checker, options);
  ASSERT_FALSE(a.violations.empty());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(StepsJson(a.violations[i].steps).Dump(),
              StepsJson(b.violations[i].steps).Dump());
  }
}

// ---- Artifact round-trip and replay ------------------------------------------

TEST(ArtifactTest, SerializeParseRoundTripIsByteStable) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact =
      MakeArtifact(v, options, "home", "0123456789abcdef");
  EXPECT_EQ(artifact.property_id, "P06");
  EXPECT_EQ(artifact.manifest.deployment, "home");
  EXPECT_EQ(artifact.manifest.store, "exhaustive");
  EXPECT_EQ(artifact.manifest.scheduling, "sequential");
  EXPECT_FALSE(artifact.manifest.version.empty());
  EXPECT_FALSE(artifact.manifest.compiler.empty());
  EXPECT_EQ(artifact.manifest.model_apps, v.model_apps);

  const std::string once = ToJson(artifact).Dump(2);
  ViolationArtifact parsed = ArtifactFromJson(json::Parse(once));
  const std::string twice = ToJson(parsed).Dump(2);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(parsed.depth, artifact.depth);
  EXPECT_EQ(parsed.steps, artifact.steps);
  // Without correlation the manifest omits the key entirely (the CLI
  // path), keeping pre-correlation artifacts byte-identical.
  EXPECT_TRUE(parsed.manifest.request_id.empty());
  EXPECT_EQ(once.find("request_id"), std::string::npos);
}

TEST(ArtifactTest, ManifestRequestIdRoundTrips) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  options.request_id = "req-abc.1";
  CheckResult result = RunRendered(checker, options);
  const Violation& v = *result.Find("P06");

  const ViolationArtifact artifact =
      MakeArtifact(v, options, "home", "0123456789abcdef");
  EXPECT_EQ(artifact.manifest.request_id, "req-abc.1");
  const ViolationArtifact parsed =
      ArtifactFromJson(json::Parse(ToJson(artifact).Dump(2)));
  EXPECT_EQ(parsed.manifest.request_id, "req-abc.1");
}

TEST(ArtifactTest, ReplayReproducesParsedArtifact) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact = MakeArtifact(v, options, "home", "hash");
  // Full pipeline: serialize, parse, replay against a fresh model.
  ViolationArtifact parsed =
      ArtifactFromJson(json::Parse(ToJson(artifact).Dump()));
  ReplayResult replay = checker.Replay(parsed);
  EXPECT_TRUE(replay.reproduced) << replay.message;
  EXPECT_EQ(replay.property_id, "P06");
  EXPECT_EQ(replay.fired_step, v.depth);
  EXPECT_EQ(replay.expected_step, v.depth);
}

TEST(ArtifactTest, ReplayRefutesTamperedArtifact) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);
  const Violation& v = *result.Find("P06");

  ViolationArtifact artifact = MakeArtifact(v, options, "home", "hash");
  // A trace that never fires the property: flip the sensor value to the
  // one that keeps everyone home.
  artifact.steps.front().value = "present";
  artifact.steps.front().description = "p1: presence/present";
  ReplayResult replay = checker.Replay(artifact);
  EXPECT_FALSE(replay.reproduced);
  EXPECT_EQ(replay.fired_step, -1);
}

TEST(ArtifactTest, ReplayRejectsUnknownCoordinates) {
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);

  ViolationArtifact artifact =
      MakeArtifact(*result.Find("P06"), options, "home", "hash");
  artifact.steps.front().device = "nosuchdevice";
  EXPECT_THROW(checker.Replay(artifact), Error);
}

TEST(ArtifactTest, MalformedStepNumbersAreRejected) {
  // Artifacts are outside input: a step index or depth no int can hold
  // is an Error, not an undefined cast.
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  CheckResult result = RunRendered(checker, options);
  const json::Value good =
      ToJson(MakeArtifact(*result.Find("P06"), options, "home", "hash"));
  for (const double bad : {1e300, -1e300, 0.5}) {
    json::Value doc = good;
    doc.MutableObject()["trace"].MutableArray()[0].MutableObject()["index"] =
        bad;
    EXPECT_THROW(ArtifactFromJson(doc), Error) << bad;
  }
  json::Value doc = good;
  doc.MutableObject()["violation"].MutableObject()["occurrences"] = -1;
  EXPECT_THROW(ArtifactFromJson(doc), Error);
}

// ---- Reverify-bitstate -------------------------------------------------------

TEST(ReverifyBitstateTest, ViolationsSurviveAndAreMarkedVerified) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 2;
  options.store = StoreKind::kBitstate;
  options.reverify_bitstate = true;
  CheckResult result = checker.Run(options);
  telemetry::SetActive(nullptr);

  // Bitstate omission can only hide states, never fabricate a trace: the
  // violations found must all survive the deterministic re-execution.
  ASSERT_TRUE(result.HasViolation("P06"));
  for (const Violation& v : result.violations) {
    EXPECT_TRUE(v.replay_verified) << v.property_id;
  }
  EXPECT_GE(registry.search.replays_run, result.violations.size());
  EXPECT_EQ(registry.search.replays_reproduced, registry.search.replays_run);
  EXPECT_EQ(registry.search.replays_refuted, 0u);
}

TEST(ReverifyBitstateTest, ExhaustiveRunsAreNotReverified) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 1;
  options.reverify_bitstate = true;  // no-op without a bitstate store
  CheckResult result = checker.Run(options);
  telemetry::SetActive(nullptr);

  ASSERT_TRUE(result.HasViolation("P06"));
  EXPECT_FALSE(result.Find("P06")->replay_verified);
  EXPECT_EQ(registry.search.replays_run, 0u);
}

// ---- Saturation warning counter ----------------------------------------------

TEST(SaturationTest, SaturatedBitstateTicksCounterOncePerCheck) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  ResetSaturationWarning();
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  options.store = StoreKind::kBitstate;
  options.bitstate_bits = 16;  // tiny on purpose: saturates immediately
  CheckResult first = checker.Run(options);
  CheckResult second = checker.Run(options);
  telemetry::SetActive(nullptr);
  ResetSaturationWarning();

  ASSERT_GT(first.store_fill_ratio, 0.5);
  ASSERT_GT(second.store_fill_ratio, 0.5);
  // The counter ticks per saturated check even though the stderr warning
  // is latched after the first.
  EXPECT_EQ(registry.store.saturation_warnings, 2u);
}

// ---- Counter-example building ------------------------------------------------
//
// The search keeps each violation's canonical path as compact (event,
// failure, interleaving) steps; Checker::Render draws out the ones a
// report prints.  These pin the rendered violations — steps, notes,
// deltas, apps, occurrences — under every option that shapes which path
// is kept.  The golden (tests/data/trace_build.json) holds, per
// scenario, a Sanitizer::Check's merged violations; for concurrent
// scheduling also the per-related-set violations whose path follows a
// later interleaving (outcome_index > 0), each rendered in its set's
// model through the same call.

json::Value ScenarioViolations(std::size_t group, const CheckOptions& check,
                               bool later_interleavings) {
  const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[group];
  core::Sanitizer sanitizer(sut.deployment);
  for (const auto& [name, source] : sut.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  core::SanitizerOptions options;
  options.check = check;
  const core::SanitizerReport report = sanitizer.Check(options);
  json::Object out;
  out["states_explored"] = static_cast<std::int64_t>(report.states_explored);
  out["completed"] = report.completed;
  json::Array violations;
  for (const Violation& v : report.violations) {
    violations.push_back(ViolationToJson(v));
  }
  out["violations"] = std::move(violations);
  if (later_interleavings) {
    // The per-set violations in plan order, each set's own search.
    core::SanitizerReport plan;
    core::AppAnalyses analyses;
    const std::vector<std::vector<std::size_t>> groups =
        sanitizer.PlanGroups(options, plan, &analyses);
    std::vector<CheckResult> results =
        sanitizer.CheckGroups(groups, options, analyses);
    json::Array per_set;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (Violation& v : results[g].violations) {
        bool later = false;
        for (const TraceStep& step : v.steps) {
          later = later || step.outcome_index > 0;
        }
        if (!later) continue;
        const model::SystemModel model =
            sanitizer.GroupModel(groups[g], options, analyses);
        Checker(model).Render(v, check);
        per_set.push_back(ViolationToJson(v));
      }
    }
    out["per_set_violations"] = std::move(per_set);
  }
  return json::Value(std::move(out));
}

void ExpectSameViolations(const json::Value& golden, const json::Value& got,
                          const std::string& scenario) {
  EXPECT_EQ(golden.GetNumber("states_explored"),
            got.GetNumber("states_explored"))
      << scenario;
  EXPECT_EQ(golden.GetBool("completed"), got.GetBool("completed"))
      << scenario;
  for (const char* list : {"violations", "per_set_violations"}) {
    ASSERT_EQ(golden.Has(list), got.Has(list)) << scenario;
    if (!golden.Has(list)) continue;
    const json::Array& want = golden.At(list).AsArray();
    const json::Array& have = got.At(list).AsArray();
    ASSERT_EQ(want.size(), have.size()) << scenario << " " << list;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].Dump(), have[i].Dump())
          << scenario << " " << list << "[" << i << "] "
          << want[i].GetString("property_id");
    }
  }
}

TEST(TraceBuildTest, ViolationsMatchGoldenUnderEveryPathShapingOption) {
  std::ifstream in(std::string(IOTSAN_TEST_DATA_DIR) + "/trace_build.json");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value golden = json::Parse(text.str());

  // Water & garden (group 4) is small enough for every option; the
  // climate group's concurrent search follows later interleavings.
  constexpr std::size_t kWater = 3;
  constexpr std::size_t kClimate = 1;
  CheckOptions first;
  first.stop_at_first_violation = true;
  CheckOptions failures;
  failures.model_failures = true;
  CheckOptions bitstate;
  bitstate.store = StoreKind::kBitstate;
  bitstate.bitstate_bits = std::size_t{1} << 20;
  bitstate.reverify_bitstate = true;
  CheckOptions budget;
  budget.max_states = 300;
  CheckOptions concurrent;
  concurrent.scheduling = model::Scheduling::kConcurrent;
  concurrent.por = true;
  concurrent.max_events = 2;

  ExpectSameViolations(golden.At("first"),
                       ScenarioViolations(kWater, first, false), "first");
  ExpectSameViolations(golden.At("failures"),
                       ScenarioViolations(kWater, failures, false),
                       "failures");
  ExpectSameViolations(golden.At("bitstate_reverify"),
                       ScenarioViolations(kWater, bitstate, false),
                       "bitstate_reverify");
  ExpectSameViolations(golden.At("max_states"),
                       ScenarioViolations(kWater, budget, false),
                       "max_states");
  ExpectSameViolations(golden.At("concurrent_por"),
                       ScenarioViolations(kClimate, concurrent, true),
                       "concurrent_por");
}

TEST(TraceBuildTest, BuildingStepsTicksNoSearchCounter) {
  // Every sequential transition injects exactly one external event, so
  // events_injected == transitions holds for the search alone; rendering
  // a counter-example re-applies its path and must not add to either.
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  model::SystemModel model = UnlockModel();
  Checker checker(model);
  CheckOptions options;
  options.max_events = 3;
  CheckResult result = RunRendered(checker, options);
  telemetry::SetActive(nullptr);

  ASSERT_TRUE(result.HasViolation("P06"));
  EXPECT_FALSE(result.Find("P06")->steps.front().notes.empty());
  EXPECT_EQ(registry.search.events_injected.load(), result.transitions);
  EXPECT_EQ(registry.search.transitions.load(), result.transitions);
}

}  // namespace
}  // namespace iotsan::checker
