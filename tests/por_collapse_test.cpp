// Partial-order reduction and COLLAPSE compression tests (paper §8 /
// Spin's COLLAPSE): the reduced search must report exactly the
// violations of the full interleaving expansion, compressed store keys
// must never change which states the search visits, and the codec's
// component interning must collide exactly when full serializations
// collide.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/collapse.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "ir/analyzer.hpp"
#include "model/system_model.hpp"
#include "telemetry/telemetry.hpp"

namespace iotsan {
namespace {

// The interleaving-explosion system of Table 7b, shrunk: two corpus apps
// race on the same switches (conflicting footprints force full
// expansion) while the motion apps commute (singleton ample sets fire).
config::Deployment ConflictSystem() {
  config::DeploymentBuilder b("por conflict system");
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.Device("frontDoor", "contactSensor", {"frontDoorContact"});
  b.Device("lightMeter", "illuminanceSensor");
  b.Device("motion1", "motionSensor");
  b.App("Brighten Dark Places")
      .Devices("contact1", {"frontDoor"})
      .Devices("luminance1", {"lightMeter"})
      .Devices("switches", {"sw1", "sw2"});
  b.App("Let There Be Dark!")
      .Devices("contact1", {"frontDoor"})
      .Devices("switches", {"sw1", "sw2"});
  b.App("Brighten My Path")
      .Devices("motion1", {"motion1"})
      .Devices("switches", {"sw2"});
  return b.Build();
}

// The headline violation pair (§3 P06): mode change unlocking the door.
config::Deployment UnlockSystem() {
  config::DeploymentBuilder b("por unlock system");
  b.Device("alicePresence", "presenceSensor", {"presence"});
  b.Device("doorLock", "smartLock", {"mainDoorLock"});
  b.Device("motion1", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.App("Auto Mode Change")
      .Devices("people", {"alicePresence"})
      .Text("homeMode", "Home")
      .Text("awayMode", "Away");
  b.App("Unlock Door").Devices("lock1", {"doorLock"});
  b.App("Brighten My Path")
      .Devices("motion1", {"motion1"})
      .Devices("switches", {"sw1"});
  return b.Build();
}

core::SanitizerReport RunConcurrent(const config::Deployment& deployment,
                                    bool por, bool compression, int jobs,
                                    int events = 3) {
  core::Sanitizer sanitizer(deployment);
  core::SanitizerOptions options;
  options.use_dependency_analysis = false;
  options.check.max_events = events;
  options.check.scheduling = model::Scheduling::kConcurrent;
  options.check.por = por;
  options.check.state_compression = compression;
  options.check.jobs = jobs;
  return sanitizer.Check(options);
}

void ExpectSameViolations(const core::SanitizerReport& a,
                          const core::SanitizerReport& b) {
  EXPECT_EQ(a.ViolatedPropertyIds(), b.ViolatedPropertyIds());
  ASSERT_EQ(a.per_set_violations.size(), b.per_set_violations.size());
  for (std::size_t i = 0; i < a.per_set_violations.size(); ++i) {
    const checker::Violation& va = a.per_set_violations[i];
    const checker::Violation& vb = b.per_set_violations[i];
    EXPECT_EQ(va.property_id, vb.property_id);
    EXPECT_EQ(va.depth, vb.depth);
    EXPECT_EQ(va.apps, vb.apps);
    EXPECT_EQ(va.steps, vb.steps);
    EXPECT_EQ(va.detail, vb.detail);
  }
}

TEST(PartialOrderReductionTest, MatchesFullSearchOnConflictSystem) {
  const config::Deployment deployment = ConflictSystem();
  core::SanitizerReport full = RunConcurrent(deployment, false, false, 1);
  core::SanitizerReport reduced = RunConcurrent(deployment, true, false, 1);
  ASSERT_TRUE(full.completed);
  ASSERT_TRUE(reduced.completed);
  EXPECT_FALSE(full.ViolatedPropertyIds().empty());
  ExpectSameViolations(full, reduced);
  // Soundness never costs coverage: the same stable states are reached.
  EXPECT_EQ(full.states_explored, reduced.states_explored);
  // The reduction only ever drops interleavings.
  EXPECT_LE(reduced.transitions, full.transitions);
}

TEST(PartialOrderReductionTest, MatchesFullSearchOnUnlockSystem) {
  const config::Deployment deployment = UnlockSystem();
  core::SanitizerReport full = RunConcurrent(deployment, false, false, 1);
  core::SanitizerReport reduced = RunConcurrent(deployment, true, false, 1);
  ASSERT_TRUE(full.completed);
  ASSERT_TRUE(reduced.completed);
  EXPECT_FALSE(full.ViolatedPropertyIds().empty());
  ExpectSameViolations(full, reduced);
  EXPECT_EQ(full.states_explored, reduced.states_explored);
}

TEST(PartialOrderReductionTest, ParallelSearchIsByteIdentical) {
  // Canonical-min violation dedup holds under POR: --jobs 4 must report
  // byte-identical violations to the serial reduced search, which in
  // turn matches the unreduced verdicts.
  const config::Deployment deployment = ConflictSystem();
  core::SanitizerReport serial = RunConcurrent(deployment, true, true, 1);
  core::SanitizerReport parallel = RunConcurrent(deployment, true, true, 4);
  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(parallel.completed);
  ExpectSameViolations(serial, parallel);
  EXPECT_EQ(serial.states_explored, parallel.states_explored);

  core::SanitizerReport full = RunConcurrent(deployment, false, false, 1);
  ExpectSameViolations(full, parallel);
}

// Two apps react to the same motion sensor but drive different,
// property-free switches: their dispatches commute, so the ample-set
// check must collapse the 2-element queue to a singleton.
constexpr const char* kLeftApp = R"(
definition(name: "LeftLight", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "swA", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", handler)
}
def handler(evt) {
    swA.on()
}
)";

constexpr const char* kRightApp = R"(
definition(name: "RightLight", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "swB", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", handler)
}
def handler(evt) {
    swB.on()
}
)";

model::SystemModel CommutingModel() {
  config::DeploymentBuilder b("commuting home");
  b.Device("m1", "motionSensor");
  b.Device("swA", "smartSwitch");  // no roles: writes stay invisible
  b.Device("swB", "smartSwitch");
  b.App("LeftLight").Devices("m1", {"m1"}).Devices("swA", {"swA"});
  b.App("RightLight").Devices("m1", {"m1"}).Devices("swB", {"swB"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kLeftApp, "LeftLight"));
  apps.push_back(ir::AnalyzeSource(kRightApp, "RightLight"));
  return model::SystemModel(b.Build(), std::move(apps));
}

// Conflicting variant: the motion event fans out to two actuations
// (swA, swB) whose *subscribers* both write swC — the pending device
// events carry overlapping write footprints, so the ample check must
// refuse the singleton and fall back to full expansion.
constexpr const char* kFanLeftApp = R"(
definition(name: "FanLeft", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "swA", "capability.switch"
        input "swB", "capability.switch"
        input "swC", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", fan)
    subscribe(swB, "switch.on", react)
}
def fan(evt) {
    swA.on()
}
def react(evt) {
    swC.on()
}
)";

constexpr const char* kFanRightApp = R"(
definition(name: "FanRight", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "swA", "capability.switch"
        input "swB", "capability.switch"
        input "swC", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", fan)
    subscribe(swA, "switch.on", react)
}
def fan(evt) {
    swB.on()
}
def react(evt) {
    swC.off()
}
)";

model::SystemModel ConflictingModel() {
  config::DeploymentBuilder b("conflicting home");
  b.Device("m1", "motionSensor");
  b.Device("swA", "smartSwitch");
  b.Device("swB", "smartSwitch");
  b.Device("swC", "smartSwitch");
  b.App("FanLeft")
      .Devices("m1", {"m1"})
      .Devices("swA", {"swA"})
      .Devices("swB", {"swB"})
      .Devices("swC", {"swC"});
  b.App("FanRight")
      .Devices("m1", {"m1"})
      .Devices("swA", {"swA"})
      .Devices("swB", {"swB"})
      .Devices("swC", {"swC"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kFanLeftApp, "FanLeft"));
  apps.push_back(ir::AnalyzeSource(kFanRightApp, "FanRight"));
  return model::SystemModel(b.Build(), std::move(apps));
}

void RunPor(const model::SystemModel& model) {
  checker::Checker checker(model);
  checker::CheckOptions options;
  options.max_events = 2;
  options.scheduling = model::Scheduling::kConcurrent;
  options.por = true;
  checker.Run(options);
}

TEST(PartialOrderReductionTest, TicksTelemetryCounters) {
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  // Commuting dispatches: one motion event queues both handlers and the
  // ample check collapses the pair to a singleton.
  RunPor(CommutingModel());
  // Conflicting dispatches (the pending actuation events feed handlers
  // that both write swC): the ample check must refuse and fall back to
  // full expansion.
  RunPor(ConflictingModel());
  telemetry::SetActive(nullptr);
  const std::vector<telemetry::Sample> samples = registry.Snapshot();
  std::uint64_t singletons = 0;
  std::uint64_t expansions = 0;
  std::uint64_t pruned = 0;
  for (const telemetry::Sample& sample : samples) {
    if (sample.name == "por.ample_singletons") singletons = sample.value;
    if (sample.name == "por.full_expansions") expansions = sample.value;
    if (sample.name == "por.interleavings_pruned") pruned = sample.value;
  }
  EXPECT_GT(singletons, 0u);
  EXPECT_GT(expansions, 0u);
  EXPECT_GE(pruned, singletons);
}

TEST(StateCompressionTest, VerdictNeutralAndSmaller) {
  // Depth 5 reaches enough states that the intern pools' fixed arena
  // cost amortizes — the regime compression exists for.
  const config::Deployment deployment = ConflictSystem();
  core::SanitizerReport plain =
      RunConcurrent(deployment, false, false, 1, /*events=*/5);
  core::SanitizerReport collapsed =
      RunConcurrent(deployment, false, true, 1, /*events=*/5);
  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(collapsed.completed);
  ExpectSameViolations(plain, collapsed);
  // The encoding collides iff the serializations collide, so the visited
  // set — and with it every counter — is identical.
  EXPECT_EQ(plain.states_explored, collapsed.states_explored);
  EXPECT_EQ(plain.states_matched, collapsed.states_matched);
  EXPECT_EQ(plain.store_entries, collapsed.store_entries);
  // Compression diagnostics are populated and the store got cheaper.
  EXPECT_GT(collapsed.compress_pool_entries, 0u);
  EXPECT_GT(collapsed.compress_lookups, 0u);
  EXPECT_GT(collapsed.compress_hits, 0u);
  EXPECT_GT(collapsed.store_bytes_per_state, 0.0);
  EXPECT_LT(collapsed.store_bytes_per_state, plain.store_bytes_per_state);
}

// ---- Codec round-trip --------------------------------------------------------

constexpr const char* kStatefulApp = R"(
definition(name: "Stateful", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw1", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", handler)
}
def handler(evt) {
    state.count = 1
    runIn(60, delayed)
}
def delayed() {
    sw1.off()
}
)";

model::SystemModel StatefulModel() {
  config::DeploymentBuilder b("codec home");
  b.Device("m1", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.App("Stateful").Devices("m1", {"m1"}).Devices("sw1", {"sw1"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kStatefulApp, "Stateful"));
  return model::SystemModel(b.Build(), std::move(apps));
}

TEST(CollapseCodecTest, EncodedKeysCollideIffSerializationsCollide) {
  model::SystemModel model = StatefulModel();
  checker::CollapseCodec codec(model);

  // A spread of states differing in exactly one component each — plus
  // deliberate duplicates — covering devices, mode, app state, timers.
  std::vector<model::SystemState> states;
  const model::SystemState base = model.MakeInitialState();
  states.push_back(base);
  states.push_back(base);  // duplicate: must collide
  for (int d = 0; d < static_cast<int>(model.devices().size()); ++d) {
    const auto attributes = static_cast<int>(
        model.devices()[static_cast<std::size_t>(d)].attributes().size());
    for (int i = 0; i < attributes; ++i) {
      model::SystemState s = base;
      s.value(d, i) = static_cast<std::int16_t>(1 - s.value(d, i));
      states.push_back(s);
      s.physical(d, i) = static_cast<std::int16_t>(s.physical(d, i) + 1);
      states.push_back(s);
    }
    model::SystemState offline = base;
    offline.set_online(d, false);
    states.push_back(offline);
  }
  {
    model::SystemState s = base;
    s.mode = 1;
    states.push_back(s);
  }
  {
    model::SystemState s = base;
    s.app_state[0]["count"] = model::Value::Number(1);
    states.push_back(s);
    s.app_state[0]["count"] = model::Value::Number(2);
    states.push_back(s);
    s.app_state[0]["flag"] = model::Value::Bool(true);
    states.push_back(s);
  }
  {
    model::SystemState s = base;
    s.timers.push_back({0, 0});
    states.push_back(s);
    states.push_back(s);  // duplicate with a pending timer
    s.timers.push_back({0, 0});
    states.push_back(s);  // timer count matters
  }

  std::vector<std::vector<std::uint8_t>> serialized;
  std::vector<std::vector<std::uint8_t>> encoded;
  std::vector<std::uint8_t> scratch;
  for (const model::SystemState& state : states) {
    serialized.push_back(state.Serialize());
    std::vector<std::uint8_t> key;
    codec.Encode(state, key, scratch);
    encoded.push_back(std::move(key));
  }

  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      EXPECT_EQ(serialized[i] == serialized[j], encoded[i] == encoded[j])
          << "codec injectivity broken between states " << i << " and " << j;
    }
  }

  // Re-encoding is stable: the pools hand back the same indices.
  std::vector<std::uint8_t> again;
  codec.Encode(states.front(), again, scratch);
  EXPECT_EQ(again, encoded.front());
  EXPECT_GT(codec.pool_entries(), 0u);
  EXPECT_GT(codec.hits(), 0u);
  EXPECT_EQ(codec.states_encoded(), states.size() + 1);
}

}  // namespace
}  // namespace iotsan
