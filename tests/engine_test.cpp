// Cascade-engine tests: Algorithm 1's event loop — external-event
// injection, queue draining, sequential vs concurrent scheduling, timers,
// and the failure model's cyber/physical split (§8).
#include <gtest/gtest.h>

#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "model/engine.hpp"

namespace iotsan::model {
namespace {

constexpr const char* kChainApp = R"(
definition(name: "Chain", namespace: "t")
preferences {
    section("S") {
        input "p1", "capability.presenceSensor"
        input "lock1", "capability.lock"
        input "awayMode", "mode"
    }
}
def installed() {
    subscribe(p1, "presence.notpresent", left)
    subscribe(location, "mode", modeChanged)
}
def left(evt) {
    setLocationMode(awayMode)
}
def modeChanged(evt) {
    lock1.unlock()
}
)";

SystemModel ChainModel() {
  config::DeploymentBuilder b("chain home");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("Chain")
      .Devices("p1", {"p1"})
      .Devices("lock1", {"lock1"})
      .Text("awayMode", "Away");
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kChainApp, "Chain"));
  return SystemModel(b.Build(), std::move(apps));
}

ExternalEvent PresenceLeaves(const SystemModel& model) {
  ExternalEvent event;
  event.kind = ExternalEventSpec::Kind::kSensor;
  event.device = model.DeviceIndex("p1");
  event.attribute = model.devices()[event.device].AttributeIndex("presence");
  event.value = 1;  // notpresent
  return event;
}

TEST(EngineTest, SequentialCascadeDrainsChain) {
  SystemModel model = ChainModel();
  CascadeEngine engine(model);
  SystemState initial = model.MakeInitialState();

  auto outcomes = engine.Apply(initial, PresenceLeaves(model),
                               FailureScenario{}, Scheduling::kSequential);
  ASSERT_EQ(outcomes.size(), 1u);
  const SystemState& after = outcomes[0].state;
  // The full chain ran: presence away -> mode Away -> lock unlocked.
  EXPECT_EQ(after.mode, 1);
  const int lock = model.DeviceIndex("lock1");
  const int lock_attr = model.devices()[lock].AttributeIndex("lock");
  EXPECT_EQ(after.value(lock, lock_attr), 1);  // unlocked
  EXPECT_EQ(outcomes[0].log.commands.size(), 1u);
  EXPECT_FALSE(outcomes[0].log.truncated);
}

TEST(EngineTest, SensorOfflineSplitsPhysicalAndCyber) {
  SystemModel model = ChainModel();
  CascadeEngine engine(model);
  SystemState initial = model.MakeInitialState();

  FailureScenario failure;
  failure.sensor_offline = true;
  auto outcomes = engine.Apply(initial, PresenceLeaves(model), failure,
                               Scheduling::kSequential);
  ASSERT_EQ(outcomes.size(), 1u);
  const SystemState& after = outcomes[0].state;
  const int p1 = model.DeviceIndex("p1");
  const int attr = model.devices()[p1].AttributeIndex("presence");
  // Physical truth changed; the cyber reading is stale; nothing ran.
  EXPECT_EQ(after.physical(p1, attr), 1);
  EXPECT_EQ(after.value(p1, attr), 0);
  EXPECT_EQ(after.mode, 0);
  EXPECT_TRUE(outcomes[0].log.commands.empty());
}

TEST(EngineTest, ActuatorOfflineLosesCommand) {
  SystemModel model = ChainModel();
  CascadeEngine engine(model);
  SystemState initial = model.MakeInitialState();

  FailureScenario failure;
  failure.actuator_offline = true;
  auto outcomes = engine.Apply(initial, PresenceLeaves(model), failure,
                               Scheduling::kSequential);
  const SystemState& after = outcomes[0].state;
  const int lock = model.DeviceIndex("lock1");
  const int lock_attr = model.devices()[lock].AttributeIndex("lock");
  EXPECT_EQ(after.value(lock, lock_attr), 0);  // still locked
  EXPECT_EQ(outcomes[0].log.failed_deliveries, 1);
}

TEST(EngineTest, EnabledEventsSkipNoOps) {
  SystemModel model = ChainModel();
  CascadeEngine engine(model);
  SystemState state = model.MakeInitialState();
  // presence is the only observed sensor; current=present, so the single
  // enabled sensor event is notpresent.
  auto events = engine.EnabledEvents(state);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 1);
  // After it fires, only the reverse transition is enabled.
  state.physical(model.DeviceIndex("p1"), 0) = 1;
  state.value(model.DeviceIndex("p1"), 0) = 1;
  events = engine.EnabledEvents(state);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 0);
}

TEST(EngineTest, DescribeRendersEvents) {
  SystemModel model = ChainModel();
  EXPECT_EQ(PresenceLeaves(model).Describe(model),
            "p1: presence/notpresent");
}

// ---- Timers -----------------------------------------------------------------

constexpr const char* kTimerApp = R"(
definition(name: "Timed", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.inactive", quietHandler)
}
def quietHandler(evt) {
    runIn(60, turnOff)
}
def turnOff() {
    sw.off()
}
)";

TEST(EngineTest, TimerLifecycle) {
  config::DeploymentBuilder b("timer home");
  b.Device("m1", "motionSensor");
  b.Device("sw", "smartSwitch");
  b.App("Timed").Devices("m1", {"m1"}).Devices("sw", {"sw"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kTimerApp, "Timed"));
  SystemModel model(b.Build(), std::move(apps));
  CascadeEngine engine(model);
  SystemState state = model.MakeInitialState();

  // No timers pending, no recurring schedules: the tick is disabled.
  for (const ExternalEvent& e : engine.EnabledEvents(state)) {
    EXPECT_NE(e.kind, ExternalEventSpec::Kind::kTimerTick);
  }

  // motion active then inactive arms the runIn timer.
  ExternalEvent active;
  active.kind = ExternalEventSpec::Kind::kSensor;
  active.device = model.DeviceIndex("m1");
  active.attribute = 0;
  active.value = 1;
  state = engine.Apply(state, active, {}, Scheduling::kSequential)[0].state;
  ExternalEvent inactive = active;
  inactive.value = 0;
  state =
      engine.Apply(state, inactive, {}, Scheduling::kSequential)[0].state;
  ASSERT_EQ(state.timers.size(), 1u);

  // The tick is now enabled; firing it runs turnOff and clears the timer.
  bool tick_enabled = false;
  for (const ExternalEvent& e : engine.EnabledEvents(state)) {
    tick_enabled |= e.kind == ExternalEventSpec::Kind::kTimerTick;
  }
  EXPECT_TRUE(tick_enabled);
  ExternalEvent tick;
  tick.kind = ExternalEventSpec::Kind::kTimerTick;
  auto outcomes = engine.Apply(state, tick, {}, Scheduling::kSequential);
  EXPECT_TRUE(outcomes[0].state.timers.empty());
  EXPECT_EQ(outcomes[0].log.commands.size(), 1u);
}

// ---- Concurrent scheduling ---------------------------------------------------

constexpr const char* kFanoutApp = R"(
definition(name: "Fanout", namespace: "t")
preferences {
    section("S") {
        input "c1", "capability.contactSensor"
        input "sw", "capability.switch", multiple: true
    }
}
def installed() {
    subscribe(c1, "contact.open", openHandler)
}
def openHandler(evt) {
    sw.on()
}
)";

TEST(EngineTest, ConcurrentExploresInterleavings) {
  config::DeploymentBuilder b("fanout home");
  b.Device("c1", "contactSensor");
  b.Device("s1", "smartSwitch");
  b.Device("s2", "smartSwitch");
  b.Device("s3", "smartSwitch");
  b.App("Fanout").Devices("c1", {"c1"}).Devices("sw", {"s1", "s2", "s3"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kFanoutApp, "Fanout"));
  SystemModel model(b.Build(), std::move(apps));
  CascadeEngine engine(model);
  SystemState initial = model.MakeInitialState();

  ExternalEvent open;
  open.kind = ExternalEventSpec::Kind::kSensor;
  open.device = model.DeviceIndex("c1");
  open.attribute = 0;
  open.value = 1;

  auto sequential =
      engine.Apply(initial, open, {}, Scheduling::kSequential);
  EXPECT_EQ(sequential.size(), 1u);

  // Three switch-on events are pending after the handler; nobody consumes
  // them, so the orders of their (no-op) dispatches multiply: 3! = 6.
  auto concurrent =
      engine.Apply(initial, open, {}, Scheduling::kConcurrent);
  EXPECT_EQ(concurrent.size(), 6u);
  // All interleavings converge on the same final device state here.
  for (const StepOutcome& outcome : concurrent) {
    EXPECT_EQ(outcome.state.cells, sequential[0].state.cells);
  }
}

TEST(EngineTest, UserModeChangeEvents) {
  config::DeploymentBuilder b("mode home");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("Chain")
      .Devices("p1", {"p1"})
      .Devices("lock1", {"lock1"})
      .Text("awayMode", "Away");
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kChainApp, "Chain"));
  ModelOptions options;
  options.user_mode_events = true;
  SystemModel model(b.Build(), std::move(apps), options);
  CascadeEngine engine(model);
  SystemState state = model.MakeInitialState();

  int mode_events = 0;
  for (const ExternalEvent& e : engine.EnabledEvents(state)) {
    if (e.kind == ExternalEventSpec::Kind::kUserModeChange) ++mode_events;
  }
  EXPECT_EQ(mode_events, 2);  // Away, Night (not the current Home)

  ExternalEvent to_away;
  to_away.kind = ExternalEventSpec::Kind::kUserModeChange;
  to_away.value = 1;
  auto outcomes = engine.Apply(state, to_away, {}, Scheduling::kSequential);
  EXPECT_EQ(outcomes[0].state.mode, 1);
  // Chain's modeChanged handler fired and unlocked the lock.
  EXPECT_EQ(outcomes[0].log.commands.size(), 1u);
}

TEST(EngineTest, CascadeBoundStopsPingPong) {
  // Two apps toggling the same switch forever must be cut off.
  const char* ping = R"(
definition(name: "Ping", namespace: "t")
preferences { section("S") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.on", h) }
def h(evt) { sw.off() }
)";
  const char* pong = R"(
definition(name: "Pong", namespace: "t")
preferences { section("S") { input "sw", "capability.switch" } }
def installed() { subscribe(sw, "switch.off", h) }
def h(evt) { sw.on() }
)";
  const char* kick = R"(
definition(name: "Kick", namespace: "t")
preferences { section("S") {
    input "m1", "capability.motionSensor"
    input "sw", "capability.switch" } }
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)";
  config::DeploymentBuilder b("pingpong home");
  b.Device("sw", "smartSwitch");
  b.Device("m1", "motionSensor");
  b.App("Ping").Devices("sw", {"sw"});
  b.App("Pong").Devices("sw", {"sw"});
  b.App("Kick").Devices("m1", {"m1"}).Devices("sw", {"sw"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(ping, "Ping"));
  apps.push_back(ir::AnalyzeSource(pong, "Pong"));
  apps.push_back(ir::AnalyzeSource(kick, "Kick"));
  SystemModel model(b.Build(), std::move(apps));
  CascadeEngine engine(model);

  ExternalEvent active;
  active.kind = ExternalEventSpec::Kind::kSensor;
  active.device = model.DeviceIndex("m1");
  active.attribute = 0;
  active.value = 1;
  auto outcomes = engine.Apply(model.MakeInitialState(), active, {},
                               Scheduling::kSequential);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].log.truncated);
}

}  // namespace
}  // namespace iotsan::model
