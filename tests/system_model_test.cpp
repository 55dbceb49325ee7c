// Model-generator tests: binding resolution, subscription resolution,
// event-space construction, and property selection (paper §8).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "model/engine.hpp"
#include "model/system_model.hpp"
#include "util/error.hpp"

namespace iotsan::model {
namespace {

constexpr const char* kApp = R"(
definition(name: "M", namespace: "t")
preferences {
    section("S") {
        input "sensors", "capability.motionSensor", multiple: true
        input "sw", "capability.switch"
        input "threshold", "number"
        input "mode1", "mode"
        input "note", "text", required: false
        input "extra", "capability.contactSensor", required: false
    }
}
def installed() {
    subscribe(sensors, "motion.active", h)
    subscribe(location, "mode", onMode)
    subscribe(app, touched)
}
def h(evt) { sw.on() }
def onMode(evt) { }
def touched(evt) { }
)";

SystemModel Build(const ModelOptions& options = {}) {
  config::DeploymentBuilder b("m home");
  b.Device("m1", "motionSensor");
  b.Device("m2", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.App("M")
      .Devices("sensors", {"m1", "m2"})
      .Devices("sw", {"sw1"})
      .Number("threshold", 42)
      .Text("mode1", "Away");
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kApp, "M"));
  return SystemModel(b.Build(), std::move(apps), options);
}

TEST(SystemModelTest, BindingsResolved) {
  SystemModel model = Build();
  const InstalledApp& app = model.apps()[0];
  EXPECT_TRUE(app.Binding("sensors")->is_list());
  EXPECT_EQ(app.Binding("sensors")->AsList().size(), 2u);
  EXPECT_TRUE(app.Binding("sw")->is_device());
  EXPECT_DOUBLE_EQ(app.Binding("threshold")->AsNumber(), 42);
  EXPECT_EQ(app.Binding("mode1")->AsString(), "Away");
  // Unbound optional inputs bind to null.
  EXPECT_TRUE(app.Binding("note")->is_null());
  EXPECT_TRUE(app.Binding("extra")->is_null());
  EXPECT_TRUE(app.touchable);
}

TEST(SystemModelTest, SubscriptionsResolvedPerDevice) {
  SystemModel model = Build();
  // motion.active on m1 and m2, one location-mode, one app-touch.
  int device_subs = 0, mode_subs = 0, touch_subs = 0;
  for (const ResolvedSubscription& sub : model.subscriptions()) {
    switch (sub.scope) {
      case ir::EventScope::kDevice: ++device_subs; break;
      case ir::EventScope::kLocationMode: ++mode_subs; break;
      case ir::EventScope::kAppTouch: ++touch_subs; break;
      default: break;
    }
  }
  EXPECT_EQ(device_subs, 2);
  EXPECT_EQ(mode_subs, 1);
  EXPECT_EQ(touch_subs, 1);
}

TEST(SystemModelTest, SubscribersMatchEvents) {
  SystemModel model = Build();
  devices::Event active;
  active.source = devices::EventSource::kDevice;
  active.device = model.DeviceIndex("m1");
  active.attribute = model.devices()[active.device].AttributeIndex("motion");
  active.value = 1;  // active
  EXPECT_EQ(model.Subscribers(active).size(), 1u);
  // The value filter must hold: motion/inactive has no subscriber.
  active.value = 0;
  EXPECT_TRUE(model.Subscribers(active).empty());
  // Events on unobserved attributes (battery) have no subscribers.
  devices::Event battery = active;
  battery.attribute = model.devices()[active.device].AttributeIndex("battery");
  EXPECT_TRUE(model.Subscribers(battery).empty());
}

TEST(SystemModelTest, ExternalEventsCoverObservedAttributesOnly) {
  SystemModel model = Build();
  int sensor_specs = 0, touch_specs = 0;
  for (const ExternalEventSpec& spec : model.external_events()) {
    if (spec.kind == ExternalEventSpec::Kind::kSensor) {
      ++sensor_specs;
      const devices::Device& device = model.devices()[spec.device];
      EXPECT_EQ(device.attributes()[spec.attribute]->name, "motion");
    }
    if (spec.kind == ExternalEventSpec::Kind::kAppTouch) ++touch_specs;
  }
  EXPECT_EQ(sensor_specs, 2);  // m1.motion, m2.motion — never battery
  EXPECT_EQ(touch_specs, 1);
}

TEST(SystemModelTest, AllSensorEventsOptionWidensTheSpace) {
  ModelOptions options;
  options.all_sensor_events = true;
  SystemModel model = Build(options);
  int sensor_specs = 0;
  for (const ExternalEventSpec& spec : model.external_events()) {
    if (spec.kind == ExternalEventSpec::Kind::kSensor) ++sensor_specs;
  }
  // motion + battery on both motion sensors = 4 sensor attributes.
  EXPECT_EQ(sensor_specs, 4);
}

TEST(SystemModelTest, PropertySelectionByRoles) {
  SystemModel model = Build();
  // The deployment has a light but no lock/presence/...; P06 (universal
  // presence) must be inactive, the light-related P35/P37 active, and
  // the monitors always active.
  bool p06 = false, p35 = false, p39 = false;
  for (const props::Property& p : model.active_properties()) {
    p06 = p06 || p.id == "P06";
    p35 = p35 || p.id == "P35";
    p39 = p39 || p.id == "P39";
  }
  EXPECT_FALSE(p06);
  EXPECT_TRUE(p35);
  EXPECT_TRUE(p39);
}

TEST(SystemModelTest, InitialState) {
  SystemModel model = Build();
  SystemState state = model.MakeInitialState();
  EXPECT_EQ(state.layout->device_count(), 3);
  EXPECT_EQ(state.mode, 0);
  EXPECT_EQ(state.app_state.size(), 1u);
  EXPECT_TRUE(state.timers.empty());
  std::size_t cells = 0;
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(state.online(d));
    const auto attributes = static_cast<int>(
        model.devices()[static_cast<std::size_t>(d)].attributes().size());
    for (int a = 0; a < attributes; ++a) {
      EXPECT_EQ(state.value(d, a), state.physical(d, a));
    }
    cells += 1 + 2 * static_cast<std::size_t>(attributes);
  }
  EXPECT_EQ(state.cells.size(), cells);
}

TEST(SystemModelTest, RejectsBadBindings) {
  // Missing required input.
  {
    config::DeploymentBuilder b("h");
    b.Device("m1", "motionSensor");
    b.App("M").Devices("sensors", {"m1"});
    std::vector<ir::AnalyzedApp> apps;
    apps.push_back(ir::AnalyzeSource(kApp, "M"));
    EXPECT_THROW(SystemModel(b.Build(), std::move(apps)), ConfigError);
  }
  // Capability mismatch.
  {
    config::DeploymentBuilder b("h");
    b.Device("m1", "motionSensor");
    b.Device("lock1", "smartLock");
    b.App("M")
        .Devices("sensors", {"m1"})
        .Devices("sw", {"lock1"})  // lock is not a switch
        .Number("threshold", 1)
        .Text("mode1", "Away");
    std::vector<ir::AnalyzedApp> apps;
    apps.push_back(ir::AnalyzeSource(kApp, "M"));
    EXPECT_THROW(SystemModel(b.Build(), std::move(apps)), ConfigError);
  }
  // Multiple devices on a single-device input.
  {
    config::DeploymentBuilder b("h");
    b.Device("m1", "motionSensor");
    b.Device("sw1", "smartSwitch");
    b.Device("sw2", "smartSwitch");
    b.App("M")
        .Devices("sensors", {"m1"})
        .Devices("sw", {"sw1", "sw2"})
        .Number("threshold", 1)
        .Text("mode1", "Away");
    std::vector<ir::AnalyzedApp> apps;
    apps.push_back(ir::AnalyzeSource(kApp, "M"));
    EXPECT_THROW(SystemModel(b.Build(), std::move(apps)), ConfigError);
  }
  // App installed without a matching source.
  {
    config::DeploymentBuilder b("h");
    b.Device("m1", "motionSensor");
    b.App("Ghost").Devices("x", {"m1"});
    std::vector<ir::AnalyzedApp> apps;
    EXPECT_THROW(SystemModel(b.Build(), std::move(apps)), ConfigError);
  }
}

// ---- State serialization -----------------------------------------------------

TEST(SystemStateTest, SerializationIsCanonical) {
  SystemModel model = Build();
  SystemState a = model.MakeInitialState();
  SystemState b = model.MakeInitialState();
  EXPECT_EQ(a.Serialize(), b.Serialize());
  EXPECT_EQ(a, b);
}

TEST(SystemStateTest, EveryComponentAffectsTheSerialization) {
  SystemModel model = Build();
  const SystemState base = model.MakeInitialState();
  const auto baseline = base.Serialize();

  SystemState s = base;
  for (int d = 0; d < static_cast<int>(model.devices().size()); ++d) {
    const auto attributes = static_cast<int>(
        model.devices()[static_cast<std::size_t>(d)].attributes().size());
    for (int a = 0; a < attributes; ++a) {
      s = base;
      s.value(d, a) = 1;
      const std::vector<std::uint8_t> cyber = s.Serialize();
      EXPECT_NE(cyber, baseline) << "cyber attribute ignored";

      s = base;
      s.physical(d, a) = 1;
      EXPECT_NE(s.Serialize(), baseline) << "physical attribute ignored";
      EXPECT_NE(s.Serialize(), cyber) << "cyber and physical share a cell";
    }
    s = base;
    s.set_online(d, false);
    EXPECT_NE(s.Serialize(), baseline) << "online flag ignored";
  }

  s = base;
  s.mode = 1;
  EXPECT_NE(s.Serialize(), baseline) << "mode ignored";

  s = base;
  s.app_state[0]["x"] = Value::Number(1);
  EXPECT_NE(s.Serialize(), baseline) << "app state ignored";

  s = base;
  s.timers.push_back({0, 0});
  EXPECT_NE(s.Serialize(), baseline) << "timers ignored";
}

TEST(SystemStateTest, AppStateSerializationIsOrderIndependent) {
  SystemModel model = Build();
  SystemState a = model.MakeInitialState();
  SystemState b = model.MakeInitialState();
  a.app_state[0]["x"] = Value::Number(1);
  a.app_state[0]["y"] = Value::String("s");
  b.app_state[0]["y"] = Value::String("s");
  b.app_state[0]["x"] = Value::Number(1);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(SystemStateTest, NonScalarAppStateRejectedAtSerialization) {
  SystemModel model = Build();
  SystemState s = model.MakeInitialState();
  s.app_state[0]["bad"] = Value::List({Value::Number(1)});
  EXPECT_THROW(s.Serialize(), Error);
}

TEST(SystemStateTest, OverlongAppStateAndTimersRejectedAtSerialization) {
  // Lengths are 16-bit: one more would wrap around, so that two different
  // states would share a store key.
  SystemModel model = Build();
  const SystemState base = model.MakeInitialState();
  const std::string longest(SystemState::kMaxLength, 'a');

  SystemState s = base;
  s.app_state[0]["big"] = Value::String(longest);
  EXPECT_NO_THROW(s.Serialize());
  s.app_state[0]["big"] = Value::String(longest + "a");
  EXPECT_THROW(s.Serialize(), Error);
  // The 2^17-byte string a handler can build by doubling "a" 17 times
  // wrapped to length 0.
  s.app_state[0]["big"] = Value::String(std::string(std::size_t{1} << 17, 'a'));
  EXPECT_THROW(s.Serialize(), Error);

  s = base;
  s.app_state[0][longest + "a"] = Value::Null();
  EXPECT_THROW(s.Serialize(), Error) << "key";

  s = base;
  for (std::size_t i = 0; i <= SystemState::kMaxLength; ++i) {
    s.app_state[0][std::to_string(i)] = Value::Null();
  }
  EXPECT_THROW(s.Serialize(), Error) << "map size";
  std::vector<std::uint8_t> bytes;
  EXPECT_THROW(s.SerializeAppStateTo(0, bytes), Error) << "COLLAPSE run";

  s = base;
  s.timers.assign(SystemState::kMaxLength, TimerEntry{});
  EXPECT_NO_THROW(s.Serialize());
  s.timers.emplace_back();
  EXPECT_THROW(s.Serialize(), Error) << "timer count";
}

// ---- Pinned store keys ------------------------------------------------------

constexpr const char* kKeysApp = R"(
definition(name: "Keys", namespace: "t")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "p1", "capability.presenceSensor"
        input "sw1", "capability.switch"
    }
}
def installed() {
    subscribe(m1, "motion.active", active)
    subscribe(p1, "presence", moved)
}
def active(evt) {
    state.count = 3
    state.label = "on"
    state.armed = true
    sw1.on()
}
def moved(evt) { runIn(60, later) }
def later() { sw1.off() }
)";

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Serialize() of `state`, then each COLLAPSE component run, one a line.
std::string KeyText(const SystemModel& model, const std::string& name,
                    const SystemState& state) {
  std::string out = "[" + name + "]\nstate: " + Hex(state.Serialize()) + "\n";
  std::vector<std::uint8_t> bytes;
  for (int d = 0; d < static_cast<int>(model.devices().size()); ++d) {
    bytes.clear();
    state.SerializeDeviceTo(d, bytes);
    out += "device " + model.devices()[static_cast<std::size_t>(d)].id() +
           ": " + Hex(bytes) + "\n";
  }
  bytes.clear();
  state.SerializeModeTo(bytes);
  out += "mode: " + Hex(bytes) + "\n";
  for (int a = 0; a < static_cast<int>(model.apps().size()); ++a) {
    bytes.clear();
    state.SerializeAppStateTo(a, bytes);
    out += "app " + std::to_string(a) + ": " + Hex(bytes) + "\n";
  }
  bytes.clear();
  state.SerializeTimersTo(bytes);
  out += "timers: " + Hex(bytes) + "\n";
  return out;
}

/// The store keys of a small model in states that exercise every part of
/// the state vector, reached through the cascade engine.
std::string StateKeysText() {
  config::DeploymentBuilder b("keys home");
  b.Device("m1", "motionSensor");
  b.Device("p1", "presenceSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.App("Keys")
      .Devices("m1", {"m1"})
      .Devices("p1", {"p1"})
      .Devices("sw1", {"sw1"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kKeysApp, "Keys"));
  const SystemModel model(b.Build(), std::move(apps));
  const CascadeEngine engine(model);
  const SystemState initial = model.MakeInitialState();
  const auto step = [&](ExternalEventSpec::Kind kind, const char* device,
                        int value, const FailureScenario& failure) {
    ExternalEvent event;
    event.kind = kind;
    if (device != nullptr) {
      event.device = model.DeviceIndex(device);
      event.attribute = 0;
    }
    event.value = value;
    return engine.Apply(initial, event, failure, Scheduling::kSequential)
        .at(0)
        .state;
  };
  FailureScenario sensor_offline;
  sensor_offline.sensor_offline = true;
  std::string out = KeyText(model, "initial", initial);
  // motion/active missed: m1's physical reading is active, its cyber
  // reading still inactive.
  out += KeyText(model, "sensor offline",
                 step(ExternalEventSpec::Kind::kSensor, "m1", 1,
                      sensor_offline));
  out += KeyText(model, "mode Night",
                 step(ExternalEventSpec::Kind::kUserModeChange, nullptr, 2,
                      {}));
  // motion/active delivered: state.count, state.label, state.armed and
  // sw1 on.
  out += KeyText(model, "app state",
                 step(ExternalEventSpec::Kind::kSensor, "m1", 1, {}));
  // presence/notpresent: runIn leaves a pending timer.
  out += KeyText(model, "pending timer",
                 step(ExternalEventSpec::Kind::kSensor, "p1", 1, {}));
  SystemState offline = initial;
  offline.set_online(model.DeviceIndex("sw1"), false);
  out += KeyText(model, "sw1 offline", offline);
  return out;
}

TEST(SystemStateTest, KeyBytesMatchTheGolden) {
  // The bytes every store hashes (tests/data/state_keys.txt): bitstate
  // bit positions, COLLAPSE pools and exhaustive dedup all depend on
  // them, so a layout change must leave them alone.
  std::ifstream in(IOTSAN_TEST_DATA_DIR "/state_keys.txt");
  ASSERT_TRUE(in) << "missing tests/data/state_keys.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(StateKeysText(), golden.str());
}

TEST(SystemStateTest, ComponentRunsConcatenateToTheKey) {
  SystemModel model = Build();
  SystemState s = model.MakeInitialState();
  s.physical(0, 0) = 1;
  s.set_online(2, false);
  s.mode = 1;
  s.app_state[0]["x"] = Value::String("y");
  s.timers.push_back({0, 0});
  std::vector<std::uint8_t> runs;
  for (int d = 0; d < static_cast<int>(model.devices().size()); ++d) {
    s.SerializeDeviceTo(d, runs);
  }
  s.SerializeModeTo(runs);
  s.SerializeAppStateTo(0, runs);
  s.SerializeTimersTo(runs);
  EXPECT_EQ(runs, s.Serialize());
}

// ---- Value semantics ----------------------------------------------------------

TEST(ValueTest, TruthinessTable) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_FALSE(Value::Number(0).Truthy());
  EXPECT_TRUE(Value::Number(-1).Truthy());
  EXPECT_FALSE(Value::String("").Truthy());
  EXPECT_TRUE(Value::String("x").Truthy());
  EXPECT_FALSE(Value::List({}).Truthy());
  EXPECT_TRUE(Value::List({Value::Number(1)}).Truthy());
  EXPECT_FALSE(Value::Map({}).Truthy());
}

TEST(ValueTest, EqualsSemantics) {
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Number(0)));
  EXPECT_TRUE(Value::Number(2).Equals(Value::Number(2.0)));
  EXPECT_FALSE(Value::Number(2).Equals(Value::String("2")));
  EXPECT_TRUE(Value::List({Value::Number(1), Value::String("a")})
                  .Equals(Value::List({Value::Number(1), Value::String("a")})));
  EXPECT_FALSE(Value::List({Value::Number(1)})
                   .Equals(Value::List({Value::Number(2)})));
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value::Number(75).ToDisplayString(), "75");
  EXPECT_EQ(Value::Number(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value::String("on").ToDisplayString(), "on");
  EXPECT_EQ(Value::List({Value::Number(1), Value::Number(2)})
                .ToDisplayString(),
            "[1, 2]");
  EXPECT_EQ(Value::Null().ToDisplayString(), "null");
}

}  // namespace
}  // namespace iotsan::model
