// Model-generator tests: binding resolution, subscription resolution,
// event-space construction, and property selection (paper §8).
#include <gtest/gtest.h>

#include "config/builder.hpp"
#include "ir/analyzer.hpp"
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
  EXPECT_EQ(state.devices.size(), 3u);
  EXPECT_EQ(state.mode, 0);
  EXPECT_EQ(state.app_state.size(), 1u);
  EXPECT_TRUE(state.timers.empty());
  for (const devices::State& d : state.devices) {
    EXPECT_TRUE(d.online);
    EXPECT_EQ(d.values, d.physical);
  }
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
  s.devices[0].values[0] = 1;
  EXPECT_NE(s.Serialize(), baseline) << "cyber attribute ignored";

  s = base;
  s.devices[0].physical[0] = 1;
  EXPECT_NE(s.Serialize(), baseline) << "physical attribute ignored";

  s = base;
  s.devices[0].online = false;
  EXPECT_NE(s.Serialize(), baseline) << "online flag ignored";

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
