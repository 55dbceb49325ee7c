// Behavioural scenarios: multi-event walks through corpus apps with
// non-trivial state machines, driven through the cascade engine exactly
// as the checker drives them.
#include <gtest/gtest.h>

#include <cstdlib>

#include "config/builder.hpp"
#include "corpus/corpus.hpp"
#include "ir/analyzer.hpp"
#include "model/engine.hpp"

namespace iotsan::model {
namespace {

class Scenario {
 public:
  Scenario(config::Deployment deployment,
           const std::vector<std::string>& app_names) {
    std::vector<ir::AnalyzedApp> apps;
    for (const std::string& name : app_names) {
      apps.push_back(
          ir::AnalyzeSource(corpus::FindApp(name)->source, name));
    }
    model_ = std::make_unique<SystemModel>(std::move(deployment),
                                           std::move(apps));
    engine_ = std::make_unique<CascadeEngine>(*model_);
    state_ = model_->MakeInitialState();
  }

  /// Fires a sensor event (by device id, attribute, symbolic/numeric
  /// value) and drains the cascade; returns the cascade log.
  CascadeLog Fire(const std::string& device_id, const std::string& attr,
                  const std::string& value) {
    ExternalEvent event;
    event.kind = ExternalEventSpec::Kind::kSensor;
    event.device = model_->DeviceIndex(device_id);
    event.attribute = model_->devices()[event.device].AttributeIndex(attr);
    const devices::AttributeSpec& spec =
        *model_->devices()[event.device].attributes()[event.attribute];
    event.value = spec.kind == devices::AttributeKind::kEnum
                      ? spec.IndexOfValue(value)
                      : spec.IndexOfNumeric(std::atoi(value.c_str()));
    auto outcomes =
        engine_->Apply(state_, event, {}, Scheduling::kSequential);
    state_ = outcomes[0].state;
    return outcomes[0].log;
  }

  CascadeLog Tick() {
    ExternalEvent event;
    event.kind = ExternalEventSpec::Kind::kTimerTick;
    auto outcomes =
        engine_->Apply(state_, event, {}, Scheduling::kSequential);
    state_ = outcomes[0].state;
    return outcomes[0].log;
  }

  std::string Attr(const std::string& device_id, const std::string& attr) {
    const int d = model_->DeviceIndex(device_id);
    const int a = model_->devices()[d].AttributeIndex(attr);
    return model_->devices()[d].attributes()[a]->ValueName(
        state_.value(d, a));
  }

  const SystemState& state() const { return state_; }

 private:
  std::unique_ptr<SystemModel> model_;
  std::unique_ptr<CascadeEngine> engine_;
  SystemState state_;
};

bool SentPush(const CascadeLog& log) {
  for (const ApiCallRecord& api : log.api_calls) {
    if (api.kind == ApiCallRecord::Kind::kPush) return true;
  }
  return false;
}

TEST(ScenarioTest, LaundryMonitorStateMachine) {
  config::DeploymentBuilder b("laundry");
  b.Device("washerOutlet", "smartOutlet");
  b.App("Laundry Monitor")
      .Devices("meter", {"washerOutlet"})
      .Number("wattThreshold", 50);
  Scenario s(b.Build(), {"Laundry Monitor"});

  // Cycle starts: power rises — no notification yet.
  EXPECT_FALSE(SentPush(s.Fire("washerOutlet", "power", "1500")));
  // Cycle ends: power drops — exactly one "laundry done" push.
  EXPECT_TRUE(SentPush(s.Fire("washerOutlet", "power", "0")));
  // A second drop without a new cycle must not re-notify.
  EXPECT_FALSE(SentPush(s.Fire("washerOutlet", "power", "100")));
}

TEST(ScenarioTest, ThermostatWindowCheckRestoresMode) {
  config::DeploymentBuilder b("hvac");
  b.Device("window1", "contactSensor");
  b.Device("window2", "contactSensor");
  b.Device("thermo", "thermostatDevice");
  b.App("Thermostat Window Check")
      .Devices("windows", {"window1", "window2"})
      .Devices("thermostat", {"thermo"});
  Scenario s(b.Build(), {"Thermostat Window Check"});

  // Put the thermostat into heat via a direct command path: open/close
  // with saved state exercises the remember/restore logic from "off",
  // so first drive it to heat through the app's own restore branch.
  EXPECT_EQ(s.Attr("thermo", "thermostatMode"), "off");
  s.Fire("window1", "contact", "open");
  EXPECT_EQ(s.Attr("thermo", "thermostatMode"), "off");  // paused (was off)
  s.Fire("window1", "contact", "closed");
  // savedMode was "off", so nothing to restore.
  EXPECT_EQ(s.Attr("thermo", "thermostatMode"), "off");
}

TEST(ScenarioTest, ButtonControllerToggles) {
  config::DeploymentBuilder b("buttons");
  b.Device("btn", "buttonController");
  b.Device("sw1", "smartSwitch");
  b.Device("sw2", "smartSwitch");
  b.App("Button Controller")
      .Devices("button1", {"btn"})
      .Devices("switches", {"sw1", "sw2"});
  Scenario s(b.Build(), {"Button Controller"});

  s.Fire("btn", "button", "pushed");
  EXPECT_EQ(s.Attr("sw1", "switch"), "on");
  EXPECT_EQ(s.Attr("sw2", "switch"), "on");
  s.Fire("btn", "button", "released");
  s.Fire("btn", "button", "pushed");
  EXPECT_EQ(s.Attr("sw1", "switch"), "off");
  EXPECT_EQ(s.Attr("sw2", "switch"), "off");
  // Hold always turns off.
  s.Fire("btn", "button", "held");
  EXPECT_EQ(s.Attr("sw1", "switch"), "off");
}

TEST(ScenarioTest, LeftItOpenOnlyFiresWhenStillOpen) {
  config::DeploymentBuilder b("door");
  b.Device("frontDoor", "contactSensor");
  b.App("Left It Open")
      .Devices("contact1", {"frontDoor"})
      .Number("openMinutes", 5);
  Scenario s(b.Build(), {"Left It Open"});

  // Open, then the timer fires while still open: notification.
  s.Fire("frontDoor", "contact", "open");
  ASSERT_EQ(s.state().timers.size(), 1u);
  EXPECT_TRUE(SentPush(s.Tick()));

  // Open then closed before the timer: no notification.
  s.Fire("frontDoor", "contact", "closed");
  s.Fire("frontDoor", "contact", "open");
  s.Fire("frontDoor", "contact", "closed");
  EXPECT_FALSE(SentPush(s.Tick()));
}

TEST(ScenarioTest, SmartNightlightRespectsLux) {
  config::DeploymentBuilder b("nightlight");
  b.Device("hallMotion", "motionSensor");
  b.Device("meter", "illuminanceSensor");
  b.Device("lamp", "smartSwitch");
  b.App("Smart Nightlight")
      .Devices("motion1", {"hallMotion"})
      .Devices("luminance1", {"meter"})
      .Devices("lights", {"lamp"})
      .Number("darkPoint", 100);
  Scenario s(b.Build(), {"Smart Nightlight"});

  // Bright (initial reading 300 lux): motion does nothing.
  s.Fire("hallMotion", "motion", "active");
  EXPECT_EQ(s.Attr("lamp", "switch"), "off");
  // Dark: motion turns the lamp on.
  s.Fire("hallMotion", "motion", "inactive");
  s.Fire("meter", "illuminance", "10");
  s.Fire("hallMotion", "motion", "active");
  EXPECT_EQ(s.Attr("lamp", "switch"), "on");
  // Quiet + timer: off again.
  s.Fire("hallMotion", "motion", "inactive");
  s.Tick();
  EXPECT_EQ(s.Attr("lamp", "switch"), "off");
}

TEST(ScenarioTest, ColorAlertSetsAndClears) {
  config::DeploymentBuilder b("color");
  b.Device("leak1", "waterLeakSensor");
  b.Device("bulb", "colorBulb");
  b.App("Color Alert")
      .Devices("leak1", {"leak1"})
      .Devices("bulb", {"bulb"});
  Scenario s(b.Build(), {"Color Alert"});

  s.Fire("leak1", "water", "wet");
  EXPECT_EQ(s.Attr("bulb", "switch"), "on");
  EXPECT_EQ(s.Attr("bulb", "color"), "red");
  s.Fire("leak1", "water", "dry");
  EXPECT_EQ(s.Attr("bulb", "color"), "white");
}

TEST(ScenarioTest, GoodNightChainEntersNightMode) {
  // A cross-app chain (Fig. 8a's tail): Let There Be Dark! turns the
  // lamp on when the door closes and off when it opens; Good Night sees
  // the last light go out and flips the mode to Night.
  config::DeploymentBuilder b("night");
  b.Device("frontDoor", "contactSensor");
  b.Device("lamp", "smartSwitch");
  b.App("Let There Be Dark!")
      .Devices("contact1", {"frontDoor"})
      .Devices("switches", {"lamp"});
  b.App("Good Night")
      .Devices("switches", {"lamp"})
      .Text("sleepMode", "Night")
      .Text("startTime", "22:00");
  Scenario s(b.Build(), {"Let There Be Dark!", "Good Night"});

  // Door opens: lamp was already off — no switch event, mode unchanged.
  s.Fire("frontDoor", "contact", "open");
  EXPECT_EQ(s.state().mode, 0);

  // Door closes: lamp on.  Door opens again: lamp off -> Good Night
  // reacts to switch.off and enters Night mode, all within the cascade.
  s.Fire("frontDoor", "contact", "closed");
  EXPECT_EQ(s.Attr("lamp", "switch"), "on");
  EXPECT_EQ(s.state().mode, 0);
  s.Fire("frontDoor", "contact", "open");
  EXPECT_EQ(s.Attr("lamp", "switch"), "off");
  EXPECT_EQ(s.state().mode, 2);  // Night
}

}  // namespace
}  // namespace iotsan::model
