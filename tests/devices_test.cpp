// Capability/device-type registry and device-state tests (paper §8's
// device model: 30 device types, finite attribute domains, event queues).
#include <gtest/gtest.h>

#include "config/builder.hpp"
#include "devices/capability.hpp"
#include "devices/device.hpp"
#include "devices/device_type.hpp"
#include "devices/event.hpp"
#include "model/system_model.hpp"

namespace iotsan::devices {
namespace {

/// A model of one device of `type` and no apps: its initial state is
/// the device's.
model::SystemModel OneDeviceModel(const std::string& type) {
  config::DeploymentBuilder b("probe home");
  b.Device("probe", type);
  return model::SystemModel(b.Build(), {});
}

TEST(CapabilityRegistryTest, CoreCapabilitiesExist) {
  const auto& registry = CapabilityRegistry::Instance();
  for (const char* name :
       {"switch", "lock", "doorControl", "alarm", "valve", "thermostat",
        "motionSensor", "contactSensor", "presenceSensor",
        "temperatureMeasurement", "smokeDetector", "carbonMonoxideDetector",
        "waterSensor", "battery", "illuminanceMeasurement",
        "relativeHumidityMeasurement", "soilMoistureMeasurement",
        "voiceCall", "outlet"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("warpDrive"), nullptr);
}

TEST(CapabilityRegistryTest, SwitchShape) {
  const CapabilitySpec& sw = *CapabilityRegistry::Instance().Find("switch");
  const AttributeSpec* attr = sw.FindAttribute("switch");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->values, (std::vector<std::string>{"off", "on"}));
  const CommandSpec* on = sw.FindCommand("on");
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->attribute, "switch");
  EXPECT_EQ(on->value, "on");
  EXPECT_EQ(on->conflicts_with, (std::vector<std::string>{"off"}));
  EXPECT_FALSE(sw.sensor);
}

TEST(CapabilityRegistryTest, SensorFlags) {
  const auto& registry = CapabilityRegistry::Instance();
  EXPECT_TRUE(registry.Find("motionSensor")->sensor);
  EXPECT_TRUE(registry.Find("temperatureMeasurement")->sensor);
  // Alarms self-trigger (combo units), so they are sensors too.
  EXPECT_TRUE(registry.Find("alarm")->sensor);
  EXPECT_FALSE(registry.Find("lock")->sensor);
  EXPECT_FALSE(registry.Find("switch")->sensor);
}

TEST(CapabilityRegistryTest, AlarmConflicts) {
  const CapabilitySpec& alarm = *CapabilityRegistry::Instance().Find("alarm");
  const CommandSpec* off = alarm.FindCommand("off");
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->conflicts_with,
            (std::vector<std::string>{"siren", "strobe", "both"}));
}

TEST(AttributeSpecTest, EnumIndexing) {
  const AttributeSpec& lock =
      *CapabilityRegistry::Instance().Find("lock")->FindAttribute("lock");
  EXPECT_EQ(lock.IndexOfValue("locked"), 0);
  EXPECT_EQ(lock.IndexOfValue("unlocked"), 1);
  EXPECT_EQ(lock.IndexOfValue("ajar"), -1);
  EXPECT_EQ(lock.ValueName(1), "unlocked");
  EXPECT_EQ(lock.ValueName(99), "?");
  EXPECT_EQ(lock.domain_size(), 2);
}

TEST(AttributeSpecTest, NumericIndexing) {
  const AttributeSpec& temp = *CapabilityRegistry::Instance()
                                   .Find("temperatureMeasurement")
                                   ->FindAttribute("temperature");
  // Nearest representative value wins.
  EXPECT_EQ(temp.NumericAt(temp.IndexOfNumeric(61)), 60);
  EXPECT_EQ(temp.NumericAt(temp.IndexOfNumeric(72)), 70);
  EXPECT_EQ(temp.NumericAt(temp.IndexOfNumeric(100)), 90);
  EXPECT_EQ(temp.ValueName(temp.IndexOfNumeric(80)), "80");
  // First domain value is the neutral initial reading.
  EXPECT_EQ(temp.NumericAt(0), 70);
}

TEST(DeviceTypeRegistryTest, ThirtyPlusTypes) {
  // Paper §8: "Currently, we support 30 different IoT devices."
  EXPECT_GE(DeviceTypeRegistry::Instance().All().size(), 30u);
}

TEST(DeviceTypeRegistryTest, TypeCapabilityBundles) {
  const auto& registry = DeviceTypeRegistry::Instance();
  const DeviceTypeSpec* multi = registry.Find("multiSensor");
  ASSERT_NE(multi, nullptr);
  EXPECT_TRUE(multi->HasCapability("contactSensor"));
  EXPECT_TRUE(multi->HasCapability("temperatureMeasurement"));
  EXPECT_TRUE(multi->HasCapability("accelerationSensor"));
  EXPECT_TRUE(multi->IsSensor());
  EXPECT_FALSE(multi->IsActuator());

  const DeviceTypeSpec* outlet = registry.Find("smartOutlet");
  ASSERT_NE(outlet, nullptr);
  EXPECT_TRUE(outlet->IsActuator());
  EXPECT_TRUE(outlet->HasCapability("outlet"));
  EXPECT_TRUE(outlet->HasCapability("actuator"));  // marker matches
}

TEST(DeviceTypeRegistryTest, CommandLookupAcrossCapabilities) {
  const DeviceTypeSpec* sprinkler =
      DeviceTypeRegistry::Instance().Find("sprinklerController");
  ASSERT_NE(sprinkler, nullptr);
  EXPECT_NE(sprinkler->FindCommand("on"), nullptr);     // switch
  EXPECT_NE(sprinkler->FindCommand("open"), nullptr);   // valve
  EXPECT_EQ(sprinkler->FindCommand("unlock"), nullptr);
}

TEST(DeviceTest, AttributeIndexing) {
  const DeviceTypeSpec& type =
      *DeviceTypeRegistry::Instance().Find("multiSensor");
  Device device("sensor1", type, {"frontDoorContact"});
  EXPECT_EQ(device.id(), "sensor1");
  EXPECT_GE(device.attributes().size(), 5u);
  EXPECT_GE(device.AttributeIndex("contact"), 0);
  EXPECT_GE(device.AttributeIndex("temperature"), 0);
  EXPECT_GE(device.AttributeIndex("battery"), 0);
  EXPECT_EQ(device.AttributeIndex("lock"), -1);
  EXPECT_TRUE(device.HasRole("frontDoorContact"));
  EXPECT_FALSE(device.HasRole("presence"));
}

TEST(DeviceTest, InitialState) {
  const model::SystemModel model = OneDeviceModel("smartLock");
  const Device& device = model.devices()[0];
  const model::SystemState state = model.MakeInitialState();
  // The online flag, then a cyber value and a physical reading per
  // attribute.
  EXPECT_EQ(state.cells.size(), 1 + 2 * device.attributes().size());
  EXPECT_EQ(state.layout->attribute_cells(0), 2 * device.attributes().size());
  EXPECT_TRUE(state.online(0));
  // Locks start locked (first enum value).
  const int lock_attr = device.AttributeIndex("lock");
  EXPECT_EQ(device.attributes()[lock_attr]->ValueName(
                state.value(0, lock_attr)),
            "locked");
  EXPECT_EQ(state.physical(0, lock_attr), state.value(0, lock_attr));
}

TEST(EventTest, DescribeDeviceEvent) {
  const DeviceTypeSpec& type =
      *DeviceTypeRegistry::Instance().Find("presenceSensor");
  Device device("alice", type);
  Event event;
  event.source = EventSource::kDevice;
  event.device = 0;
  event.attribute = device.AttributeIndex("presence");
  event.value = 1;
  EXPECT_EQ(DescribeDeviceEvent(device, event), "presence/notpresent");
}

/// Every device type must be constructible with a valid initial state and
/// have internally consistent attribute indexing.
class AllDeviceTypesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllDeviceTypesTest, ConsistentSpec) {
  const DeviceTypeSpec* type =
      DeviceTypeRegistry::Instance().Find(GetParam());
  ASSERT_NE(type, nullptr);
  EXPECT_FALSE(type->display_name.empty());
  EXPECT_FALSE(type->capabilities.empty());
  const model::SystemModel model = OneDeviceModel(GetParam());
  const Device& device = model.devices()[0];
  const model::SystemState state = model.MakeInitialState();
  EXPECT_EQ(state.layout->attribute_cells(0), 2 * device.attributes().size());
  for (std::size_t i = 0; i < device.attributes().size(); ++i) {
    const AttributeSpec& attr = *device.attributes()[i];
    EXPECT_FALSE(attr.name.empty());
    EXPECT_GT(attr.domain_size(), 0) << attr.name;
    // Initial value is inside the domain and the name round-trips.
    EXPECT_NE(attr.ValueName(state.value(0, static_cast<int>(i))), "?");
    // Attribute lookup by name must hit the same spec.
    EXPECT_GE(device.AttributeIndex(attr.name), 0);
  }
  // Every command must reference an attribute the type actually has and a
  // value inside that attribute's domain.
  for (const std::string& cap_name : type->capabilities) {
    const CapabilitySpec* cap =
        CapabilityRegistry::Instance().Find(cap_name);
    ASSERT_NE(cap, nullptr) << cap_name;
    for (const CommandSpec& cmd : cap->commands) {
      const AttributeSpec* attr = type->FindAttribute(cmd.attribute);
      ASSERT_NE(attr, nullptr) << cmd.name;
      if (!cmd.takes_argument) {
        EXPECT_GE(attr->IndexOfValue(cmd.value), 0)
            << cmd.name << " -> " << cmd.value;
      }
      // Conflicting commands must exist on the same capability.
      for (const std::string& other : cmd.conflicts_with) {
        EXPECT_NE(cap->FindCommand(other), nullptr)
            << cmd.name << " conflicts with unknown " << other;
      }
    }
  }
}

std::vector<std::string> AllTypeNames() {
  std::vector<std::string> names;
  for (const DeviceTypeSpec& type : DeviceTypeRegistry::Instance().All()) {
    names.push_back(type.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllDeviceTypesTest,
                         ::testing::ValuesIn(AllTypeNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace iotsan::devices
