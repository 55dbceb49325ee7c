// Dynamic-device-discovery extension tests (the paper's §10.1/§11
// future work): with the extension enabled, the four ContexIoT apps the
// paper rejects become checkable and attributable.
#include <gtest/gtest.h>

#include "attrib/output_analyzer.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"

namespace iotsan {
namespace {

config::Deployment DiscoveryHome() {
  config::DeploymentBuilder b("discovery home");
  b.ContactPhone("555-0100");
  b.Device("smokeDet", "smokeDetector", {"smokeSensor", "coSensor"});
  b.Device("siren1", "smartAlarm", {"alarmSiren"});
  b.Device("cam1", "camera", {"camera"});
  b.Device("hallMotion", "motionSensor", {"securityMotion"});
  return b.Build();
}

TEST(DiscoveryExtensionTest, RejectedByDefault) {
  config::Deployment home = DiscoveryHome();
  home.apps.push_back({"Alarm Manager", "Alarm Manager", {}});
  core::Sanitizer sanitizer(home);
  core::SanitizerReport report = sanitizer.Check();
  ASSERT_EQ(report.rejected_apps.size(), 1u);
  EXPECT_NE(report.rejected_apps[0].find("dynamic device discovery"),
            std::string::npos);
}

TEST(DiscoveryExtensionTest, CheckableWhenEnabled) {
  // Alarm Manager "centrally manages" (silences) every alarm on app
  // touch; with a smoke event in flight that violates P17.
  config::Deployment home = DiscoveryHome();
  home.apps.push_back({"Alarm Manager", "Alarm Manager", {}});
  core::Sanitizer sanitizer(home);
  core::SanitizerOptions options;
  options.model.dynamic_discovery = true;
  options.check.max_events = 2;
  core::SanitizerReport report = sanitizer.Check(options);
  EXPECT_TRUE(report.rejected_apps.empty());
  EXPECT_TRUE(report.HasViolation("P17"))
      << "silencing every alarm while smoke is detected must violate P17";
  // The discovery app is charged: it actuated the alarm-role device.
  bool charged = false;
  for (const checker::Violation& v : report.violations) {
    if (v.property_id != "P17") continue;
    for (const std::string& app : v.apps) {
      charged = charged || app == "Alarm Manager";
    }
  }
  EXPECT_TRUE(charged);
}

TEST(DiscoveryExtensionTest, MidnightCameraRunsItsSchedule) {
  config::Deployment home = DiscoveryHome();
  home.apps.push_back({"Midnight Camera", "Midnight Camera", {}});
  core::Sanitizer sanitizer(home);
  core::SanitizerOptions options;
  options.model.dynamic_discovery = true;
  options.check.max_events = 1;
  core::SanitizerReport report = sanitizer.Check(options);
  EXPECT_TRUE(report.rejected_apps.empty());
  EXPECT_GT(report.states_explored, 0u);
}

TEST(DiscoveryExtensionTest, AttributionFlagsAlarmManager) {
  attrib::AttributionOptions options;
  options.allow_dynamic_discovery = true;
  options.enumeration.max_configs = 8;
  options.check.max_events = 2;
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Alarm Manager", DiscoveryHome(), options);
  EXPECT_EQ(result.verdict, attrib::Verdict::kMalicious)
      << "phase1=" << result.phase1_ratio;
}

TEST(DiscoveryExtensionTest, AttributionStillRefusesWithoutTheFlag) {
  attrib::AttributionOptions options;
  options.enumeration.max_configs = 8;
  attrib::AttributionResult result = attrib::AttributeCorpusApp(
      "Alarm Manager", DiscoveryHome(), options);
  // Without the extension the app is rejected inside every configuration
  // check, so nothing can be charged to it.
  EXPECT_EQ(result.verdict, attrib::Verdict::kClean);
}

TEST(DiscoveryExtensionTest, WildcardOutputsWidenRelatedSets) {
  // With the extension, a discovery app's handlers can actuate anything,
  // so any handler with device-scope inputs must land in its related set.
  config::Deployment home = DiscoveryHome();
  home.apps.push_back({"Alarm Manager", "Alarm Manager", {}});
  config::AppConfig security;
  security.app = "Smart Security";
  security.label = "Smart Security";
  config::Binding motions;
  motions.device_ids = {"hallMotion"};
  security.inputs["motions"] = motions;
  config::Binding alarms;
  alarms.device_ids = {"siren1"};
  security.inputs["alarms"] = alarms;
  config::Binding armed;
  armed.text = "Away";
  security.inputs["armedMode"] = armed;
  home.apps.push_back(security);

  core::Sanitizer sanitizer(home);
  core::SanitizerOptions options;
  options.model.dynamic_discovery = true;
  options.check.max_events = 1;
  core::SanitizerReport report = sanitizer.Check(options);
  EXPECT_TRUE(report.rejected_apps.empty());
  // The discovery app's wildcard output overlaps Smart Security's
  // motion-sensor input: both apps share one related set.
  EXPECT_GE(report.scale.new_size, 2);
}

}  // namespace
}  // namespace iotsan
