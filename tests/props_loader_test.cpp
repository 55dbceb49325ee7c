// User-defined property loading tests (paper §3/§8).
#include <gtest/gtest.h>

#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "props/loader.hpp"
#include "util/error.hpp"

namespace iotsan::props {
namespace {

TEST(PropsLoaderTest, LoadsValidProperties) {
  auto properties = LoadPropertiesJson(R"JSON([
    {"id": "U1", "category": "User",
     "description": "the heater is never on at night",
     "expression": "!(mode == \"Night\" && any(\"heaterOutlet\", \"switch\") == \"on\")"},
    {"id": "U2", "description": "lock stays locked",
     "expression": "!(any(\"mainDoorLock\", \"lock\") == \"unlocked\")"}
  ])JSON");
  ASSERT_EQ(properties.size(), 2u);
  EXPECT_EQ(properties[0].id, "U1");
  EXPECT_EQ(properties[0].kind, PropertyKind::kInvariant);
  EXPECT_EQ(properties[0].roles,
            (std::vector<std::string>{"heaterOutlet"}));
  EXPECT_EQ(properties[1].category, "User");  // default
  EXPECT_EQ(properties[1].description, "lock stays locked");
}

TEST(PropsLoaderTest, RejectsMissingFields) {
  EXPECT_THROW(LoadPropertiesJson(R"([{"id": "U1"}])"), SemanticError);
  EXPECT_THROW(LoadPropertiesJson(R"([{"expression": "mode == \"x\""}])"),
               SemanticError);
}

TEST(PropsLoaderTest, RejectsDuplicateAndBuiltinIds) {
  EXPECT_THROW(LoadPropertiesJson(R"([
    {"id": "U1", "expression": "mode == \"Home\""},
    {"id": "U1", "expression": "mode == \"Away\""}])"),
               SemanticError);
  EXPECT_THROW(LoadPropertiesJson(
                   R"([{"id": "P06", "expression": "mode == \"Home\""}])"),
               SemanticError);
}

TEST(PropsLoaderTest, RejectsUnparseableExpressions) {
  try {
    LoadPropertiesJson(R"([{"id": "U1", "expression": "mode == ("}])");
    FAIL() << "expected SemanticError";
  } catch (const SemanticError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("user property 'U1': ", 0), 0u)
        << e.what();
  }
}

TEST(PropsLoaderTest, RejectsNonArrayDocuments) {
  EXPECT_THROW(LoadPropertiesJson(R"({"id": "U1"})"), Error);
  EXPECT_THROW(LoadPropertiesJson("not json"), ParseError);
}

TEST(PropsLoaderTest, LoadedPropertiesDriveTheChecker) {
  config::DeploymentBuilder b("h");
  b.Device("m1", "motionSensor", {"watchedMotion"});
  b.Device("sw", "smartSwitch", {"watchedLight"});
  b.App("Brighten My Path")
      .Devices("motion1", {"m1"})
      .Devices("switches", {"sw"});
  core::Sanitizer sanitizer(b.Build());
  core::SanitizerOptions options;
  options.check.max_events = 2;
  options.extra_properties = LoadPropertiesJson(R"JSON([
    {"id": "U9", "description": "watched light stays off",
     "expression": "!(any(\"watchedLight\", \"switch\") == \"on\")"}
  ])JSON");
  EXPECT_TRUE(sanitizer.Check(options).HasViolation("U9"));
}

}  // namespace
}  // namespace iotsan::props
