// Validates the bundled experiment workloads: every expert group must
// build (all 150 app configurations resolve against their devices) and
// produce the violation classes Table 5 reports; volunteer groups must be
// configurable.
#include <gtest/gtest.h>

#include <set>

#include "attrib/config_enum.hpp"
#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "dsl/parser.hpp"
#include "telemetry/telemetry.hpp"

namespace iotsan {
namespace {

core::SanitizerReport CheckGroup(const corpus::SystemUnderTest& sut,
                                 int max_events, bool failures = false) {
  core::Sanitizer sanitizer(sut.deployment);
  for (const auto& [name, source] : sut.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  core::SanitizerOptions options;
  options.check.max_events = max_events;
  options.check.model_failures = failures;
  return sanitizer.Check(options);
}

TEST(GroupsTest, SixExpertGroupsWith150Apps) {
  const auto& groups = corpus::ExpertGroups();
  ASSERT_EQ(groups.size(), 6u);
  int total = 0;
  for (const corpus::SystemUnderTest& sut : groups) {
    EXPECT_EQ(sut.app_count(), 25) << sut.deployment.name;
    total += sut.app_count();
  }
  EXPECT_EQ(total, 150);
}

TEST(GroupsTest, EachAppIsAnalysedOncePerCheck) {
  // The climate group's 25 apps fall into 168 overlapping related sets,
  // 118 of them distinct; every distinct set's model shares the check's
  // one analysis per app.
  struct ScopedRegistry {
    telemetry::Registry registry;
    ScopedRegistry() { telemetry::SetActive(&registry); }
    ~ScopedRegistry() { telemetry::SetActive(nullptr); }
  } scoped;
  core::SanitizerReport report =
      CheckGroup(corpus::ExpertGroups()[1], /*max_events=*/1);
  EXPECT_EQ(report.related_set_count, 168);
  EXPECT_EQ(scoped.registry.pipeline.models_built, 118u);
  EXPECT_EQ(scoped.registry.pipeline.apps_parsed, 25u);
}

TEST(GroupsTest, AllExpertGroupsBuildAndCheck) {
  for (const corpus::SystemUnderTest& sut : corpus::ExpertGroups()) {
    SCOPED_TRACE(sut.deployment.name);
    core::SanitizerReport report = CheckGroup(sut, /*max_events=*/1);
    EXPECT_TRUE(report.rejected_apps.empty())
        << report.rejected_apps.front();
    EXPECT_GT(report.states_explored, 0u);
  }
}

TEST(GroupsTest, Group1FindsConflictRepeatAndUnsafeState) {
  const corpus::SystemUnderTest& g1 = corpus::ExpertGroups()[0];
  core::SanitizerReport report = CheckGroup(g1, /*max_events=*/2);
  EXPECT_TRUE(report.HasViolation("P39")) << "conflicting commands";
  EXPECT_TRUE(report.HasViolation("P40")) << "repeated commands";
  EXPECT_TRUE(report.HasViolation("P06") || report.HasViolation("P10"))
      << "door-unlock unsafe state";
}

TEST(GroupsTest, Group2FindsHvacViolations) {
  core::SanitizerReport report =
      CheckGroup(corpus::ExpertGroups()[1], /*max_events=*/2);
  // It's Too Cold turns the heater on and never off; with heat + cool
  // apps on one sensor, P03/P04-style HVAC states are reachable.
  EXPECT_FALSE(report.violations.empty());
  bool hvac = false;
  for (const checker::Violation& v : report.violations) {
    hvac = hvac || v.category == "Thermostat, AC, and Heater";
  }
  EXPECT_TRUE(hvac);
}

TEST(GroupsTest, Group5FindsNetworkLeak) {
  core::SanitizerReport report =
      CheckGroup(corpus::ExpertGroups()[4], /*max_events=*/1);
  EXPECT_TRUE(report.HasViolation("P41"))
      << "Weather Logger / Remote Status Reporter use httpPost";
}

TEST(GroupsTest, DependencyAnalysisShrinksEveryGroup) {
  for (const corpus::SystemUnderTest& sut : corpus::ExpertGroups()) {
    SCOPED_TRACE(sut.deployment.name);
    core::SanitizerReport report = CheckGroup(sut, /*max_events=*/1);
    EXPECT_GT(report.scale.original_size, 0);
    EXPECT_GT(report.scale.new_size, 0);
    EXPECT_GE(report.scale.ratio, 1.0);
    EXPECT_LE(report.scale.new_size, report.scale.original_size);
  }
}

TEST(GroupsTest, VolunteerGroupsAreConfigurable) {
  const auto& groups = corpus::VolunteerGroups();
  ASSERT_EQ(groups.size(), 10u);
  Rng rng(2018);
  for (const corpus::VolunteerGroup& group : groups) {
    SCOPED_TRACE(group.name);
    for (const std::string& app_name : group.apps) {
      const corpus::CorpusApp* app = corpus::FindApp(app_name);
      ASSERT_NE(app, nullptr) << app_name;
      dsl::App parsed = dsl::ParseApp(app->source, app_name);
      config::AppConfig cfg =
          attrib::GenerateVolunteerConfig(parsed, group.device_pool, rng);
      // Every required device input must have been bound.
      for (const dsl::InputDecl& input : parsed.inputs) {
        if (!input.required) continue;
        EXPECT_TRUE(cfg.inputs.count(input.name))
            << app_name << " input " << input.name;
      }
    }
  }
}

TEST(GroupsTest, FailureModelingAddsViolations) {
  // Paper §10.2: device/communication failures cause violations of
  // additional properties.
  const corpus::SystemUnderTest& g1 = corpus::ExpertGroups()[0];
  core::SanitizerReport base = CheckGroup(g1, 2, /*failures=*/false);
  core::SanitizerReport with_failures = CheckGroup(g1, 2, /*failures=*/true);
  std::set<std::string> base_ids;
  for (const auto& v : base.violations) base_ids.insert(v.property_id);
  int extra = 0;
  for (const auto& v : with_failures.violations) {
    if (!base_ids.count(v.property_id)) ++extra;
  }
  EXPECT_GT(extra, 0) << "failures should expose new violated properties";
}

}  // namespace
}  // namespace iotsan
