// Sanitizer facade tests: source resolution, user-defined properties,
// multiple installs, per-set reporting, model options plumbing, and the
// check's progress stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "cache/result_cache.hpp"
#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "corpus/groups.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace iotsan::core {
namespace {

TEST(SanitizerTest, UnknownAppSourceIsRejectedNotFatal) {
  config::DeploymentBuilder b("h");
  b.Device("sw", "smartSwitch");
  b.App("Totally Unknown App").Devices("x", {"sw"});
  Sanitizer sanitizer(b.Build());
  SanitizerReport report = sanitizer.Check();
  ASSERT_EQ(report.rejected_apps.size(), 1u);
  EXPECT_NE(report.rejected_apps[0].find("no source"), std::string::npos);
}

TEST(SanitizerTest, AddAppSourceOverridesCorpus) {
  config::DeploymentBuilder b("h");
  b.Device("sw", "smartSwitch", {"light"});
  b.Device("m1", "motionSensor");
  b.App("My Custom App").Devices("m1", {"m1"}).Devices("sw", {"sw"});
  Sanitizer sanitizer(b.Build());
  sanitizer.AddAppSource("My Custom App", R"(
definition(name: "My Custom App", namespace: "user")
preferences {
    section("S") {
        input "m1", "capability.motionSensor"
        input "sw", "capability.switch"
    }
}
def installed() { subscribe(m1, "motion.active", h) }
def h(evt) { sw.on() }
)");
  SanitizerReport report = sanitizer.Check();
  EXPECT_TRUE(report.rejected_apps.empty());
  EXPECT_GT(report.states_explored, 0u);
}

TEST(SanitizerTest, UserDefinedProperties) {
  config::DeploymentBuilder b("h");
  b.Device("m1", "motionSensor", {"watchedMotion"});
  b.Device("sw", "smartSwitch", {"watchedLight"});
  b.App("Brighten My Path").Devices("motion1", {"m1"}).Devices("switches",
                                                               {"sw"});
  Sanitizer sanitizer(b.Build());
  SanitizerOptions options;
  options.check.max_events = 2;
  options.extra_properties.push_back(props::MakeInvariant(
      "U1", "User", "The watched light is never on",
      R"(!(any("watchedLight", "switch") == "on"))"));
  SanitizerReport report = sanitizer.Check(options);
  EXPECT_TRUE(report.HasViolation("U1"));
}

TEST(SanitizerTest, SameAppInstalledTwice) {
  config::DeploymentBuilder b("h");
  b.Device("m1", "motionSensor");
  b.Device("m2", "motionSensor");
  b.Device("sw1", "smartSwitch", {"light"});
  b.Device("sw2", "smartSwitch", {"light"});
  b.App("Brighten My Path", "hall")
      .Devices("motion1", {"m1"})
      .Devices("switches", {"sw1"});
  b.App("Brighten My Path", "garage")
      .Devices("motion1", {"m2"})
      .Devices("switches", {"sw2"});
  Sanitizer sanitizer(b.Build());
  SanitizerOptions options;
  options.check.max_events = 1;
  SanitizerReport report = sanitizer.Check(options);
  EXPECT_TRUE(report.rejected_apps.empty());
  EXPECT_GE(report.related_set_count, 2);
}

TEST(SanitizerTest, PerSetViolationsKeepDuplicates) {
  // The same property found in several related sets appears once in
  // `violations` (merged) but once per set in `per_set_violations`.
  config::DeploymentBuilder b("h");
  b.Device("c1", "contactSensor", {"frontDoorContact"});
  b.Device("lightMeter", "illuminanceSensor");
  b.Device("sw", "smartSwitch", {"light"});
  b.App("Brighten Dark Places")
      .Devices("contact1", {"c1"})
      .Devices("luminance1", {"lightMeter"})
      .Devices("switches", {"sw"});
  b.App("Let There Be Dark!")
      .Devices("contact1", {"c1"})
      .Devices("switches", {"sw"});
  Sanitizer sanitizer(b.Build());
  SanitizerOptions options;
  options.check.max_events = 2;
  SanitizerReport report = sanitizer.Check(options);
  int merged = 0;
  for (const checker::Violation& v : report.violations) {
    if (v.property_id == "P39") ++merged;
  }
  EXPECT_EQ(merged, 1);
  EXPECT_GE(report.per_set_violations.size(), report.violations.size());
}

TEST(SanitizerTest, EachDistinctRelatedSetIsSearchedOnce) {
  // The climate group (Table 5 group 2) falls into 168 related sets, 118
  // of them distinct app-index lists: two handlers of one app instance
  // often land in the same set.  A repeat gets its first's result, so
  // the report still sums all 168 while only 118 searches run.
  const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[1];
  Sanitizer sanitizer(sut.deployment);
  for (const auto& [name, source] : sut.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  SanitizerOptions options;
  options.check.max_events = 1;
  telemetry::Registry registry;
  telemetry::SetActive(&registry);
  const SanitizerReport report = sanitizer.Check(options);
  telemetry::SetActive(nullptr);

  EXPECT_EQ(report.related_set_count, 168);
  EXPECT_EQ(registry.pipeline.checks_run.load(), 118u);
  EXPECT_LT(registry.search.states_explored.load(), report.states_explored);
  // Only the counter-examples the report prints are rendered; every
  // other per-set violation keeps its compact path.
  ASSERT_FALSE(report.violations.empty());
  for (const checker::Violation& v : report.violations) {
    ASSERT_FALSE(v.steps.empty()) << v.property_id;
    EXPECT_EQ(v.steps.front().index, 1) << v.property_id;
    EXPECT_FALSE(v.steps.front().notes.empty()) << v.property_id;
  }
  std::size_t compact = 0;
  for (const checker::Violation& v : report.per_set_violations) {
    if (v.steps.front().index == 0) ++compact;
  }
  EXPECT_EQ(compact,
            report.per_set_violations.size() - report.violations.size());
}

/// CheckGroups of expert group 3 on four lanes, with its telemetry.
struct FourLaneRun {
  telemetry::Registry registry;
  SanitizerReport plan;
  std::vector<checker::CheckResult> results;

  explicit FourLaneRun(bool mono, bool rejected_app = false) {
    const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[2];
    config::Deployment deployment = sut.deployment;
    if (rejected_app) {
      deployment.apps.push_back(deployment.apps.front());
      deployment.apps.back().app = "No Such App";  // no source: rejected
    }
    Sanitizer sanitizer(deployment);
    for (const auto& [name, source] : sut.extra_sources) {
      sanitizer.AddAppSource(name, source);
    }
    SanitizerOptions options;
    options.check.max_events = 2;
    options.check.jobs = 4;
    options.use_dependency_analysis = !mono;
    AppAnalyses analyses;
    const auto groups = sanitizer.PlanGroups(options, plan, &analyses);
    telemetry::SetActive(&registry);
    results = sanitizer.CheckGroups(groups, options, analyses);
    telemetry::SetActive(nullptr);
  }
};

TEST(SanitizerTest, SeveralSetsFanOutOneLaneEach) {
  // Group 3 has several distinct related sets: they fan out over the
  // lanes and each is searched serially, root branches in order.
  const FourLaneRun run(/*mono=*/false);
  ASSERT_GT(run.results.size(), 1u);
  EXPECT_GT(run.registry.parallel.group_tasks.load(), 1u);
  EXPECT_EQ(run.registry.parallel.branch_tasks.load(), 0u);
  for (const checker::CheckResult& result : run.results) {
    EXPECT_EQ(result.jobs, 1);
  }
}

TEST(SanitizerTest, OneSetSpreadsItsRootBranches) {
  // A monolithic model is one set: nothing to fan out, so its search
  // spreads its root branches over the lanes instead.
  const FourLaneRun run(/*mono=*/true);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.registry.parallel.group_tasks.load(), 0u);
  EXPECT_GT(run.registry.parallel.branch_tasks.load(), 0u);
  EXPECT_EQ(run.results.front().jobs, 4);
}

TEST(SanitizerTest, MonoSetWithARejectedAppStillSpreads) {
  // The --mono model leaves the rejected app out but is still the whole
  // check, so its search spreads as a set of every app does.
  const FourLaneRun run(/*mono=*/true, /*rejected_app=*/true);
  ASSERT_EQ(run.plan.rejected_apps.size(), 1u);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_GT(run.registry.parallel.branch_tasks.load(), 0u);
  EXPECT_EQ(run.results.front().jobs, 4);
}

TEST(SanitizerTest, ScaleStatsPopulated) {
  config::DeploymentBuilder b("h");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("Auto Mode Change")
      .Devices("people", {"p1"})
      .Text("homeMode", "Home")
      .Text("awayMode", "Away");
  b.App("Unlock Door").Devices("lock1", {"lock1"});
  Sanitizer sanitizer(b.Build());
  SanitizerReport report = sanitizer.Check();
  EXPECT_EQ(report.scale.original_size, 3);  // 3 handlers
  EXPECT_GE(report.scale.new_size, 1);
  EXPECT_GE(report.related_set_count, 1);
}

TEST(SanitizerTest, BindingErrorsSurfaceAsConfigError) {
  config::DeploymentBuilder b("h");
  b.Device("lock1", "smartLock");
  // Unlock Door's lock1 input requires capability.lock; bind a switch.
  b.Device("sw", "smartSwitch");
  b.App("Unlock Door").Devices("lock1", {"sw"});
  Sanitizer sanitizer(b.Build());
  EXPECT_THROW(sanitizer.Check(), ConfigError);
}

TEST(SanitizerTest, MissingRequiredInputThrows) {
  config::DeploymentBuilder b("h");
  b.Device("lock1", "smartLock");
  b.App("Unlock Door");  // lock1 input unbound
  Sanitizer sanitizer(b.Build());
  EXPECT_THROW(sanitizer.Check(), ConfigError);
}

TEST(SanitizerTest, ViolatedPropertyIdsSorted) {
  config::DeploymentBuilder b("h");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("Auto Mode Change")
      .Devices("people", {"p1"})
      .Text("homeMode", "Home")
      .Text("awayMode", "Away");
  b.App("Unlock Door").Devices("lock1", {"lock1"});
  Sanitizer sanitizer(b.Build());
  SanitizerOptions options;
  options.check.max_events = 2;
  SanitizerReport report = sanitizer.Check(options);
  auto ids = report.ViolatedPropertyIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_FALSE(ids.empty());
}

TEST(SanitizerTest, ParallelJobsMatchesSerial) {
  // Two independent related sets — the conflicting light pair and the
  // presence/lock chain — so the parallel run fans both the groups and
  // each group's root branches across the pool.  Every field of the
  // merged report must match the serial run exactly.
  config::DeploymentBuilder b("h");
  b.Device("c1", "contactSensor", {"frontDoorContact"});
  b.Device("lightMeter", "illuminanceSensor");
  b.Device("sw", "smartSwitch", {"light"});
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("Brighten Dark Places")
      .Devices("contact1", {"c1"})
      .Devices("luminance1", {"lightMeter"})
      .Devices("switches", {"sw"});
  b.App("Let There Be Dark!")
      .Devices("contact1", {"c1"})
      .Devices("switches", {"sw"});
  b.App("Auto Mode Change")
      .Devices("people", {"p1"})
      .Text("homeMode", "Home")
      .Text("awayMode", "Away");
  b.App("Unlock Door").Devices("lock1", {"lock1"});
  config::Deployment deployment = b.Build();

  SanitizerOptions serial_options;
  serial_options.check.max_events = 2;
  SanitizerOptions parallel_options = serial_options;
  parallel_options.check.jobs = 4;
  SanitizerReport serial = Sanitizer(deployment).Check(serial_options);
  SanitizerReport parallel = Sanitizer(deployment).Check(parallel_options);

  EXPECT_GT(serial.related_set_count, 1);
  EXPECT_EQ(serial.ViolatedPropertyIds(), parallel.ViolatedPropertyIds());
  EXPECT_EQ(serial.states_explored, parallel.states_explored);
  EXPECT_EQ(serial.states_matched, parallel.states_matched);
  EXPECT_EQ(serial.transitions, parallel.transitions);
  EXPECT_EQ(serial.cascade_drains, parallel.cascade_drains);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.depth_histogram, parallel.depth_histogram);
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].occurrences,
              parallel.violations[i].occurrences);
    EXPECT_EQ(checker::FormatViolation(serial.violations[i]),
              checker::FormatViolation(parallel.violations[i]));
  }
  ASSERT_EQ(serial.per_set_violations.size(),
            parallel.per_set_violations.size());
  for (std::size_t i = 0; i < serial.per_set_violations.size(); ++i) {
    EXPECT_EQ(checker::FormatViolation(serial.per_set_violations[i]),
              checker::FormatViolation(parallel.per_set_violations[i]));
  }
}

// ---- progress ------------------------------------------------------------------

/// One check of an expert group with a progress cadence of 100 states:
/// its reports in arrival order, and what the check searched.
struct ProgressRun {
  std::vector<telemetry::Progress> reports;
  SanitizerReport report;
  std::uint64_t distinct_sets = 0;
  std::uint64_t searched_states = 0;  // the check's search.states_explored

  ProgressRun(std::size_t group, int jobs, cache::ResultCache* cache = nullptr,
              std::uint64_t max_states = 0) {
    const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[group];
    Sanitizer sanitizer(sut.deployment);
    for (const auto& [name, source] : sut.extra_sources) {
      sanitizer.AddAppSource(name, source);
    }
    SanitizerOptions options;
    options.check.jobs = jobs;
    options.check.max_states = max_states;
    options.cache = cache;
    options.progress_every = 100;
    // Calls come one at a time, so the callback needs no lock.
    options.on_progress = [this](const telemetry::Progress& progress) {
      reports.push_back(progress);
    };
    SanitizerReport plan;
    const std::vector<std::vector<std::size_t>> groups =
        sanitizer.PlanGroups(options, plan);
    const std::vector<std::size_t> first = FirstOccurrences(groups);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      distinct_sets += first[g] == g;
    }
    telemetry::Registry registry;
    telemetry::SetActive(&registry);
    report = sanitizer.Check(options);
    telemetry::SetActive(nullptr);
    searched_states = registry.search.states_explored.load();
  }

  /// Reports a finished set sent: those whose groups_done rose.
  std::uint64_t SetReports() const {
    std::uint64_t sets = 0;
    std::uint64_t done = 0;
    for (const telemetry::Progress& progress : reports) {
      sets += progress.groups_done > done;
      done = progress.groups_done;
    }
    return sets;
  }
};

/// Neither count of `run`'s reports ever decreases.
void ExpectMonotone(const ProgressRun& run) {
  for (std::size_t i = 1; i < run.reports.size(); ++i) {
    EXPECT_LE(run.reports[i - 1].groups_done, run.reports[i].groups_done)
        << "report " << i;
    EXPECT_LE(run.reports[i - 1].states_explored,
              run.reports[i].states_explored)
        << "report " << i;
  }
}

// Expert groups 2, 3 and 6: the climate group's 118 distinct sets of
// 168, and two groups of a few larger sets.
constexpr std::size_t kProgressGroups[] = {1, 2, 5};

TEST(SanitizerProgressTest, ReportsNeverDecreaseAndEndOnTheWholeCheck) {
  for (std::size_t group : kProgressGroups) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE("group " + std::to_string(group + 1) + ", jobs " +
                   std::to_string(jobs));
      const ProgressRun run(group, jobs);
      ASSERT_FALSE(run.reports.empty());
      ExpectMonotone(run);
      const telemetry::Progress& last = run.reports.back();
      EXPECT_EQ(last.groups_total, run.distinct_sets);
      EXPECT_EQ(last.groups_done, run.distinct_sets);
      EXPECT_EQ(last.states_explored, run.searched_states);
      // One report per finished set, and one per multiple of 100 the
      // check's states crossed.
      EXPECT_EQ(run.SetReports(), run.distinct_sets);
      EXPECT_EQ(run.reports.size(),
                run.distinct_sets + run.searched_states / 100);
    }
  }
}

TEST(SanitizerProgressTest, BudgetStoppedCheckStillEndsOnAReport) {
  for (std::size_t group : kProgressGroups) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE("group " + std::to_string(group + 1) + ", jobs " +
                   std::to_string(jobs));
      const ProgressRun run(group, jobs, nullptr, /*max_states=*/20);
      ASSERT_FALSE(run.report.completed);
      ASSERT_FALSE(run.reports.empty());
      ExpectMonotone(run);
      const telemetry::Progress& last = run.reports.back();
      EXPECT_EQ(last.groups_done, run.distinct_sets);
      EXPECT_EQ(last.states_explored, run.searched_states);
    }
  }
}

TEST(SanitizerProgressTest, WarmCheckEndsOnTheColdChecksLastReport) {
  // A cache hit counts its states when it arrives, so the warm check
  // reports each set once and ends where the searching check ended.
  for (std::size_t group : kProgressGroups) {
    for (int jobs : {1, 4}) {
      SCOPED_TRACE("group " + std::to_string(group + 1) + ", jobs " +
                   std::to_string(jobs));
      cache::ResultCache cache(cache::CacheConfig{});
      const ProgressRun cold(group, jobs, &cache);
      const ProgressRun warm(group, jobs, &cache);
      EXPECT_EQ(warm.searched_states, 0u);
      ASSERT_FALSE(cold.reports.empty());
      ASSERT_FALSE(warm.reports.empty());
      ExpectMonotone(warm);
      EXPECT_EQ(warm.reports.size(), warm.distinct_sets);
      EXPECT_EQ(warm.reports.back().groups_total,
                cold.reports.back().groups_total);
      EXPECT_EQ(warm.reports.back().groups_done,
                cold.reports.back().groups_done);
      EXPECT_EQ(warm.reports.back().states_explored,
                cold.reports.back().states_explored);
    }
  }
}

TEST(SanitizerProgressTest, WithoutACadenceEachReportAddsOneFinishedSet) {
  // With no cadence nothing reports mid-set, so the searches leave the
  // counter alone and each set adds its states when it finishes: every
  // report's count is the sum of the sets finished so far, even with
  // four sets searched at once.
  for (std::size_t group : kProgressGroups) {
    SCOPED_TRACE("group " + std::to_string(group + 1));
    const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[group];
    Sanitizer sanitizer(sut.deployment);
    for (const auto& [name, source] : sut.extra_sources) {
      sanitizer.AddAppSource(name, source);
    }
    SanitizerOptions options;
    options.check.jobs = 4;
    std::vector<telemetry::Progress> reports;
    options.on_progress = [&reports](const telemetry::Progress& progress) {
      reports.push_back(progress);
    };
    SanitizerReport plan;
    AppAnalyses analyses;
    const auto groups = sanitizer.PlanGroups(options, plan, &analyses);
    const std::vector<checker::CheckResult> results =
        sanitizer.CheckGroups(groups, options, analyses);
    const std::vector<std::size_t> first = FirstOccurrences(groups);
    std::vector<std::uint64_t> set_states;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (first[g] == g) set_states.push_back(results[g].states_explored);
    }
    ASSERT_EQ(reports.size(), set_states.size());
    std::vector<std::uint64_t> added;
    std::uint64_t before = 0;
    for (const telemetry::Progress& progress : reports) {
      ASSERT_GE(progress.states_explored, before);
      added.push_back(progress.states_explored - before);
      before = progress.states_explored;
    }
    std::sort(set_states.begin(), set_states.end());
    std::sort(added.begin(), added.end());
    EXPECT_EQ(added, set_states);
  }
}

}  // namespace
}  // namespace iotsan::core
