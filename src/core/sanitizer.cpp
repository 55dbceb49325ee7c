#include "core/sanitizer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "cache/result_cache.hpp"
#include "corpus/corpus.hpp"
#include "ir/analyzer.hpp"
#include "model/system_model.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::core {

std::vector<std::string> SanitizerReport::ViolatedPropertyIds() const {
  std::vector<std::string> ids;
  for (const checker::Violation& v : violations) ids.push_back(v.property_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Sanitizer::Sanitizer(config::Deployment deployment)
    : deployment_(std::move(deployment)) {}

void Sanitizer::AddAppSource(const std::string& name,
                             const std::string& source) {
  sources_[name] = source;
}

std::string Sanitizer::SourceFor(const std::string& app_name) const {
  auto it = sources_.find(app_name);
  if (it != sources_.end()) return it->second;
  if (const corpus::CorpusApp* app = corpus::FindApp(app_name)) {
    return app->source;
  }
  throw ConfigError("no source for app '" + app_name +
                    "' (not in the corpus; AddAppSource it)");
}

std::vector<ir::AnalyzedApp> Sanitizer::AnalyzeInstalledApps(
    SanitizerReport& report, std::vector<bool>& rejected,
    bool allow_dynamic_discovery, const std::string& request_id) const {
  telemetry::ScopedSpan span("analyze_apps");
  if (!request_id.empty()) span.Attr("request_id", request_id);
  std::vector<ir::AnalyzedApp> analyzed;
  rejected.assign(deployment_.apps.size(), false);
  for (std::size_t i = 0; i < deployment_.apps.size(); ++i) {
    const config::AppConfig& instance = deployment_.apps[i];
    ir::AnalyzedApp app;
    try {
      app = ir::AnalyzeSource(SourceFor(instance.app), instance.app);
    } catch (const Error& e) {
      if (auto* t = telemetry::Active()) ++t->pipeline.parse_failures;
      report.rejected_apps.push_back(instance.label + ": " + e.what());
      rejected[i] = true;
      analyzed.emplace_back();  // placeholder keeps indices aligned
      continue;
    }
    if (app.dynamic_device_discovery && !allow_dynamic_discovery) {
      report.rejected_apps.push_back(
          instance.label +
          ": uses dynamic device discovery (unsupported, rejected)");
      rejected[i] = true;
    }
    for (const std::string& problem : app.problems) {
      report.analysis_problems.push_back(problem);
    }
    analyzed.push_back(std::move(app));
  }
  return analyzed;
}

model::ModelOptions EffectiveModelOptions(const SanitizerOptions& options) {
  model::ModelOptions model_options = options.model;
  // Discovery apps can reach every device, so the permutation space must
  // cover every sensor, not just the subscribed ones.
  model_options.all_sensor_events =
      model_options.all_sensor_events || model_options.dynamic_discovery;
  return model_options;
}

std::vector<props::Property> CandidateProperties(
    const SanitizerOptions& options) {
  std::vector<props::Property> all_properties = props::BuiltinProperties();
  for (const props::Property& p : options.extra_properties) {
    all_properties.push_back(p);
  }
  return all_properties;
}

void MergeGroupResult(SanitizerReport& report, checker::CheckResult result) {
  checker::Accumulate(report, result);
  // Each violation moves to the per-set list; only a property's first
  // is copied into the merged list, later ones add their occurrences.
  for (checker::Violation& violation : result.violations) {
    bool merged = false;
    for (checker::Violation& existing : report.violations) {
      if (existing.property_id == violation.property_id) {
        existing.occurrences += violation.occurrences;
        merged = true;
        break;
      }
    }
    if (!merged) report.violations.push_back(violation);
    report.per_set_violations.push_back(std::move(violation));
  }
}

void FinalizeReport(SanitizerReport& report) {
  std::sort(report.violations.begin(), report.violations.end(),
            [](const checker::Violation& a, const checker::Violation& b) {
              return a.property_id < b.property_id;
            });
}

std::vector<std::vector<std::size_t>> Sanitizer::PlanGroups(
    const SanitizerOptions& options, SanitizerReport& report,
    AppAnalyses* analyses) const {
  const std::string& request_id = options.check.request_id;
  std::vector<bool> rejected;
  const model::ModelOptions model_options = EffectiveModelOptions(options);
  std::vector<ir::AnalyzedApp> analyzed = AnalyzeInstalledApps(
      report, rejected, model_options.dynamic_discovery, request_id);

  // Index sets of app instances to check together.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> accepted;
  std::vector<ir::AnalyzedApp> view;  // the accepted apps, in order
  for (std::size_t i = 0; i < analyzed.size(); ++i) {
    if (rejected[i]) continue;
    accepted.push_back(i);
    view.push_back(std::move(analyzed[i]));
  }

  if (options.use_dependency_analysis) {
    telemetry::ScopedSpan deps_span("dependency_analysis");
    if (!request_id.empty()) deps_span.Attr("request_id", request_id);
    // Dependency analysis over accepted instances only.
    const std::vector<deps::RelatedSet> sets =
        deps::ComputeRelatedSets(deps::DependencyGraph::Build(view));
    report.scale = deps::ComputeScaleStats(view, sets);
    report.related_set_count = static_cast<int>(sets.size());
    deps_span.Attr("related_sets",
                   static_cast<std::int64_t>(sets.size()));
    std::set<std::size_t> covered;
    for (const deps::RelatedSet& set : sets) {
      std::vector<std::size_t> group;
      for (int app : set.apps) {
        group.push_back(accepted[static_cast<std::size_t>(app)]);
        covered.insert(accepted[static_cast<std::size_t>(app)]);
      }
      groups.push_back(std::move(group));
    }
    // Apps with no handlers (no vertices) still deserve a pass (their
    // lifecycle may still violate nothing, but invariants about their
    // devices can fire from environment events).
    for (std::size_t i : accepted) {
      if (!covered.count(i)) groups.push_back({i});
    }
  } else {
    if (!accepted.empty()) groups.push_back(accepted);
    report.related_set_count = static_cast<int>(groups.size());
  }
  if (analyses != nullptr) {
    analyses->assign(deployment_.apps.size(), nullptr);
    for (std::size_t k = 0; k < accepted.size(); ++k) {
      (*analyses)[accepted[k]] =
          std::make_shared<const ir::AnalyzedApp>(std::move(view[k]));
    }
  }
  return groups;
}

cache::GroupKey Sanitizer::GroupKeyFor(const std::vector<std::size_t>& group,
                                       const SanitizerOptions& options,
                                       const std::string& version) const {
  const model::ModelOptions model_options = EffectiveModelOptions(options);
  const std::vector<props::Property> all_properties =
      CandidateProperties(options);
  config::Deployment sub = deployment_;
  sub.apps.clear();
  for (std::size_t i : group) sub.apps.push_back(deployment_.apps[i]);
  cache::GroupKeyInputs inputs;
  inputs.deployment = &sub;
  for (std::size_t i : group) {
    inputs.sources.emplace_back(deployment_.apps[i].app,
                                SourceFor(deployment_.apps[i].app));
  }
  inputs.properties = &all_properties;
  inputs.check = &options.check;
  inputs.model = &model_options;
  inputs.version = version;
  return cache::MakeGroupKey(inputs);
}

namespace {

/// Whether CheckGroups fans `groups` out over a pool.
bool FansOut(const SanitizerOptions& options, std::size_t groups) {
  return util::ResolveJobs(options.check.jobs) > 1 && groups > 1;
}

}  // namespace

checker::CheckResult Sanitizer::CheckGroup(
    const std::vector<std::size_t>& group, const SanitizerOptions& options,
    const checker::CheckOptions& check, const AppAnalyses* analyses) const {
  auto run = [&]() -> checker::CheckResult {
    const model::ModelOptions model_options = EffectiveModelOptions(options);
    // Build a sub-deployment with this group's app instances; all devices
    // stay visible so role-based properties bind identically.
    config::Deployment sub = deployment_;
    sub.apps.clear();
    for (std::size_t i : group) sub.apps.push_back(deployment_.apps[i]);
    AppAnalyses group_apps;
    for (std::size_t i : group) {
      if (analyses != nullptr && (*analyses)[i] != nullptr) {
        group_apps.push_back((*analyses)[i]);
        continue;
      }
      const std::string& app = deployment_.apps[i].app;
      group_apps.push_back(std::make_shared<const ir::AnalyzedApp>(
          ir::AnalyzeSource(SourceFor(app), app)));
    }
    model::SystemModel model = [&] {
      telemetry::ScopedSpan build_span("model_build");
      build_span.Attr("apps", static_cast<std::int64_t>(group.size()));
      if (!check.request_id.empty()) {
        build_span.Attr("request_id", check.request_id);
      }
      if (auto* t = telemetry::Active()) ++t->pipeline.models_built;
      return model::SystemModel(std::move(sub), std::move(group_apps),
                                model_options);
    }();
    if (!options.extra_properties.empty()) {
      model.SelectProperties(CandidateProperties(options));
    }
    checker::Checker checker(model);
    return checker.Run(check);
  };

  if (options.cache == nullptr) return run();
  // A group's result is a pure function of this key: a hit skips the
  // model build and search above.
  return options.cache->FetchOrCompute(
      GroupKeyFor(group, options, options.cache->version()), run);
}

std::vector<checker::CheckResult> Sanitizer::CheckGroups(
    const std::vector<std::vector<std::size_t>>& groups,
    const SanitizerOptions& options, const AppAnalyses* analyses) const {
  // End-to-end group latency (cache hits included — that is what a
  // caller observes) and the search throughput computed groups achieved.
  // The group-progress tallies are shared across pool workers; the
  // callback itself runs under progress_mutex so subscribers see
  // groups_done advance monotonically.
  std::vector<checker::CheckResult> results(groups.size());
  std::atomic<std::uint64_t> groups_done{0};
  std::atomic<std::uint64_t> group_states{0};
  std::mutex progress_mutex;
  auto check_group = [&](std::size_t g, const checker::CheckOptions& check) {
    const auto group_start = std::chrono::steady_clock::now();
    checker::CheckResult& result = results[g];
    result = CheckGroup(groups[g], options, check, analyses);
    if (auto* t = telemetry::Active()) {
      t->search_hist.group_check_duration_us.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - group_start)
              .count()));
      if (result.seconds > 0) {
        t->search_hist.group_states_per_second.Record(
            static_cast<std::uint64_t>(
                static_cast<double>(result.states_explored) / result.seconds));
      }
    }
    if (options.on_group_progress) {
      telemetry::GroupProgress progress;
      progress.groups_total = groups.size();
      progress.groups_done = groups_done.fetch_add(1) + 1;
      progress.states_explored =
          group_states.fetch_add(result.states_explored) +
          result.states_explored;
      progress.store_memory_bytes = result.store_memory_bytes;
      progress.seconds = result.seconds;
      std::lock_guard<std::mutex> lock(progress_mutex);
      options.on_group_progress(progress);
    }
  };

  if (!FansOut(options, groups.size())) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      check_group(g, options.check);
    }
    return results;
  }
  // Related sets are independent models, so they fan out across the
  // pool; each group's checker fans its root branches over the *same*
  // pool (nested ParallelFor), so one pool serves both layers.
  std::unique_ptr<util::ThreadPool> owned_pool;
  checker::CheckOptions check = options.check;
  if (check.pool == nullptr) {
    owned_pool =
        std::make_unique<util::ThreadPool>(util::ResolveJobs(check.jobs));
    check.pool = owned_pool.get();
    if (auto* t = telemetry::Active()) {
      ++t->parallel.pools_created;
      t->parallel.workers_spawned += owned_pool->jobs() - 1;
    }
  }
  check.pool->ParallelFor(groups.size(),
                          [&](std::size_t g) { check_group(g, check); });
  if (auto* t = telemetry::Active()) {
    t->parallel.group_tasks += groups.size();
    if (owned_pool != nullptr) {
      const util::ThreadPool::Stats stats = owned_pool->stats();
      t->parallel.tasks_run += stats.tasks_run;
      t->parallel.tasks_stolen += stats.tasks_stolen;
    }
  }
  return results;
}

SanitizerReport Sanitizer::Check(const SanitizerOptions& options) const {
  telemetry::ScopedSpan pipeline_span("pipeline");
  pipeline_span.Attr("system", deployment_.name);
  pipeline_span.Attr("apps",
                     static_cast<std::int64_t>(deployment_.apps.size()));
  const std::string& request_id = options.check.request_id;
  if (!request_id.empty()) pipeline_span.Attr("request_id", request_id);
  SanitizerReport report;
  AppAnalyses analyses;
  const std::vector<std::vector<std::size_t>> groups =
      PlanGroups(options, report, &analyses);
  const auto start = std::chrono::steady_clock::now();
  // Merge in group order: byte-identical whether the groups fanned out.
  for (checker::CheckResult& result : CheckGroups(groups, options, &analyses)) {
    MergeGroupResult(report, std::move(result));
  }
  if (FansOut(options, groups.size())) {
    // Per-group seconds overlap under concurrency; report wall clock.
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  FinalizeReport(report);
  return report;
}

}  // namespace iotsan::core
