#include "core/sanitizer.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
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

std::vector<std::size_t> FirstOccurrences(
    const std::vector<std::vector<std::size_t>>& groups) {
  std::map<std::vector<std::size_t>, std::size_t> seen;
  std::vector<std::size_t> first;
  first.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    first.push_back(seen.emplace(groups[g], g).first->second);
  }
  return first;
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

config::Deployment Sanitizer::GroupDeployment(
    const std::vector<std::size_t>& group) const {
  // All devices stay visible so role-based properties bind identically.
  config::Deployment sub;
  sub.name = deployment_.name;
  sub.devices = deployment_.devices;
  sub.modes = deployment_.modes;
  sub.contact_phone = deployment_.contact_phone;
  sub.allow_network_interfaces = deployment_.allow_network_interfaces;
  for (std::size_t i : group) sub.apps.push_back(deployment_.apps[i]);
  return sub;
}

cache::GroupKey Sanitizer::GroupKeyFor(const std::vector<std::size_t>& group,
                                       const SanitizerOptions& options,
                                       const std::string& version) const {
  const model::ModelOptions model_options = EffectiveModelOptions(options);
  const std::vector<props::Property> all_properties =
      CandidateProperties(options);
  const config::Deployment sub = GroupDeployment(group);
  cache::GroupKeyInputs inputs;
  inputs.deployment = &sub;
  for (std::size_t i : group) {
    inputs.sources.emplace_back(deployment_.apps[i].app,
                                SourceFor(deployment_.apps[i].app));
  }
  inputs.properties = &all_properties;
  inputs.check = &options.check;
  inputs.lanes = static_cast<int>(util::ResolveJobs(options.check.jobs));
  inputs.model = &model_options;
  inputs.version = version;
  return cache::MakeGroupKey(inputs);
}

AppAnalyses Sanitizer::AnalyzeGroupApps(
    const std::vector<std::vector<std::size_t>>& groups) const {
  AppAnalyses analyses(deployment_.apps.size());
  for (const std::vector<std::size_t>& group : groups) {
    for (std::size_t i : group) {
      if (analyses[i] != nullptr) continue;
      const std::string& app = deployment_.apps[i].app;
      analyses[i] = std::make_shared<const ir::AnalyzedApp>(
          ir::AnalyzeSource(SourceFor(app), app));
    }
  }
  return analyses;
}

model::SystemModel Sanitizer::GroupModel(const std::vector<std::size_t>& group,
                                         const SanitizerOptions& options,
                                         const AppAnalyses& analyses) const {
  AppAnalyses group_apps;
  for (std::size_t i : group) group_apps.push_back(analyses[i]);
  model::SystemModel model(GroupDeployment(group), std::move(group_apps),
                           EffectiveModelOptions(options));
  if (!options.extra_properties.empty()) {
    model.SelectProperties(CandidateProperties(options));
  }
  return model;
}

checker::CheckResult Sanitizer::CheckGroup(
    const std::vector<std::size_t>& group, const SanitizerOptions& options,
    const AppAnalyses& analyses, bool& searched, cache::GroupKey* key) const {
  auto run = [&]() -> checker::CheckResult {
    searched = true;
    const model::SystemModel model = [&] {
      telemetry::ScopedSpan build_span("model_build");
      build_span.Attr("apps", static_cast<std::int64_t>(group.size()));
      if (!options.check.request_id.empty()) {
        build_span.Attr("request_id", options.check.request_id);
      }
      if (auto* t = telemetry::Active()) ++t->pipeline.models_built;
      return GroupModel(group, options, analyses);
    }();
    return checker::Checker(model).Run(options.check);
  };

  if (options.cache == nullptr) return run();
  // A group's result is a pure function of this key: a hit skips the
  // model build and search above.
  cache::GroupKey group_key =
      GroupKeyFor(group, options, options.cache->version());
  checker::CheckResult result = options.cache->FetchOrCompute(group_key, run);
  if (key != nullptr) *key = std::move(group_key);
  return result;
}

std::vector<checker::CheckResult> Sanitizer::CheckGroups(
    const std::vector<std::vector<std::size_t>>& groups,
    const SanitizerOptions& options, const AppAnalyses& analyses,
    std::uint64_t* searched) const {
  // Only the first occurrence of each app-index list is searched.
  const std::vector<std::size_t> first = FirstOccurrences(groups);
  std::vector<std::size_t> distinct;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (first[g] == g) distinct.push_back(g);
  }
  // The check's progress.  Under a cadence a search counts its states
  // as it expands them; any other set (a cache hit, or every set with
  // no cadence) counts its states when it finishes, which keeps the
  // counter out of the search step when nothing reports mid-set.
  std::optional<telemetry::ProgressCounter> progress;
  if (options.on_progress) {
    progress.emplace(distinct.size(), options.progress_every,
                     options.on_progress);
  }
  const bool searches_count = progress && options.progress_every != 0;
  // End-to-end group latency (cache hits included — that is what a
  // caller observes) and the search throughput computed groups achieved.
  std::vector<checker::CheckResult> results(groups.size());
  std::vector<char> ran(groups.size(), 0);  // one writer per position
  const bool hold = options.cache != nullptr && !options.cache_holder.empty();
  std::vector<cache::GroupKey> keys(hold ? groups.size() : 0);
  auto check_group = [&](std::size_t g, const SanitizerOptions& searched_as) {
    const auto group_start = std::chrono::steady_clock::now();
    checker::CheckResult& result = results[g];
    bool group_searched = false;
    result = CheckGroup(groups[g], searched_as, analyses, group_searched,
                        hold ? &keys[g] : nullptr);
    ran[g] = group_searched;
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
    if (progress) {
      progress->FinishSet(
          group_searched && searches_count ? 0 : result.states_explored,
          result.store_memory_bytes, result.seconds);
    }
  };

  const unsigned lanes = util::ResolveJobs(options.check.jobs);
  SanitizerOptions counted = options;
  counted.check.progress = searches_count ? &*progress : nullptr;
  SanitizerOptions one_lane = counted;
  one_lane.check.jobs = 1;
  if (lanes == 1 || distinct.size() < 2) {
    // A lone `--mono` set, or a lone set of every app (a one-set
    // deployment), has nothing to fan out with, so its search spreads
    // its root branches over the lanes: the one case where the lane
    // count can change a counter-example, and so the one search whose
    // cache key names it.  Any other lone set (a cluster batch of one
    // unit) is searched on one lane, as the fan-out searches it.
    const bool whole =
        distinct.size() == 1 &&
        (!options.use_dependency_analysis ||
         groups[distinct.front()].size() == deployment_.apps.size());
    for (std::size_t g : distinct) {
      check_group(g, whole ? counted : one_lane);
    }
  } else {
    // Related sets are independent models: they fan out over the pool
    // and each is searched on one lane, so every per-set result is the
    // serial search's and the report does not depend on the lane count.
    std::unique_ptr<util::ThreadPool> owned_pool;
    util::ThreadPool* pool = options.check.pool;
    if (pool == nullptr) {
      owned_pool = std::make_unique<util::ThreadPool>(lanes);
      pool = owned_pool.get();
      if (auto* t = telemetry::Active()) {
        ++t->parallel.pools_created;
        t->parallel.workers_spawned += owned_pool->jobs() - 1;
      }
    }
    pool->ParallelFor(distinct.size(), [&](std::size_t k) {
      check_group(distinct[k], one_lane);
    });
    if (auto* t = telemetry::Active()) {
      t->parallel.group_tasks += distinct.size();
      if (owned_pool != nullptr) {
        const util::ThreadPool::Stats stats = owned_pool->stats();
        t->parallel.tasks_run += stats.tasks_run;
        t->parallel.tasks_stolen += stats.tasks_stolen;
      }
    }
  }
  if (hold) {
    std::vector<std::pair<cache::GroupKey, checker::CheckResult>> held;
    for (std::size_t g : distinct) {
      held.emplace_back(std::move(keys[g]), results[g]);
    }
    options.cache->Hold(options.cache_holder, std::move(held));
  }
  if (searched != nullptr) *searched = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (first[g] != g) results[g] = results[first[g]];
    if (searched != nullptr) *searched += ran[first[g]];
  }
  return results;
}

void Sanitizer::RenderReported(
    const std::vector<std::vector<std::size_t>>& groups,
    const SanitizerOptions& options, const AppAnalyses& analyses,
    std::vector<checker::CheckResult>& results) const {
  telemetry::ScopedSpan span("render");
  if (!options.check.request_id.empty()) {
    span.Attr("request_id", options.check.request_id);
  }
  std::set<std::string> reported;
  std::int64_t rendered = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<checker::Violation*> firsts;
    for (checker::Violation& violation : results[g].violations) {
      if (reported.insert(violation.property_id).second) {
        firsts.push_back(&violation);
      }
    }
    if (firsts.empty()) continue;
    const model::SystemModel model = GroupModel(groups[g], options, analyses);
    const checker::Checker checker(model);
    for (checker::Violation* violation : firsts) {
      checker.Render(*violation, options.check);
    }
    rendered += static_cast<std::int64_t>(firsts.size());
  }
  span.Attr("violations", rendered);
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
  report.groups_planned = groups.size();
  std::vector<checker::CheckResult> results =
      CheckGroups(groups, options, analyses, &report.groups_searched);
  RenderReported(groups, options, analyses, results);
  // Merge in group order: byte-identical whether the groups fanned out.
  // `seconds` is the sum of the positions' search seconds in every mode.
  for (checker::CheckResult& result : results) {
    MergeGroupResult(report, std::move(result));
  }
  FinalizeReport(report);
  return report;
}

}  // namespace iotsan::core
