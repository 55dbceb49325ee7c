#include "registry/delta.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "cache/result_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::registry {

namespace {

/// Same rule the result cache applies before memoizing: budget-stopped
/// runs depend on wall clock and multi-lane bitstate searches race on
/// bit insertions, so neither may be replayed on the next delta.
bool Retainable(const checker::CheckResult& result, unsigned effective_jobs) {
  if (!result.completed) return false;
  if (result.store_fill_ratio > 0 && effective_jobs > 1) return false;
  return true;
}

}  // namespace

RegistryCheckOutcome RunRegistryCheck(const core::CheckRequest& request,
                                      const core::ServiceEnv& env,
                                      const CheckRecord* prior) {
  core::Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  core::SanitizerOptions options = core::MakeCheckOptions(request.options, env);
  options.extra_properties = request.extra_properties;

  core::SanitizerReport report;
  core::AppAnalyses analyses;
  const std::vector<std::vector<std::size_t>> groups =
      sanitizer.PlanGroups(options, report, &analyses);
  const std::string version = options.cache != nullptr
                                  ? options.cache->version()
                                  : build::GetBuildInfo().version;

  // The prior revision's fingerprint map.  Keys recorded under a
  // different fingerprint version are incomparable — the whole record
  // is ignored and the check runs full.
  std::map<std::string_view, const checker::CheckResult*> retained;
  if (prior != nullptr && prior->cache_version == version) {
    for (const CheckRecord::Group& group : prior->groups) {
      retained[group.key.text] = &group.result;
    }
  }

  // Classify: a recomputed key that matches a retained one means the
  // edit left that group's inputs untouched (unchanged -> reuse); a
  // miss is a dirty or added group (re-run); retained keys no current
  // group claims belong to removed groups and simply drop out.
  struct Slot {
    cache::GroupKey key;
    checker::CheckResult result;
    bool reused = false;
  };
  std::vector<Slot> slots(groups.size());
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    slots[i].key = sanitizer.GroupKeyFor(groups[i], options, version);
    auto it = retained.find(slots[i].key.text);
    if (it != retained.end()) {
      slots[i].result = *it->second;
      slots[i].reused = true;
    } else {
      dirty.push_back(i);
    }
  }

  // Re-run only the dirty + added groups, through the exact group
  // dispatch Sanitizer::Check uses (telemetry and progress included;
  // progress counts the groups actually running).
  std::atomic<std::uint64_t> groups_done{0};
  std::atomic<std::uint64_t> group_states{0};
  std::mutex progress_mutex;
  auto check_group = [&](std::size_t index,
                         const checker::CheckOptions& check) {
    const auto group_start = std::chrono::steady_clock::now();
    checker::CheckResult result =
        sanitizer.CheckGroup(groups[index], options, check, &analyses);
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
      progress.groups_total = dirty.size();
      progress.groups_done = groups_done.fetch_add(1) + 1;
      progress.states_explored =
          group_states.fetch_add(result.states_explored) +
          result.states_explored;
      progress.store_memory_bytes = result.store_memory_bytes;
      progress.seconds = result.seconds;
      std::lock_guard<std::mutex> lock(progress_mutex);
      options.on_group_progress(progress);
    }
    return result;
  };

  const unsigned jobs = util::ResolveJobs(options.check.jobs);
  unsigned effective_jobs = jobs;
  if (jobs > 1 && dirty.size() > 1) {
    std::unique_ptr<util::ThreadPool> owned_pool;
    util::ThreadPool* pool = options.check.pool;
    checker::CheckOptions check = options.check;
    if (pool == nullptr) {
      owned_pool = std::make_unique<util::ThreadPool>(jobs);
      pool = owned_pool.get();
      check.pool = pool;
      if (auto* t = telemetry::Active()) {
        ++t->parallel.pools_created;
        t->parallel.workers_spawned += pool->jobs() - 1;
      }
    }
    effective_jobs = static_cast<unsigned>(pool->jobs());
    pool->ParallelFor(dirty.size(), [&](std::size_t d) {
      slots[dirty[d]].result = check_group(dirty[d], check);
    });
    if (auto* t = telemetry::Active()) {
      t->parallel.group_tasks += dirty.size();
      if (owned_pool != nullptr) {
        const util::ThreadPool::Stats stats = pool->stats();
        t->parallel.tasks_run += stats.tasks_run;
        t->parallel.tasks_stolen += stats.tasks_stolen;
      }
    }
  } else {
    if (options.check.pool != nullptr) {
      effective_jobs = static_cast<unsigned>(options.check.pool->jobs());
    }
    for (std::size_t index : dirty) {
      slots[index].result = check_group(index, options.check);
    }
  }

  // Merge in group order — byte-identical to the serial full check.
  // Seconds stay the per-group sum even after a parallel fan-out (see
  // the determinism note in the header).
  for (const Slot& slot : slots) {
    core::MergeGroupResult(report, checker::CheckResult(slot.result));
  }
  core::FinalizeReport(report);

  RegistryCheckOutcome out;
  out.response = core::MakeCheckResponse(request.deployment, std::move(report));
  out.groups_total = groups.size();
  out.groups_recomputed = dirty.size();
  out.groups_reused = groups.size() - dirty.size();

  out.record.cache_version = version;
  out.record.verdict =
      out.response.report.violations.empty() ? "clean" : "violations";
  out.record.exit_code = out.response.exit_code;
  out.record.groups_total = groups.size();
  out.record.groups_recomputed = dirty.size();
  for (Slot& slot : slots) {
    if (!Retainable(slot.result, effective_jobs)) continue;
    out.record.groups.push_back(
        {std::move(slot.key), std::move(slot.result)});
  }

  if (auto* t = telemetry::Active()) {
    t->registry.groups_total += groups.size();
    t->registry.groups_reused += out.groups_reused;
    t->registry.groups_recomputed += out.groups_recomputed;
    if (out.groups_reused > 0) {
      ++t->registry.checks_delta;
    } else {
      ++t->registry.checks_full;
    }
  }
  return out;
}

}  // namespace iotsan::registry
