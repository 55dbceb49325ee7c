#include "registry/delta.hpp"

#include <map>
#include <string_view>

#include "cache/result_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"

namespace iotsan::registry {

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

  // Re-run only the dirty + added groups, through the group dispatch
  // Sanitizer::Check uses (telemetry and progress included; progress
  // counts the groups actually running).
  std::vector<std::vector<std::size_t>> dirty_groups;
  for (std::size_t index : dirty) dirty_groups.push_back(groups[index]);
  std::vector<checker::CheckResult> fresh =
      sanitizer.CheckGroups(dirty_groups, options, &analyses);
  for (std::size_t d = 0; d < dirty.size(); ++d) {
    slots[dirty[d]].result = std::move(fresh[d]);
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
  // The next delta replays a retained result, so it keeps only what the
  // result cache would memoize.
  for (Slot& slot : slots) {
    if (!cache::Replayable(slot.result)) continue;
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
