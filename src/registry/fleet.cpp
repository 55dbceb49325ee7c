#include "registry/fleet.hpp"

#include <chrono>

#include "cache/result_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace iotsan::registry {

std::vector<Fleet::Status> Fleet::List() {
  std::vector<Status> out;
  for (const std::string& id : store_.List()) {
    auto deployment = store_.Get(id);
    if (!deployment) continue;  // corrupt or deleted between list and get
    Status status;
    status.id = id;
    status.revision = deployment->revision;
    if (auto record = store_.GetRecord(id)) {
      status.checked_revision = record->revision;
      status.verdict = record->verdict;
      status.groups_total = record->groups_total;
      status.groups_recomputed = record->groups_recomputed;
      status.check_seconds = record->check_seconds;
    }
    out.push_back(std::move(status));
  }
  return out;
}

bool Fleet::Remove(const std::string& id, const core::ServiceEnv& env) {
  if (!store_.Remove(id)) return false;
  if (env.cache != nullptr) env.cache->Release(id);
  return true;
}

std::optional<Fleet::CheckOutcome> Fleet::Check(
    const std::string& id, std::optional<std::uint64_t> if_match,
    const core::RequestOptions& options, const core::ServiceEnv& env) {
  auto deployment = store_.Get(id);
  if (!deployment) return std::nullopt;
  if (if_match && *if_match != deployment->revision) {
    if (auto* t = telemetry::Active()) ++t->registry.revision_conflicts;
    throw RevisionConflict(*if_match, deployment->revision);
  }

  // Per-tenant attribution: the span carries the deployment id next to
  // the request id, so `iotsan_trace summary` can split fleet traffic.
  telemetry::ScopedSpan span("registry_check");
  span.Attr("deployment", id);
  span.Attr("revision", static_cast<std::int64_t>(deployment->revision));
  if (!env.request_id.empty()) span.Attr("request_id", env.request_id);

  core::CheckRequest request;
  request.deployment = std::move(deployment->deployment);
  request.extra_sources = std::move(deployment->app_sources);
  request.extra_properties = deployment->ExtraProperties();
  request.options = options;

  core::ServiceEnv held_env = env;
  held_env.cache_holder = id;
  const auto wall_start = std::chrono::steady_clock::now();
  CheckOutcome out;
  out.response = core::RunCheck(request, held_env);
  out.check_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  out.revision = deployment->revision;
  out.groups_total = out.response.report.groups_planned;
  out.groups_recomputed = out.response.report.groups_searched;
  out.groups_reused = out.groups_total - out.groups_recomputed;
  span.Attr("groups_reused", static_cast<std::int64_t>(out.groups_reused));
  span.Attr("groups_recomputed",
            static_cast<std::int64_t>(out.groups_recomputed));

  CheckRecord record;
  record.revision = out.revision;
  record.verdict =
      out.response.report.violations.empty() ? "clean" : "violations";
  record.exit_code = out.response.exit_code;
  record.check_seconds = out.check_seconds;
  record.groups_total = out.groups_total;
  record.groups_recomputed = out.groups_recomputed;
  store_.PutRecord(id, record);

  if (auto* t = telemetry::Active()) {
    t->registry.groups_total += out.groups_total;
    t->registry.groups_reused += out.groups_reused;
    t->registry.groups_recomputed += out.groups_recomputed;
    const auto us = static_cast<std::uint64_t>(out.check_seconds * 1e6);
    if (out.groups_reused > 0) {
      ++t->registry.checks_delta;
      t->registry_hist.delta_check_duration_us.Record(us);
    } else {
      ++t->registry.checks_full;
      t->registry_hist.full_check_duration_us.Record(us);
    }
  }
  return out;
}

}  // namespace iotsan::registry
