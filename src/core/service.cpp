#include "core/service.hpp"

#include <cstdio>

#include "cache/result_cache.hpp"
#include "dsl/parser.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace iotsan::core {

namespace {

/// printf into a growing std::string — the renderers must reproduce the
/// CLI's historical printf formatting byte for byte.
template <typename... Args>
void Appendf(std::string& out, const char* format, Args... args) {
  char buffer[512];
  const int n = std::snprintf(buffer, sizeof(buffer), format, args...);
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buffer)) {
    out.append(buffer, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), format, args...);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

void ApplyCommonCheckOptions(checker::CheckOptions& check,
                             const RequestOptions& options,
                             const ServiceEnv& env) {
  check.jobs = options.jobs;
  check.pool = env.pool;
  check.reverify_bitstate = options.reverify_bitstate;
  check.state_compression = options.state_compression;
  if (options.bitstate) {
    check.store = checker::StoreKind::kBitstate;
    if (options.bitstate_bits_pow > 0) {
      check.bitstate_bits = std::size_t{1} << options.bitstate_bits_pow;
    }
  }
  check.time_budget_seconds = options.deadline_seconds;
  check.interrupt = env.interrupt;
  check.request_id = env.request_id;
}

}  // namespace

SanitizerOptions MakeCheckOptions(const RequestOptions& options,
                                  const ServiceEnv& env) {
  SanitizerOptions out;
  out.check.max_events = options.events > 0 ? options.events : 3;
  out.check.model_failures = options.failures;
  out.check.stop_at_first_violation = options.first;
  out.use_dependency_analysis = !options.mono;
  out.model.dynamic_discovery = options.allow_discovery;
  ApplyCommonCheckOptions(out.check, options, env);
  out.cache = env.cache;
  out.cache_holder = env.cache_holder;
  out.progress_every = env.progress_every;
  out.on_progress = env.on_progress;
  return out;
}

SanitizerReport RunCheckReport(const CheckRequest& request,
                               const ServiceEnv& env) {
  Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  SanitizerOptions options = MakeCheckOptions(request.options, env);
  options.extra_properties = request.extra_properties;
  return sanitizer.Check(options);
}

CheckResponse MakeCheckResponse(const config::Deployment& deployment,
                                SanitizerReport report) {
  CheckResponse response;
  response.report = std::move(report);
  response.text = RenderCheckReport(deployment, response.report);
  response.exit_code = CheckExitCode(response.report);
  return response;
}

CheckResponse RunCheck(const CheckRequest& request, const ServiceEnv& env) {
  return MakeCheckResponse(request.deployment, RunCheckReport(request, env));
}

json::Value CheckUnitToJson(const CheckUnit& unit) {
  json::Object doc;
  json::Array apps;
  for (std::size_t app : unit.group_apps) {
    apps.push_back(static_cast<std::int64_t>(app));
  }
  doc["groupApps"] = std::move(apps);
  return json::Value(std::move(doc));
}

CheckUnit CheckUnitFromJson(const json::Value& doc) {
  if (!doc.is_object()) throw Error("a unit must be a JSON object");
  CheckUnit unit;
  for (const auto& [key, value] : doc.AsObject()) {
    try {
      if (key == "groupApps") {
        if (!value.is_array() || value.AsArray().empty()) {
          throw Error("must be a non-empty array of app indices");
        }
        for (const json::Value& app : value.AsArray()) {
          unit.group_apps.push_back(app.AsInteger<std::size_t>(0, 1 << 20));
        }
      } else {
        throw Error("is not a unit key");
      }
    } catch (const Error& e) {
      throw Error("unit \"" + key + "\" " + e.what());
    }
  }
  if (unit.group_apps.empty()) throw Error("a unit needs \"groupApps\"");
  return unit;
}

std::vector<checker::CheckResult> RunCheckUnits(const CheckRequest& request,
                                                const ServiceEnv& env) {
  telemetry::ScopedSpan span("pipeline");
  span.Attr("system", request.deployment.name);
  span.Attr("units", static_cast<std::int64_t>(request.units.size()));
  if (!env.request_id.empty()) span.Attr("request_id", env.request_id);
  std::vector<std::vector<std::size_t>> groups;
  for (const CheckUnit& unit : request.units) {
    for (std::size_t index : unit.group_apps) {
      if (index >= request.deployment.apps.size()) {
        throw Error("check unit: app index " + std::to_string(index) +
                    " out of range (deployment has " +
                    std::to_string(request.deployment.apps.size()) +
                    " apps)");
      }
    }
    groups.push_back(unit.group_apps);
  }
  Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  SanitizerOptions options = MakeCheckOptions(request.options, env);
  options.extra_properties = request.extra_properties;
  return sanitizer.CheckGroups(groups, options,
                               sanitizer.AnalyzeGroupApps(groups));
}

std::string RenderCheckHeader(const config::Deployment& deployment,
                              const SanitizerReport& report) {
  std::string out;
  Appendf(out, "system: %s (%zu devices, %zu apps)\n",
          deployment.name.c_str(), deployment.devices.size(),
          deployment.apps.size());
  for (const std::string& rejected : report.rejected_apps) {
    Appendf(out, "REJECTED: %s\n", rejected.c_str());
  }
  Appendf(out,
          "dependency analysis: %d handlers -> %d related sets "
          "(scale ratio %.1f)\n",
          report.scale.original_size, report.related_set_count,
          report.scale.ratio);
  Appendf(out, "explored %llu states (%llu matched) in %.3fs%s\n",
          static_cast<unsigned long long>(report.states_explored),
          static_cast<unsigned long long>(report.states_matched),
          report.seconds, report.completed ? "" : " (budget hit)");
  return out;
}

std::string RenderSearchStats(const SanitizerReport& report, bool bitstate) {
  std::string out;
  Appendf(out, "\n-- search stats --\n");
  const double considered =
      static_cast<double>(report.states_explored + report.states_matched);
  Appendf(out, "states: %llu explored, %llu matched (%.1f%% pruned)\n",
          static_cast<unsigned long long>(report.states_explored),
          static_cast<unsigned long long>(report.states_matched),
          considered > 0 ? 100.0 * static_cast<double>(report.states_matched) /
                               considered
                         : 0.0);
  Appendf(out, "transitions: %llu, cascade drains: %llu\n",
          static_cast<unsigned long long>(report.transitions),
          static_cast<unsigned long long>(report.cascade_drains));
  if (!report.depth_histogram.empty()) {
    Appendf(out, "states by depth:");
    for (std::uint64_t count : report.depth_histogram) {
      Appendf(out, " %llu", static_cast<unsigned long long>(count));
    }
    Appendf(out, "\n");
  }
  Appendf(out,
          "store: %s, peak %s, fill ratio %.4f, est. omission "
          "probability %.3g\n",
          bitstate ? "bitstate" : "exhaustive",
          HumanBytes(report.store_memory_bytes).c_str(),
          report.store_fill_ratio, report.est_omission_probability);
  return out;
}

std::string RenderViolations(const SanitizerReport& report) {
  std::string out;
  for (const checker::Violation& v : report.violations) {
    // Appended as C strings, as "%s" would: a counter-example overflows
    // Appendf's buffer, which would format it twice.
    out += checker::FormatViolation(v).c_str();
    out += '\n';
  }
  return out;
}

std::string RenderResultLine(const SanitizerReport& report) {
  std::string out;
  if (report.violations.empty()) {
    Appendf(out, "RESULT: no safety violations found\n");
  } else {
    Appendf(out, "RESULT: %zu violated propert%s\n", report.violations.size(),
            report.violations.size() == 1 ? "y" : "ies");
  }
  return out;
}

std::string RenderCheckReport(const config::Deployment& deployment,
                              const SanitizerReport& report) {
  return RenderCheckHeader(deployment, report) + "\n" +
         RenderViolations(report) + RenderResultLine(report);
}

json::Value CheckReportToJson(const config::Deployment& deployment,
                              const SanitizerReport& report) {
  json::Object doc;
  doc["system"] = deployment.name;
  doc["devices"] = static_cast<std::int64_t>(deployment.devices.size());
  doc["apps"] = static_cast<std::int64_t>(deployment.apps.size());
  doc["verdict"] = report.violations.empty() ? "clean" : "violations";
  json::Array rejected;
  for (const std::string& r : report.rejected_apps) rejected.push_back(r);
  doc["rejected_apps"] = std::move(rejected);
  doc["related_sets"] = report.related_set_count;
  doc["handlers"] = report.scale.original_size;
  doc["scale_ratio"] = report.scale.ratio;
  doc["states_explored"] = static_cast<std::int64_t>(report.states_explored);
  doc["states_matched"] = static_cast<std::int64_t>(report.states_matched);
  doc["transitions"] = static_cast<std::int64_t>(report.transitions);
  doc["cascade_drains"] = static_cast<std::int64_t>(report.cascade_drains);
  doc["seconds"] = report.seconds;
  doc["completed"] = report.completed;
  doc["store_fill_ratio"] = report.store_fill_ratio;
  doc["est_omission_probability"] = report.est_omission_probability;
  doc["store_memory_bytes"] =
      static_cast<std::int64_t>(report.store_memory_bytes);
  json::Array violations;
  for (const checker::Violation& v : report.violations) {
    violations.push_back(checker::ViolationToJson(v));
  }
  doc["violations"] = std::move(violations);
  return json::Value(std::move(doc));
}

attrib::AttributionOptions MakeAttributionOptions(
    const RequestOptions& options, const ServiceEnv& env) {
  attrib::AttributionOptions out;
  out.enumeration.max_configs = 24;
  out.check.max_events = options.events > 0 ? options.events : 2;
  out.allow_dynamic_discovery = options.allow_discovery;
  ApplyCommonCheckOptions(out.check, options, env);
  out.cache = env.cache;
  return out;
}

AttributeResponse RunAttribute(const AttributeRequest& request,
                               const ServiceEnv& env) {
  attrib::AttributionOptions options =
      MakeAttributionOptions(request.options, env);
  AttributeResponse response;
  response.result =
      attrib::AttributeApp(request.app_source, request.deployment, options);
  response.app_name = dsl::ParseApp(request.app_source).name;
  response.text = RenderAttributionReport(response.app_name, response.result);
  response.exit_code =
      response.result.verdict == attrib::Verdict::kClean ? 0 : 1;
  return response;
}

std::string RenderAttributionReport(
    const std::string& app_name, const attrib::AttributionResult& result) {
  std::string out;
  Appendf(out, "%s\n", attrib::FormatAttribution(app_name, result).c_str());
  if (!result.safe_configs.empty()) {
    Appendf(out, "safe configurations found: %zu\n",
            result.safe_configs.size());
  }
  return out;
}

json::Value AttributionToJson(const std::string& app_name,
                              const attrib::AttributionResult& result) {
  json::Object doc;
  doc["app"] = app_name;
  doc["verdict"] = std::string(attrib::VerdictName(result.verdict));
  doc["phase1_ratio"] = result.phase1_ratio;
  doc["phase2_ratio"] = result.phase2_ratio;
  doc["phase1_configs"] = result.phase1_configs;
  doc["phase2_configs"] = result.phase2_configs;
  json::Array violated;
  for (const std::string& id : result.violated_properties) {
    violated.push_back(id);
  }
  doc["violated_properties"] = std::move(violated);
  json::Array evidence;
  for (const checker::Violation& v : result.evidence) {
    evidence.push_back(checker::ViolationToJson(v));
  }
  doc["evidence"] = std::move(evidence);
  doc["safe_configs"] = static_cast<std::int64_t>(result.safe_configs.size());
  return json::Value(std::move(doc));
}

std::string HumanBytes(std::uint64_t bytes) {
  char buf[48];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1u << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace iotsan::core
