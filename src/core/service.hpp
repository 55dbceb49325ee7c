// Shared check/attribute entry point for every front end.
//
// The CLI (tools/iotsan_cli.cpp) and the verification service
// (src/server) assemble requests from different surfaces — flag tables
// vs. HTTP JSON bodies — but both funnel into the request structs here,
// and both render reports through the same functions, so the two can
// never drift: the server's `text` field is byte-identical to what
// `iotsan check` / `iotsan attribute` print for the same inputs (modulo
// the CLI-only --stats / telemetry / artifact insertions, which are
// composed around these pieces, not inside them).
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "attrib/output_analyzer.hpp"
#include "core/options.hpp"
#include "core/sanitizer.hpp"
#include "props/property.hpp"
#include "util/json.hpp"

namespace iotsan::util {
class ThreadPool;
}  // namespace iotsan::util

namespace iotsan::core {

/// Execution environment shared across requests (none of it owned):
/// the result cache and thread pool a resident server keeps warm, plus
/// an optional interrupt flag (signal handler / shutdown) polled by the
/// search between cascade drains.
struct ServiceEnv {
  cache::ResultCache* cache = nullptr;
  util::ThreadPool* pool = nullptr;
  const std::atomic<bool>* interrupt = nullptr;
  /// The check's progress stream (SanitizerOptions::on_progress): the
  /// CLI prints it under --progress-every, and the server feeds its
  /// in-flight table and SSE events with it.
  std::uint64_t progress_every = 0;
  telemetry::ProgressCallback on_progress;
  /// Correlation id of the request this run serves ("" outside a
  /// server request).  The server copies the shared env per request and
  /// fills this in; it flows into CheckOptions::request_id from there.
  std::string request_id;
  /// Name the result cache holds this run's related sets under
  /// (SanitizerOptions::cache_holder); the fleet registry sets it.
  std::string cache_holder;
};

// ---- check -------------------------------------------------------------------

/// One cluster work unit (src/cluster): a related set of the request's
/// deployment, as the coordinator's PlanGroups planned it.
struct CheckUnit {
  /// App indices (into deployment.apps) of the set.
  std::vector<std::size_t> group_apps;
};

/// A unit's wire form inside a worker request's "units" list:
/// {"groupApps": [..]}.  FromJson throws iotsan::Error naming the bad
/// key.
json::Value CheckUnitToJson(const CheckUnit& unit);
CheckUnit CheckUnitFromJson(const json::Value& doc);

struct CheckRequest {
  config::Deployment deployment;
  /// App sources by definition name (overrides/extends the corpus).
  std::map<std::string, std::string> extra_sources;
  std::vector<props::Property> extra_properties;
  RequestOptions options;
  /// Non-empty on a cluster worker request: check exactly these units
  /// (RunCheckUnits) instead of the whole deployment.
  std::vector<CheckUnit> units;
};

struct CheckResponse {
  SanitizerReport report;
  /// Exactly the text `iotsan check` prints by default (header +
  /// verdict, no --stats/telemetry/artifact lines).
  std::string text;
  int exit_code = 0;  // 0 = clean, 1 = violations found
};

/// Builds the SanitizerOptions the CLI would build from these request
/// options (exposed so callers can tweak before running).
SanitizerOptions MakeCheckOptions(const RequestOptions& options,
                                  const ServiceEnv& env);

/// Runs the full pipeline: the one code path behind `iotsan check` and
/// `POST /v1/check`.
CheckResponse RunCheck(const CheckRequest& request,
                       const ServiceEnv& env = {});

/// RunCheck without the rendering, for a caller that renders the report
/// itself (the CLI interleaves --stats and artifacts with it).
SanitizerReport RunCheckReport(const CheckRequest& request,
                               const ServiceEnv& env = {});

/// The response for a finished report: its default text and exit code.
CheckResponse MakeCheckResponse(const config::Deployment& deployment,
                                SanitizerReport report);

/// 0 when the report is clean, 1 when it has violations.
inline int CheckExitCode(const SanitizerReport& report) {
  return report.violations.empty() ? 0 : 1;
}

/// Runs a worker request's units, one result per unit in request
/// order: each app is analysed once for the whole batch, and the units
/// go through one Sanitizer::CheckGroups call, so they fan out over
/// `env.pool` (a lone unit is searched on one lane unless it is `--mono`
/// or holds every app).  The coordinator — which planned the sets from
/// the same deployment — merges and renders the compact results through
/// the single-node steps, so a cluster run reproduces a single-node
/// report byte for byte.  Throws iotsan::Error on an out-of-range app
/// index.
std::vector<checker::CheckResult> RunCheckUnits(const CheckRequest& request,
                                                const ServiceEnv& env = {});

/// "system: ..." through the "explored ... in ...s" line (plus any
/// REJECTED lines) — everything `iotsan check` prints before the
/// optional --stats block.
std::string RenderCheckHeader(const config::Deployment& deployment,
                              const SanitizerReport& report);

/// The "-- search stats --" block printed under --stats (leading "\n"
/// included).
std::string RenderSearchStats(const SanitizerReport& report, bool bitstate);

/// One FormatViolation block per violation, each newline-terminated
/// (empty string when clean).
std::string RenderViolations(const SanitizerReport& report);

/// "RESULT: ..." line.
std::string RenderResultLine(const SanitizerReport& report);

/// Header + "\n" + violations + result line: the default CLI output.
std::string RenderCheckReport(const config::Deployment& deployment,
                              const SanitizerReport& report);

/// Structured form of the report for the JSON API: verdict, search and
/// store statistics, and the full violation objects
/// (checker::ViolationToJson).
json::Value CheckReportToJson(const config::Deployment& deployment,
                              const SanitizerReport& report);

// ---- attribute ---------------------------------------------------------------

struct AttributeRequest {
  /// SmartScript source of the app being vetted.
  std::string app_source;
  config::Deployment deployment;
  RequestOptions options;
};

struct AttributeResponse {
  attrib::AttributionResult result;
  /// App name parsed from the source.
  std::string app_name;
  /// Exactly the text `iotsan attribute` prints by default.
  std::string text;
  int exit_code = 0;  // 0 = clean, 1 = any other verdict
};

attrib::AttributionOptions MakeAttributionOptions(
    const RequestOptions& options, const ServiceEnv& env);

/// The one code path behind `iotsan attribute` and `POST /v1/attribute`.
AttributeResponse RunAttribute(const AttributeRequest& request,
                               const ServiceEnv& env = {});

/// FormatAttribution plus the safe-configurations line, each
/// newline-terminated.
std::string RenderAttributionReport(const std::string& app_name,
                                    const attrib::AttributionResult& result);

/// Structured form for the JSON API: verdict, ratios, violated
/// properties, evidence, safe configuration count.
json::Value AttributionToJson(const std::string& app_name,
                              const attrib::AttributionResult& result);

// ---- shared helpers ----------------------------------------------------------

/// "16.0 MiB" / "1.5 KiB" / "12 B" — shared by report rendering and the
/// cache maintenance command.
std::string HumanBytes(std::uint64_t bytes);

}  // namespace iotsan::core
