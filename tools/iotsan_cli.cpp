// iotsan command-line interface: the paper's envisioned service (§4
// "Our work in perspective") as a tool.
//
//   iotsan check <deployment.json> [flags]
//       Verify a deployment against the built-in safety properties plus
//       any user-defined ones.
//   iotsan attribute <app.smartscript|corpus-app-name> <deployment.json>
//       Vet a new app before installation (§9 Output Analyzer).
//   iotsan deps <deployment.json>
//       Print the dependency graph and related sets (§5).
//   iotsan promela <deployment.json> [--events N]
//       Emit the generated Promela model (§6/§8).
//   iotsan cache <stats|prune|clear> <DIR>
//       Inspect or maintain an incremental-analysis cache directory
//       (--cache-dir; see docs/caching.md).
//   iotsan top [--host A --port N] [--interval S] [--once]
//       Live terminal view of a running service's in-flight checks
//       (polls GET /v1/status; docs/observability.md).
//   iotsan fleet <list|put|get|rm|check> [id] [deployment.json]
//       Manage a serving fleet registry over /v1/deployments
//       (docs/fleet.md).
//   iotsan cluster check <deployment.json> --workers host:port,...
//       Coordinate one verification across remote iotsan workers
//       (docs/cluster.md).
//   iotsan apps
//       List the bundled corpus apps.
//   iotsan version | --version
//       Print the tool version and build information.
//   iotsan help
//       Full flag reference.
//
// Flags are declared once: request options in src/core/options.cpp, the
// CLI's own flags in src/cli/flags.cpp — the parser and the generated
// help text both read the merged table, so the two cannot drift.
// Telemetry flags (--stats, --trace-out, --progress-every) surface the
// src/telemetry observability layer: counters, per-phase spans, search
// progress, and bitstate-saturation diagnostics (see
// docs/observability.md).
//
// Deployment files use the JSON schema of config/deployment.hpp; app
// sources not in the bundled corpus can be given in the deployment under
// "appSources": {"Name": "path/to/app.smartscript"}.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attrib/output_analyzer.hpp"
#include "cache/result_cache.hpp"
#include "cli/flags.hpp"
#include "cluster/cluster.hpp"
#include "core/sanitizer.hpp"
#include "core/service.hpp"
#include "corpus/corpus.hpp"
#include "deps/dependency_graph.hpp"
#include "ir/analyzer.hpp"
#include "model/system_model.hpp"
#include "promela/emitter.hpp"
#include "props/loader.hpp"
#include "server/server.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/http_client.hpp"
#include "util/interrupt.hpp"
#include "util/log.hpp"

namespace {

using namespace iotsan;
using namespace iotsan::cli;

// ---- Telemetry session -------------------------------------------------------

/// Owns the registry and trace sink for one command and installs them as
/// the process-global telemetry targets; uninstalls on destruction even
/// when the command throws.
class TelemetrySession {
 public:
  /// `force_registry` installs the counter registry even without
  /// --stats (serve needs it live for /v1/metrics; check --metrics-out
  /// needs it to have histograms to export).
  explicit TelemetrySession(const CliFlags& flags, bool force_registry = false)
      : stats_(flags.stats) {
    if (flags.stats || !flags.trace_out.empty()) {
      sink_ = flags.trace_out.empty()
                  ? std::make_unique<telemetry::TraceSink>()
                  : std::make_unique<telemetry::TraceSink>(flags.trace_out);
      telemetry::SetActiveTrace(sink_.get());
    }
    if (flags.stats || force_registry) {
      telemetry::SetActive(&registry_);
      registry_installed_ = true;
    }
  }

  ~TelemetrySession() {
    telemetry::SetActive(nullptr);
    telemetry::SetActiveTrace(nullptr);
  }

  /// Per-phase durations plus every non-zero counter.  Call after the
  /// run, once all spans have closed.
  void PrintStats() const {
    if (!stats_) return;
    std::printf("\n-- telemetry --\n");
    if (sink_ != nullptr && !sink_->totals().empty()) {
      std::printf("%-24s %8s %14s\n", "phase", "spans", "total");
      for (const auto& [name, total] : sink_->totals()) {
        std::printf("%-24s %8llu %11.3fms\n", name.c_str(),
                    static_cast<unsigned long long>(total.count),
                    static_cast<double>(total.total_us) / 1000.0);
      }
    }
    std::printf("counters (non-zero):\n");
    for (const telemetry::Sample& sample : registry_.Snapshot()) {
      if (sample.value == 0) continue;
      std::printf("  %-32s %12llu\n", sample.name.c_str(),
                  static_cast<unsigned long long>(sample.value));
    }
  }

  /// The live registry, or null when none was installed.
  const telemetry::Registry* registry() const {
    return registry_installed_ ? &registry_ : nullptr;
  }

 private:
  bool stats_;
  bool registry_installed_ = false;
  telemetry::Registry registry_;
  std::unique_ptr<telemetry::TraceSink> sink_;
};

/// `--metrics-out FILE`: the one-shot equivalent of scraping
/// GET /v1/metrics?format=prometheus after the run.
void WriteMetricsOut(const std::string& path,
                     const TelemetrySession& session) {
  if (path.empty()) return;
  const telemetry::Registry* registry = session.registry();
  if (registry == nullptr) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write metrics file: " + path);
  out << telemetry::RenderPrometheus(*registry);
}

// ---- Shared loading ----------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Loads the deployment plus any side-loaded app sources.
struct LoadedSystem {
  config::Deployment deployment;
  std::map<std::string, std::string> extra_sources;
};

LoadedSystem LoadSystem(const std::string& path) {
  LoadedSystem out;
  const json::Value doc = json::Parse(ReadFile(path));
  out.deployment = config::ParseDeployment(doc);
  if (doc.Has("appSources")) {
    for (const auto& [name, source_path] : doc.At("appSources").AsObject()) {
      out.extra_sources[name] = ReadFile(source_path.AsString());
    }
  }
  return out;
}

std::vector<ir::AnalyzedApp> AnalyzeDeploymentApps(
    const LoadedSystem& system) {
  std::vector<ir::AnalyzedApp> apps;
  for (const config::AppConfig& instance : system.deployment.apps) {
    std::string source;
    auto it = system.extra_sources.find(instance.app);
    if (it != system.extra_sources.end()) {
      source = it->second;
    } else if (const corpus::CorpusApp* app = corpus::FindApp(instance.app)) {
      source = app->source;
    } else {
      throw ConfigError("no source for app '" + instance.app + "'");
    }
    apps.push_back(ir::AnalyzeSource(source, instance.app));
  }
  return apps;
}

/// The execution environment for one CLI run: the optional result cache
/// and the SIGINT/SIGTERM flag the search polls so an interrupt still
/// renders partial results, writes artifacts, and flushes the trace.
struct CliEnv {
  core::ServiceEnv env;
  std::unique_ptr<cache::ResultCache> result_cache;
};

CliEnv MakeCliEnv(const CliFlags& flags) {
  CliEnv out;
  out.env.interrupt = &util::InstallInterruptHandlers();
  if (!flags.cache_dir.empty()) {
    cache::CacheConfig cache_config;
    cache_config.dir = flags.cache_dir;
    out.result_cache = std::make_unique<cache::ResultCache>(cache_config);
    out.env.cache = out.result_cache.get();
  }
  if (flags.progress_every > 0) {
    out.env.progress_every = flags.progress_every;
    out.env.on_progress = [](const telemetry::ProgressSnapshot& snapshot) {
      std::fprintf(stderr, "%s\n",
                   telemetry::FormatProgress(snapshot).c_str());
    };
  }
  return out;
}

// ---- Violation artifacts and replay ------------------------------------------

/// Writes one artifact bundle per violation into `dir` (created on
/// demand), named `<property_id>.json`.
void WriteArtifacts(const std::string& dir,
                    const std::vector<checker::Violation>& violations,
                    const checker::CheckOptions& check,
                    const config::Deployment& deployment) {
  if (dir.empty() || violations.empty()) return;
  std::filesystem::create_directories(dir);
  const std::string hash = config::DeploymentFingerprintHex(deployment);
  for (const checker::Violation& v : violations) {
    checker::ViolationArtifact artifact =
        checker::MakeArtifact(v, check, deployment.name, hash);
    const std::string path = dir + "/" + v.property_id + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw Error("cannot write artifact: " + path);
    out << checker::ToJson(artifact).Dump(2) << '\n';
    std::printf("artifact: %s\n", path.c_str());
  }
}

/// `iotsan check <deployment.json> --replay FILE`: rebuild the model the
/// artifact was recorded against (the manifest's app subset, one
/// monolithic model) and re-execute the recorded event permutation.
int RunReplay(const CliFlags& flags, const LoadedSystem& system) {
  const json::Value doc = json::Parse(ReadFile(flags.replay_path));
  const checker::ViolationArtifact artifact =
      checker::ArtifactFromJson(doc);

  // Restrict the deployment to the apps the artifact's model contained
  // (a related set is a subset of the installed apps).
  LoadedSystem restricted = system;
  restricted.deployment.apps.clear();
  for (const config::AppConfig& app : system.deployment.apps) {
    for (const std::string& label : artifact.manifest.model_apps) {
      if (app.label == label) {
        restricted.deployment.apps.push_back(app);
        break;
      }
    }
  }
  if (restricted.deployment.apps.size() !=
      artifact.manifest.model_apps.size()) {
    throw Error("replay: deployment does not contain all apps the "
                "artifact was recorded against");
  }

  model::ModelOptions model_options;
  for (const checker::TraceStep& step : artifact.steps) {
    if (step.kind == "user_mode") model_options.user_mode_events = true;
  }
  model::SystemModel model(restricted.deployment,
                           AnalyzeDeploymentApps(restricted), model_options);
  if (!flags.properties_path.empty()) {
    std::vector<props::Property> all = props::BuiltinProperties();
    for (props::Property& p :
         props::LoadPropertiesJson(ReadFile(flags.properties_path))) {
      all.push_back(std::move(p));
    }
    model.SelectProperties(all);
  }

  checker::Checker checker(model);
  checker::ReplayResult result = checker.Replay(artifact);
  std::printf("replay: %s\n", result.message.c_str());
  std::printf("replay: %zu recorded step(s) re-executed in %.3fs\n",
              artifact.steps.size(), result.seconds);
  return result.reproduced ? 0 : 1;
}

// ---- Commands ----------------------------------------------------------------

int CmdCheck(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals = ParseFlags(kCmdCheck, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.size() != 1) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdCheck).c_str());
    return 2;
  }
  checker::ResetSaturationWarning();
  LoadedSystem system = LoadSystem(positionals[0]);
  if (!flags.replay_path.empty()) {
    TelemetrySession telemetry_session(flags);
    const int status = RunReplay(flags, system);
    telemetry_session.PrintStats();
    return status;
  }
  core::CheckRequest request;
  request.deployment = std::move(system.deployment);
  request.extra_sources = std::move(system.extra_sources);
  request.options = flags.request;
  if (!flags.properties_path.empty()) {
    request.extra_properties =
        props::LoadPropertiesJson(ReadFile(flags.properties_path));
  }
  CliEnv cli = MakeCliEnv(flags);

  TelemetrySession telemetry_session(
      flags, /*force_registry=*/!flags.metrics_out.empty());
  const core::SanitizerReport report = core::RunCheckReport(request, cli.env);
  std::fputs(core::RenderCheckHeader(request.deployment, report).c_str(),
             stdout);
  if (flags.stats) {
    std::fputs(
        core::RenderSearchStats(report, flags.request.bitstate).c_str(),
        stdout);
  }
  telemetry_session.PrintStats();

  std::printf("\n");
  std::fputs(core::RenderViolations(report).c_str(), stdout);
  if (!report.violations.empty()) {
    WriteArtifacts(flags.artifacts_dir, report.violations,
                   core::MakeCheckOptions(request.options, cli.env).check,
                   request.deployment);
  }
  std::fputs(core::RenderResultLine(report).c_str(), stdout);
  WriteMetricsOut(flags.metrics_out, telemetry_session);
  if (util::InterruptRequested()) {
    std::fprintf(stderr,
                 "interrupted by signal %d: partial results above\n",
                 util::InterruptSignal());
    return util::InterruptExitCode();
  }
  return core::CheckExitCode(report);
}

int CmdAttribute(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals =
      ParseFlags(kCmdAttribute, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.size() != 2) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdAttribute).c_str());
    return 2;
  }
  checker::ResetSaturationWarning();
  core::AttributeRequest request;
  if (const corpus::CorpusApp* app = corpus::FindApp(positionals[0])) {
    request.app_source = app->source;
  } else {
    request.app_source = ReadFile(positionals[0]);
  }
  LoadedSystem system = LoadSystem(positionals[1]);
  request.deployment = std::move(system.deployment);
  request.options = flags.request;
  CliEnv cli = MakeCliEnv(flags);

  TelemetrySession telemetry_session(flags);
  core::AttributeResponse response = core::RunAttribute(request, cli.env);
  std::fputs(response.text.c_str(), stdout);
  WriteArtifacts(flags.artifacts_dir, response.result.evidence,
                 core::MakeAttributionOptions(request.options, cli.env).check,
                 request.deployment);
  telemetry_session.PrintStats();
  if (util::InterruptRequested()) {
    std::fprintf(stderr,
                 "interrupted by signal %d: partial results above\n",
                 util::InterruptSignal());
    return util::InterruptExitCode();
  }
  return response.exit_code;
}

int CmdServe(const std::vector<std::string>& args) {
  CliFlags flags;
  flags.request.jobs = 0;  // serve default: size the pool to the hardware
  std::vector<std::string> positionals = ParseFlags(kCmdServe, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (!positionals.empty()) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdServe).c_str());
    return 2;
  }
  const std::atomic<bool>& interrupted = util::InstallInterruptHandlers();
  util::InstallRotateHandler();  // SIGHUP = reopen the access log

  // Structured-log surface: serve is the one command whose operator
  // output goes through util/log (the CLI commands keep their exact
  // stdout/stderr bytes).
  if (!flags.log_level.empty()) {
    util::LogLevel level = util::LogLevel::kWarn;
    if (!util::ParseLogLevel(flags.log_level, level)) {
      throw Error("unknown --log-level '" + flags.log_level +
                  "' (want debug, info, warn, error, or off)");
    }
    util::SetLogLevel(level);
  }
  if (flags.log_json) util::SetLogJson(true);

  // /v1/metrics serves the live registry, so serve always installs one
  // (--stats additionally prints it after the drain).
  TelemetrySession telemetry_session(flags, /*force_registry=*/true);

  server::ServerConfig config;
  config.host = flags.host;
  config.port = flags.port;
  config.jobs = flags.request.jobs;
  config.http_workers = flags.http_workers;
  config.cache_dir = flags.cache_dir;
  config.max_queue = static_cast<std::size_t>(flags.max_queue);
  config.request_deadline_seconds = flags.request.deadline_seconds;
  config.access_log_path = flags.access_log;
  config.registry_dir = flags.registry_dir;
  if (flags.coordinator) {
    if (flags.workers.empty()) {
      throw Error("serve: --coordinator needs --workers host:port,...");
    }
    config.coordinator = true;
    config.cluster.workers = cluster::ParseWorkerList(flags.workers);
    config.cluster.unit_deadline_seconds = flags.unit_deadline_seconds;
    config.cluster.branch_split =
        static_cast<unsigned>(flags.branch_split);
    config.cluster.swarm_lanes = static_cast<unsigned>(flags.swarm_lanes);
    config.cluster.allow_local_fallback = !flags.no_local_fallback;
  }

  server::Server server(config);
  server.Start();
  std::printf("iotsan serve: listening on http://%s:%d/ "
              "(%d http workers, deadline %ds)\n",
              config.host.c_str(), server.port(), config.http_workers,
              static_cast<int>(flags.request.deadline_seconds));
  if (config.coordinator) {
    std::printf("iotsan serve: coordinating %zu worker(s): %s\n",
                config.cluster.workers.size(), flags.workers.c_str());
  }
  if (!config.cache_dir.empty()) {
    std::printf("iotsan serve: result cache in %s\n",
                config.cache_dir.c_str());
  }
  if (!config.registry_dir.empty()) {
    std::printf("iotsan serve: fleet registry in %s\n",
                config.registry_dir.c_str());
  }
  std::fflush(stdout);

  while (!interrupted.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (util::TakeRotateRequest()) server.RotateAccessLog();
  }
  std::fprintf(stderr, "iotsan serve: signal %d received, draining\n",
               util::InterruptSignal());
  server.Stop();
  const server::Server::Stats stats = server.stats();
  std::printf("iotsan serve: drained (%llu connections, %llu requests, "
              "%llu shed)\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.shed_queue_full));
  telemetry_session.PrintStats();
  return 0;
}

// ---- HTTP client (iotsan top / iotsan fleet) ---------------------------------

// The blocking client itself lives in util/http_client (shared with the
// cluster coordinator): hostname resolution, connect/read timeouts, and
// a response-size cap, so a stalled server can no longer hang the CLI.
using HttpResult = util::HttpResponse;

HttpResult HttpCall(const std::string& host, int port,
                    const std::string& method, const std::string& path,
                    const std::string& body = "",
                    const std::vector<std::string>& headers = {}) {
  return util::HttpCall(host, port, method, path, body, headers);
}

// ---- iotsan top --------------------------------------------------------------

std::string HttpGetBody(const std::string& host, int port,
                        const std::string& path) {
  HttpResult result = HttpCall(host, port, "GET", path);
  if (result.status != 200) {
    throw Error("top: HTTP " + std::to_string(result.status) + " from " +
                path);
  }
  return std::move(result.body);
}

/// Renders one /v1/status document as the `iotsan top` frame.
std::string RenderStatusFrame(const json::Value& doc,
                              const std::string& endpoint) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "iotsan top — %s  status %s  up %.0fs\n", endpoint.c_str(),
                doc.At("status").AsString().c_str(),
                doc.At("uptime_seconds").AsNumber());
  out += line;
  const std::int64_t active = doc.Has("active_connections")
                                  ? doc.At("active_connections").AsInt()
                                  : 0;
  const std::int64_t queued =
      doc.Has("queue_depth") ? doc.At("queue_depth").AsInt() : 0;
  std::snprintf(line, sizeof line,
                "connections %lld active, %lld queued   peak rss %s\n\n",
                static_cast<long long>(active),
                static_cast<long long>(queued),
                core::HumanBytes(static_cast<std::uint64_t>(
                                     doc.At("peak_rss_bytes").AsInt()))
                    .c_str());
  out += line;
  const json::Array& inflight = doc.At("inflight").AsArray();
  if (inflight.empty()) {
    out += "(no verification requests in flight)\n";
    return out;
  }
  std::snprintf(line, sizeof line, "%-18s %-20s %8s %12s %10s %10s %9s\n",
                "REQUEST", "DEPLOYMENT", "GROUPS", "STATES", "STATES/S",
                "STORE", "ELAPSED");
  out += line;
  for (const json::Value& entry : inflight) {
    std::string groups =
        std::to_string(entry.At("groups_done").AsInt()) + "/" +
        std::to_string(entry.At("groups_total").AsInt());
    std::string elapsed;
    {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1fs",
                    entry.At("elapsed_seconds").AsNumber());
      elapsed = buf;
      const double deadline = entry.At("deadline_seconds").AsNumber();
      if (deadline > 0) {
        std::snprintf(buf, sizeof buf, "/%.0fs", deadline);
        elapsed += buf;
      }
    }
    std::snprintf(
        line, sizeof line, "%-18.18s %-20.20s %8s %12lld %10.0f %10s %9s\n",
        entry.At("request_id").AsString().c_str(),
        entry.At("deployment").AsString().c_str(), groups.c_str(),
        static_cast<long long>(entry.At("states_explored").AsInt()),
        entry.At("states_per_second").AsNumber(),
        core::HumanBytes(static_cast<std::uint64_t>(
                             entry.At("store_memory_bytes").AsInt()))
            .c_str(),
        elapsed.c_str());
    out += line;
  }
  return out;
}

int CmdTop(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals = ParseFlags(kCmdTop, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (!positionals.empty()) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdTop).c_str());
    return 2;
  }
  const std::string endpoint =
      "http://" + flags.host + ":" + std::to_string(flags.port);
  if (flags.once) {
    const json::Value doc =
        json::Parse(HttpGetBody(flags.host, flags.port, "/v1/status"));
    std::fputs(RenderStatusFrame(doc, endpoint).c_str(), stdout);
    return 0;
  }
  const std::atomic<bool>& interrupted = util::InstallInterruptHandlers();
  while (!interrupted.load(std::memory_order_relaxed)) {
    std::string frame;
    try {
      const json::Value doc =
          json::Parse(HttpGetBody(flags.host, flags.port, "/v1/status"));
      frame = RenderStatusFrame(doc, endpoint);
    } catch (const Error& e) {
      frame = "iotsan top — " + endpoint + "  unreachable: " + e.what() +
              "\n";
    }
    // Home the cursor and clear to the end of the screen — a repaint,
    // not a scroll.
    std::printf("\x1b[H\x1b[J%s", frame.c_str());
    std::fflush(stdout);
    for (int tick = 0; tick < flags.interval_seconds * 10 &&
                       !interrupted.load(std::memory_order_relaxed);
         ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}

// ---- iotsan fleet ------------------------------------------------------------

/// Prints the server's structured error ({"error": {code, message}})
/// and returns the command's failure status.
int FleetHttpError(const std::string& action, const HttpResult& result) {
  std::string message = result.body;
  try {
    const json::Value doc = json::Parse(result.body);
    message = doc.At("error").At("message").AsString();
  } catch (const Error&) {
    // Leave the raw body in place when it is not the structured shape.
  }
  std::fprintf(stderr, "fleet %s: HTTP %d: %s\n", action.c_str(),
               result.status, message.c_str());
  return 1;
}

/// Builds the iotsan.request/1 envelope a PUT carries: the deployment
/// document with its side-loaded app sources inlined as text (the
/// server never reads files).
std::string FleetPutBody(const std::string& path) {
  LoadedSystem system = LoadSystem(path);
  json::Object envelope;
  envelope["schema"] = server::kRequestSchema;
  envelope["deployment"] = config::DeploymentToJson(system.deployment);
  if (!system.extra_sources.empty()) {
    json::Object sources;
    for (const auto& [name, source] : system.extra_sources) {
      sources[name] = source;
    }
    envelope["appSources"] = std::move(sources);
  }
  return json::Value(std::move(envelope)).Dump(0);
}

int CmdFleet(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals = ParseFlags(kCmdFleet, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.empty()) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdFleet).c_str());
    return 2;
  }
  const std::string action = positionals[0];

  if (action == "list") {
    if (positionals.size() != 1) {
      std::fprintf(stderr, "usage: iotsan fleet list\n");
      return 2;
    }
    HttpResult result =
        HttpCall(flags.host, flags.port, "GET", "/v1/deployments");
    if (result.status != 200) return FleetHttpError(action, result);
    const json::Value doc = json::Parse(result.body);
    std::printf("%-24s %8s %8s %-12s %14s %9s\n", "DEPLOYMENT", "REV",
                "CHECKED", "VERDICT", "GROUPS(RERUN)", "SECONDS");
    for (const json::Value& row : doc.At("deployments").AsArray()) {
      const std::string groups =
          std::to_string(row.At("groups_recomputed").AsInt()) + "/" +
          std::to_string(row.At("groups_total").AsInt());
      std::printf("%-24.24s %8lld %8lld %-12s %14s %9.3f\n",
                  row.At("id").AsString().c_str(),
                  static_cast<long long>(row.At("revision").AsInt()),
                  static_cast<long long>(row.At("checked_revision").AsInt()),
                  row.At("verdict").AsString().c_str(), groups.c_str(),
                  row.At("check_seconds").AsNumber());
    }
    return 0;
  }

  if (action == "put") {
    if (positionals.size() != 3) {
      std::fprintf(stderr, "usage: iotsan fleet put <id> <deployment.json>\n");
      return 2;
    }
    HttpResult result =
        HttpCall(flags.host, flags.port, "PUT",
                 "/v1/deployments/" + positionals[1],
                 FleetPutBody(positionals[2]));
    if (result.status != 200 && result.status != 201) {
      return FleetHttpError(action, result);
    }
    const json::Value doc = json::Parse(result.body);
    std::printf("fleet put: %s %s at revision %lld\n",
                positionals[1].c_str(),
                result.status == 201 ? "created" : "updated",
                static_cast<long long>(doc.At("revision").AsInt()));
    return 0;
  }

  if (action == "get") {
    if (positionals.size() != 2) {
      std::fprintf(stderr, "usage: iotsan fleet get <id>\n");
      return 2;
    }
    HttpResult result = HttpCall(flags.host, flags.port, "GET",
                                 "/v1/deployments/" + positionals[1]);
    if (result.status != 200) return FleetHttpError(action, result);
    std::fputs(result.body.c_str(), stdout);
    return 0;
  }

  if (action == "rm") {
    if (positionals.size() != 2) {
      std::fprintf(stderr, "usage: iotsan fleet rm <id>\n");
      return 2;
    }
    HttpResult result = HttpCall(flags.host, flags.port, "DELETE",
                                 "/v1/deployments/" + positionals[1]);
    if (result.status != 200) return FleetHttpError(action, result);
    std::printf("fleet rm: %s deleted\n", positionals[1].c_str());
    return 0;
  }

  if (action == "check") {
    if (positionals.size() != 2) {
      std::fprintf(stderr,
                   "usage: iotsan fleet check <id> [--if-match REVISION]\n");
      return 2;
    }
    std::vector<std::string> headers;
    if (!flags.if_match.empty()) {
      headers.push_back("If-Match: \"" + flags.if_match + "\"");
    }
    // Delta re-verification is idempotent, so transient transport
    // failures (refused connection while the server restarts, a broken
    // pipe mid-drain) are retried with jittered exponential backoff
    // instead of failing the whole invocation.
    util::RetryPolicy policy;
    HttpResult result = util::HttpCallWithRetry(
        policy,
        [&] {
          return HttpCall(flags.host, flags.port, "POST",
                          "/v1/deployments/" + positionals[1] + "/check",
                          "{}", headers);
        },
        [](int attempt, int delay_ms, const std::string& error) {
          std::fprintf(stderr,
                       "fleet check: attempt %d failed (%s), retrying in "
                       "%dms\n",
                       attempt, error.c_str(), delay_ms);
        });
    if (result.status != 200) return FleetHttpError(action, result);
    const json::Value doc = json::Parse(result.body);
    std::fputs(doc.At("text").AsString().c_str(), stdout);
    const json::Value& delta = doc.At("delta");
    std::printf("delta: %lld/%lld group(s) re-verified (%lld reused) "
                "in %.3fs at revision %lld\n",
                static_cast<long long>(delta.At("groups_recomputed").AsInt()),
                static_cast<long long>(delta.At("groups_total").AsInt()),
                static_cast<long long>(delta.At("groups_reused").AsInt()),
                doc.At("check_seconds").AsNumber(),
                static_cast<long long>(doc.At("revision").AsInt()));
    return static_cast<int>(doc.At("exit_code").AsInt());
  }

  std::fprintf(stderr,
               "unknown fleet action: %s (want list, put, get, rm, or "
               "check)\n",
               action.c_str());
  return 2;
}

// ---- iotsan cluster ----------------------------------------------------------

/// `iotsan cluster check <deployment.json> --workers host:port,...`:
/// run one verification as an in-process coordinator over a remote
/// worker fleet.  stdout is byte-identical to `iotsan check` on the
/// same deployment (docs/cluster.md); the dispatch summary goes to
/// stderr so output comparison stays trivial.
int CmdCluster(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals =
      ParseFlags(kCmdCluster, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.size() != 2 || positionals[0] != "check") {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdCluster).c_str());
    return 2;
  }
  if (flags.workers.empty()) {
    throw Error("cluster check: --workers host:port,... is required");
  }
  checker::ResetSaturationWarning();
  LoadedSystem system = LoadSystem(positionals[1]);
  core::CheckRequest request;
  request.deployment = std::move(system.deployment);
  request.extra_sources = std::move(system.extra_sources);
  request.options = flags.request;
  if (!flags.properties_path.empty()) {
    request.extra_properties =
        props::LoadPropertiesJson(ReadFile(flags.properties_path));
  }
  CliEnv cli = MakeCliEnv(flags);
  TelemetrySession telemetry_session(flags);

  cluster::ClusterOptions options;
  options.workers = cluster::ParseWorkerList(flags.workers);
  options.unit_deadline_seconds = flags.unit_deadline_seconds;
  options.branch_split = static_cast<unsigned>(flags.branch_split);
  options.swarm_lanes = static_cast<unsigned>(flags.swarm_lanes);
  options.allow_local_fallback = !flags.no_local_fallback;
  cluster::Coordinator coordinator(std::move(options));
  cluster::ClusterOutcome outcome = coordinator.Check(request, cli.env);
  std::fputs(outcome.response.text.c_str(), stdout);
  std::fprintf(stderr,
               "cluster: %zu unit(s): %zu remote, %zu local, %zu "
               "re-dispatched%s\n",
               outcome.units_total, outcome.units_remote,
               outcome.units_local, outcome.units_redispatched,
               outcome.degraded_local ? " (degraded to local)" : "");
  telemetry_session.PrintStats();
  if (util::InterruptRequested()) {
    std::fprintf(stderr,
                 "interrupted by signal %d: partial results above\n",
                 util::InterruptSignal());
    return util::InterruptExitCode();
  }
  return outcome.response.exit_code;
}

int CmdDeps(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals = ParseFlags(kCmdDeps, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.size() != 1) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdDeps).c_str());
    return 2;
  }
  TelemetrySession telemetry_session(flags);
  LoadedSystem system = LoadSystem(positionals[0]);
  std::vector<ir::AnalyzedApp> apps = AnalyzeDeploymentApps(system);
  deps::DependencyGraph graph = deps::DependencyGraph::Build(apps);
  std::printf("%s", graph.ToDot(apps).c_str());
  std::printf("\nrelated sets:\n");
  const std::vector<deps::RelatedSet> sets = deps::ComputeRelatedSets(graph);
  for (const deps::RelatedSet& set : sets) {
    std::printf("  {");
    for (std::size_t i = 0; i < set.vertices.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", set.vertices[i]);
    }
    std::printf("}  apps:");
    for (int app : set.apps) {
      std::printf(" %s;", apps[static_cast<std::size_t>(app)].app.name.c_str());
    }
    std::printf("\n");
  }
  deps::ScaleStats stats = deps::ComputeScaleStats(apps, sets);
  std::printf("scale: %d handlers -> %d (ratio %.1f)\n",
              stats.original_size, stats.new_size, stats.ratio);
  telemetry_session.PrintStats();
  return 0;
}

int CmdPromela(const std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> positionals = ParseFlags(kCmdPromela, args, flags);
  if (flags.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (positionals.size() != 1) {
    std::fprintf(stderr, "%s\n", UsageFor(kCmdPromela).c_str());
    return 2;
  }
  LoadedSystem system = LoadSystem(positionals[0]);
  promela::EmitOptions options;
  if (flags.request.events > 0) options.max_events = flags.request.events;
  std::vector<ir::AnalyzedApp> apps = AnalyzeDeploymentApps(system);
  model::SystemModel model(system.deployment, std::move(apps));
  std::printf("%s", promela::EmitPromela(model, options).c_str());
  return 0;
}

int CmdCache(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: iotsan cache <stats|prune|clear> <DIR>\n");
    return 2;
  }
  const std::string& action = args[0];
  const std::string& dir = args[1];
  const std::string version = build::GetBuildInfo().version;
  cache::DirStats stats;
  if (action == "stats") {
    stats = cache::ResultCache::Scan(dir, version);
  } else if (action == "prune") {
    stats = cache::ResultCache::Prune(dir, version);
  } else if (action == "clear") {
    stats = cache::ResultCache::Clear(dir);
  } else {
    std::fprintf(stderr,
                 "unknown cache action: %s (want stats, prune, or clear)\n",
                 action.c_str());
    return 2;
  }
  std::printf("cache %s (version %s, schema %s)\n", dir.c_str(),
              version.c_str(), cache::kCacheSchema);
  std::printf("  entries: %llu current (%s), %llu stale, %llu corrupt\n",
              static_cast<unsigned long long>(stats.entries),
              core::HumanBytes(stats.bytes).c_str(),
              static_cast<unsigned long long>(stats.stale),
              static_cast<unsigned long long>(stats.corrupt));
  if (action != "stats") {
    std::printf("  removed: %llu file(s)\n",
                static_cast<unsigned long long>(stats.removed));
  }
  return 0;
}

int CmdApps() {
  std::printf("%-32s %s\n", "name", "kind");
  for (const corpus::CorpusApp& app : corpus::AllApps()) {
    const char* kind = "market";
    if (app.kind == corpus::AppKind::kMalicious) kind = "malicious";
    if (app.kind == corpus::AppKind::kUnsupported) kind = "unsupported";
    std::printf("%-32s %s\n", app.name.c_str(), kind);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "iotsan — IoT safety sanitizer (IotSan, CoNEXT '18)\n"
                 "commands: check, attribute, deps, promela, serve, top, "
                 "fleet, cluster, cache, apps, help\n"
                 "run 'iotsan help' for the full flag reference\n");
    return 2;
  }
  const std::string command = args[0];
  args.erase(args.begin());
  try {
    if (command == "check") return CmdCheck(args);
    if (command == "attribute") return CmdAttribute(args);
    if (command == "deps") return CmdDeps(args);
    if (command == "promela") return CmdPromela(args);
    if (command == "serve") return CmdServe(args);
    if (command == "top") return CmdTop(args);
    if (command == "fleet") return CmdFleet(args);
    if (command == "cluster") return CmdCluster(args);
    if (command == "cache") return CmdCache(args);
    if (command == "apps") return CmdApps();
    if (command == "version" || command == "--version") {
      std::printf("%s\n", build::VersionLine().c_str());
      return 0;
    }
    if (command == "help" || command == "--help" || command == "-h") {
      PrintHelp(stdout);
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s (see 'iotsan help')\n",
                 command.c_str());
    return 2;
  } catch (const iotsan::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
