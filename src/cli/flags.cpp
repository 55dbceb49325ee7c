#include "cli/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>
#include <type_traits>

#include "util/error.hpp"

namespace iotsan::cli {

namespace {

// The CLI's own flags; the request-option flags come from core/options.
constexpr FlagSpec kCliFlags[] = {
    {"--properties", "FILE", kCmdCheck | kCmdCluster,
     "load additional user-defined safety properties from JSON",
     &CliFlags::properties_path, 0, 0, "--first"},
    {"--stats", nullptr,
     kCmdCheck | kCmdAttribute | kCmdDeps | kCmdServe | kCmdCluster,
     "print telemetry after the run: counters, per-phase durations, store "
     "diagnostics",
     &CliFlags::stats, 0, 0, "--allow-discovery"},
    {"--trace-out", "FILE",
     kCmdCheck | kCmdAttribute | kCmdDeps | kCmdServe,
     "write a JSONL span trace (one JSON object per line) to FILE",
     &CliFlags::trace_out},
    {"--progress-every", "N", kCmdCheck,
     "report the check's progress to stderr after each related set and "
     "every N explored states",
     &CliFlags::progress_every, 0, 1000000000000000000LL},
    {"--artifacts-dir", "DIR",
     kCmdCheck | kCmdAttribute,
     "write one violation artifact (JSON: run manifest + structured "
     "trace) per violated property into DIR",
     &CliFlags::artifacts_dir},
    {"--replay", "FILE", kCmdCheck,
     "deterministically re-execute a recorded violation artifact instead "
     "of searching; exit 0 iff it reproduces",
     &CliFlags::replay_path},
    {"--cache-dir", "DIR",
     kCmdCheck | kCmdAttribute | kCmdServe,
     "memoize per-group verification results in DIR; warm re-checks of "
     "unchanged groups skip the search (see docs/caching.md)",
     &CliFlags::cache_dir, 0, 0, "--reverify-bitstate"},
    {"--metrics-out", "FILE", kCmdCheck,
     "write counters and latency histograms as Prometheus text "
     "exposition (the same format GET /v1/metrics serves) to FILE",
     &CliFlags::metrics_out},
    {"--access-log", "FILE", kCmdServe,
     "append one JSON line per request (request id, status, latency, "
     "queue wait, cache delta) to FILE",
     &CliFlags::access_log},
    {"--registry-dir", "DIR", kCmdServe,
     "persist fleet deployments (/v1/deployments) in DIR, and the "
     "result cache in DIR/.cache unless --cache-dir names another; "
     "without it the registry is memory-only (docs/fleet.md)",
     &CliFlags::registry_dir},
    {"--if-match", "REVISION", kCmdFleet,
     "fleet check: only run against this deployment revision (the ETag "
     "from put/get); a stale pin fails with the server's 409",
     &CliFlags::if_match},
    {"--host", "ADDR", kCmdServe | kCmdTop | kCmdFleet,
     "bind address for the HTTP service (default 127.0.0.1); top/fleet: "
     "the address to call",
     &CliFlags::host},
    {"--port", "N", kCmdServe | kCmdTop | kCmdFleet,
     "TCP port for the HTTP service (0 = kernel-assigned; default 8080); "
     "top/fleet: the port to call",
     &CliFlags::port, 0, 65535},
    {"--http-workers", "N", kCmdServe,
     "HTTP session threads draining the accept queue (default 4)",
     &CliFlags::http_workers, 1, 256},
    {"--max-queue", "N", kCmdServe,
     "accepted-connection queue bound; beyond it the acceptor sheds "
     "with 503 queue_full (default 64)",
     &CliFlags::max_queue, 1, 65536},
    {"--log-level", "LEVEL", kCmdServe,
     "structured-log threshold on stderr: debug, info, warn (default), "
     "error, or off (docs/observability.md)",
     &CliFlags::log_level, 0, 0, "--deadline"},
    {"--log-json", nullptr, kCmdServe,
     "emit structured log lines as JSON objects instead of text",
     &CliFlags::log_json},
    {"--interval", "SECONDS", kCmdTop,
     "refresh period of the live status view (default 2)",
     &CliFlags::interval_seconds, 1, 3600},
    {"--once", nullptr, kCmdTop,
     "print one status snapshot and exit (plain output, no screen "
     "redraw)",
     &CliFlags::once},
    {"--workers", "LIST", kCmdServe | kCmdCluster,
     "comma-separated worker endpoints (host:port,...) the coordinator "
     "dispatches work units to (docs/cluster.md)",
     &CliFlags::workers},
    {"--coordinator", nullptr, kCmdServe,
     "serve as a cluster coordinator: plan /v1/check requests into work "
     "units and dispatch them across --workers",
     &CliFlags::coordinator},
    {"--unit-deadline", "SECONDS",
     kCmdServe | kCmdCluster,
     "per-work-unit dispatch deadline before the coordinator retries or "
     "re-dispatches (default 600)",
     &CliFlags::unit_deadline_seconds, 1, 86400},
    {"--no-local-fallback", nullptr,
     kCmdServe | kCmdCluster,
     "fail the check when no worker is reachable instead of degrading "
     "to local execution",
     &CliFlags::no_local_fallback},
    {"--help", nullptr,
     kCmdCheck | kCmdAttribute | kCmdDeps | kCmdPromela | kCmdServe |
         kCmdTop | kCmdFleet | kCmdCluster,
     "show this help", &CliFlags::help},
};

/// The request-option flags in their table's order, each followed by
/// the run of CLI rows anchored to it (FlagSpec::after).
std::vector<FlagSpec> MergeFlagTables() {
  std::vector<FlagSpec> out;
  const std::span<const FlagSpec> cli = kCliFlags;
  std::size_t next = 0;
  for (const core::OptionSpec& option : core::RequestOptionTable()) {
    out.push_back({option.flag, option.arg, option.commands, option.help,
                   &option, option.min, option.max});
    if (next < cli.size() && cli[next].after != nullptr &&
        std::string_view(cli[next].after) == option.flag) {
      do {
        out.push_back(cli[next++]);
      } while (next < cli.size() && cli[next].after == nullptr);
    }
  }
  out.insert(out.end(), cli.begin() + next, cli.end());
  return out;
}

bool IsHelp(const FlagSpec& spec) {
  const auto* member = std::get_if<bool CliFlags::*>(&spec.target);
  return member != nullptr && *member == &CliFlags::help;
}

struct CommandSpec {
  unsigned id;
  const char* name;
  const char* positionals;
  const char* summary;
};

constexpr CommandSpec kCommands[] = {
    {kCmdCheck, "check", "<deployment.json>",
     "verify a deployment against the active safety properties"},
    {kCmdAttribute, "attribute", "<app.smartscript|corpus-name> "
                                 "<deployment.json>",
     "vet a new app before installation (§9 Output Analyzer)"},
    {kCmdDeps, "deps", "<deployment.json>",
     "print the dependency graph and related sets (§5)"},
    {kCmdPromela, "promela", "<deployment.json>",
     "emit the generated Promela model (§6/§8)"},
    {kCmdServe, "serve", "",
     "run the resident HTTP/JSON verification service (docs/server.md)"},
    {kCmdTop, "top", "",
     "live terminal view of a running service's in-flight checks "
     "(polls GET /v1/status)"},
    {kCmdFleet, "fleet", "<list|put|get|rm|check> [id] [deployment.json]",
     "manage a serving fleet registry over /v1/deployments "
     "(docs/fleet.md)"},
    {kCmdCluster, "cluster", "check <deployment.json> --workers LIST",
     "coordinate one verification across remote iotsan workers "
     "(docs/cluster.md)"},
    {0, "cache", "<stats|prune|clear> <DIR>",
     "inspect or maintain an incremental-analysis cache directory"},
    {0, "apps", "", "list the bundled corpus apps"},
    {0, "version", "", "print the tool version and build information"},
    {0, "help", "", "show this help"},
};

/// Flag letters for the global help ("CA" = check and attribute).
std::string CommandLetters(unsigned mask) {
  std::string out;
  if (mask & kCmdCheck) out += 'C';
  if (mask & kCmdAttribute) out += 'A';
  if (mask & kCmdDeps) out += 'D';
  if (mask & kCmdPromela) out += 'P';
  if (mask & kCmdServe) out += 'S';
  if (mask & kCmdTop) out += 'T';
  if (mask & kCmdFleet) out += 'F';
  if (mask & kCmdCluster) out += 'L';
  return out;
}

std::string FlagUsage(const FlagSpec& spec) {
  std::string out = spec.name;
  if (spec.arg != nullptr) {
    out += ' ';
    out += spec.arg;
  }
  return out;
}

}  // namespace

std::span<const FlagSpec> FlagTable() {
  static const std::vector<FlagSpec> table = MergeFlagTables();
  return table;
}

const FlagSpec* FindFlag(const std::string& name) {
  for (const FlagSpec& spec : FlagTable()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string UsageFor(unsigned command) {
  std::string out = "usage: iotsan";
  for (const CommandSpec& cmd : kCommands) {
    if (cmd.id != command) continue;
    out += ' ';
    out += cmd.name;
    if (cmd.positionals[0] != '\0') {
      out += ' ';
      out += cmd.positionals;
    }
  }
  for (const FlagSpec& spec : FlagTable()) {
    if (IsHelp(spec) || !(spec.commands & command)) continue;
    out += " [" + FlagUsage(spec) + "]";
  }
  return out;
}

void PrintHelp(std::FILE* out) {
  std::fprintf(out, "iotsan — IoT safety sanitizer (IotSan, CoNEXT '18)\n\n");
  std::fprintf(out, "commands:\n");
  for (const CommandSpec& cmd : kCommands) {
    std::string invocation = cmd.name;
    if (cmd.positionals[0] != '\0') {
      invocation += ' ';
      invocation += cmd.positionals;
    }
    std::fprintf(out, "  %-52s %s\n", invocation.c_str(), cmd.summary);
  }
  std::fprintf(out, "\nflags (letters mark the accepting commands: "
                    "C=check, A=attribute, D=deps, P=promela, S=serve, "
                    "T=top, F=fleet, L=cluster):\n");
  for (const FlagSpec& spec : FlagTable()) {
    if (IsHelp(spec)) continue;
    std::fprintf(out, "  %-4s %-22s %s\n",
                 CommandLetters(spec.commands).c_str(),
                 FlagUsage(spec).c_str(), spec.help);
  }
  std::fprintf(out,
               "\ntelemetry: --stats prints counters, per-phase durations "
               "and store fill after the\nrun; --trace-out writes one JSON "
               "object per span (name, start_us, dur_us, depth,\nattrs).  "
               "See docs/observability.md for the schema and the counter "
               "taxonomy.\n");
}

long long ParseFlagInt(const std::string& flag, const std::string& value,
                       long long min_value, long long max_value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  // strtoll silently skips leading whitespace; a flag value must be all
  // digits (with an optional sign), nothing else.
  const bool leading_space =
      !value.empty() && std::isspace(static_cast<unsigned char>(value[0]));
  if (value.empty() || leading_space || end != value.c_str() + value.size() ||
      errno != 0) {
    throw Error("option " + flag + " wants an integer, got '" + value + "'");
  }
  if (parsed < min_value || parsed > max_value) {
    throw Error("option " + flag + " wants a value in [" +
                std::to_string(min_value) + ", " + std::to_string(max_value) +
                "], got " + value);
  }
  return parsed;
}

std::vector<std::string> ParseFlags(unsigned command,
                                    const std::vector<std::string>& args,
                                    CliFlags& flags) {
  std::vector<std::string> positionals;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
      continue;
    }
    const FlagSpec* spec = FindFlag(arg);
    if (spec == nullptr) {
      throw Error("unknown option: " + arg + " (see 'iotsan help')");
    }
    if (!(spec->commands & command)) {
      throw Error("option " + arg + " does not apply to this command\n" +
                  UsageFor(command));
    }
    std::string value;
    long long number = 1;  // what a flag without a value stores
    if (spec->arg != nullptr) {
      if (i + 1 >= args.size()) {
        throw Error("option " + arg + " needs a value (" + spec->arg + ")");
      }
      value = args[++i];
      // Numeric flags declare their valid range in the table; validate
      // here so every command (and the tests) share one strict parser.
      if (spec->min < spec->max) {
        number = ParseFlagInt(spec->name, value, spec->min, spec->max);
      }
    }
    std::visit(
        [&](auto target) {
          using T = decltype(target);
          if constexpr (std::is_same_v<T, const core::OptionSpec*>) {
            core::SetOption(flags.request, *target, number);
          } else if constexpr (std::is_same_v<T, std::string CliFlags::*>) {
            flags.*target = value;
          } else {
            using Field = std::remove_reference_t<decltype(flags.*target)>;
            flags.*target = static_cast<Field>(number);
          }
        },
        spec->target);
  }
  return positionals;
}

}  // namespace iotsan::cli
