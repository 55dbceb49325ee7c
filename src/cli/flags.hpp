// Shared command-line flag table for the iotsan tool.
//
// Request-option flags (--events, --bitstate, ...) are rows of
// core/options' table; the rows here are the CLI's own.  The parser, the
// generated help text, and the per-command usage lines all read the
// merged table, so the three cannot drift.  Living in src/cli (instead
// of the tool's main file) makes the table and the strict numeric
// validation unit-testable without spawning the binary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/options.hpp"

namespace iotsan::cli {

using enum core::Command;

/// Values collected from the flag table; each command reads the fields
/// relevant to it.
struct CliFlags {
  /// The request-option flags (core/options), ready for a request.
  core::RequestOptions request;
  bool stats = false;
  bool help = false;
  std::string properties_path;
  std::string trace_out;
  std::string artifacts_dir;
  std::string replay_path;
  std::string cache_dir;
  std::string metrics_out;   // Prometheus exposition file (check)
  std::string access_log;    // JSONL access log file (serve)
  std::string registry_dir;  // fleet registry persistence root (serve)
  std::string if_match;      // revision pin for `fleet check` ("" = none)
  std::uint64_t progress_every = 0;
  // serve + top + fleet
  std::string host = "127.0.0.1";
  int port = 8080;            // 0 = kernel-assigned ephemeral port
  int http_workers = 4;       // HTTP session threads
  int max_queue = 64;         // accept-queue bound before 503 shedding
  std::string log_level;      // structured-log threshold ("" = default warn)
  bool log_json = false;      // structured logs as JSON lines
  // top
  int interval_seconds = 2;   // refresh period of the live view
  bool once = false;          // one snapshot, then exit
  // cluster (+ serve --coordinator); docs/cluster.md
  std::string workers;        // "host:port,host:port,..." worker fleet
  bool coordinator = false;   // serve: dispatch /v1/check across workers
  int unit_deadline_seconds = 600;  // per-unit dispatch deadline
  bool no_local_fallback = false;  // fail instead of degrading to local
};

struct FlagSpec {
  const char* name;
  const char* arg;    // metavar; nullptr when the flag takes no value
  unsigned commands;  // bitmask of commands accepting the flag
  const char* help;
  /// Where the value goes: a CliFlags member, or a request option
  /// stored in CliFlags::request.
  std::variant<bool CliFlags::*, int CliFlags::*, std::uint64_t CliFlags::*,
               std::string CliFlags::*, const core::OptionSpec*>
      target;
  // Valid range for numeric-valued flags (min < max marks the flag as
  // numeric; the parser strictly validates the value against it).
  long long min = 0;
  long long max = 0;
  /// Help placement of the CLI's own rows: a row naming a request-option
  /// flag here starts a run printed right after that flag, and the rows
  /// that follow it without one continue the run.
  const char* after = nullptr;
};

/// Every flag, request options included, in help order.
std::span<const FlagSpec> FlagTable();

/// Looks a flag up by its exact `--name`; nullptr when unknown.
const FlagSpec* FindFlag(const std::string& name);

/// "usage: iotsan check <deployment.json> [--events N] [...]", generated
/// from the tables so usage errors always list exactly the accepted flags.
std::string UsageFor(unsigned command);

/// The full command + flag reference (`iotsan help`).
void PrintHelp(std::FILE* out);

/// Strictly parses a numeric flag value: the whole string must be a
/// decimal integer within [min_value, max_value].  Throws iotsan::Error
/// naming the flag on malformed input ("--jobs four", "--jobs 4x",
/// empty, overflow) or an out-of-range value.
long long ParseFlagInt(const std::string& flag, const std::string& value,
                       long long min_value, long long max_value);

/// Parses `args` for `command`, separating positionals from flags.
/// Throws iotsan::Error on unknown flags, missing or malformed values,
/// or flags the command does not accept.
std::vector<std::string> ParseFlags(unsigned command,
                                    const std::vector<std::string>& args,
                                    CliFlags& flags);

}  // namespace iotsan::cli
