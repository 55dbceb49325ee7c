// Request options: the knobs a check or attribute request carries,
// declared once.
//
// Each row of RequestOptionTable() ties one RequestOptions member to
// its JSON key, its CLI flag, and its valid range.  The CLI parser and
// its help text (src/cli/flags), the server's request validation and
// the cluster forwarder all read the table, so none of them can drift
// from the others.  A new option is one member, one row, and its use in
// core::MakeCheckOptions.  This header depends on nothing but util/json
// so the CLI's flag layer can include it.
#pragma once

#include <span>
#include <variant>

#include "util/json.hpp"

namespace iotsan::core {

/// CLI commands, as a bitmask: the `commands` column of the option
/// table and of the CLI's own flag table.
enum Command : unsigned {
  kCmdCheck = 1u << 0,
  kCmdAttribute = 1u << 1,
  kCmdDeps = 1u << 2,
  kCmdPromela = 1u << 3,
  kCmdServe = 1u << 4,
  kCmdTop = 1u << 5,
  kCmdFleet = 1u << 6,
  kCmdCluster = 1u << 7,
};

/// The options a check/attribute request may carry.  Defaults match
/// the CLI.
struct RequestOptions {
  int events = -1;  // -1 = the command's default (check: 3, attribute: 2)
  int jobs = 0;     // worker lanes (0 = every CPU the process may use)
  bool failures = false;
  bool mono = false;
  bool bitstate = false;
  int bitstate_bits_pow = 0;  // 0 = default (27)
  bool state_compression = false; // COLLAPSE store-key compression
  bool first = false;
  bool reverify_bitstate = false;
  bool allow_discovery = false;
  /// Wall-clock budget per request in seconds (0 = none).  Rides the
  /// checker's existing CancelFn budget plumbing; a hit run reports
  /// `completed = false` ("budget hit") and is never cached.
  double deadline_seconds = 0;
};

/// The RequestOptions member a row sets.  Its type fixes the value's
/// form: a boolean, or an integer in the row's [min, max] (stored in the
/// member's type).
using OptionField = std::variant<bool RequestOptions::*,
                                 int RequestOptions::*,
                                 double RequestOptions::*>;

struct OptionSpec {
  const char* key;     // JSON key in a request's "options" object
  const char* flag;    // CLI flag
  const char* arg;     // CLI metavar; nullptr for boolean flags
  unsigned commands;   // CLI commands accepting the flag
  const char* help;
  OptionField field;
  long long min = 0;   // valid range of integer values
  long long max = 0;
  /// A boolean member that setting this row also sets to true.
  bool RequestOptions::*implies = nullptr;
};

/// Every request option, in help order.
std::span<const OptionSpec> RequestOptionTable();

/// Stores `value` in the row's member (any non-zero value for booleans)
/// and applies the row's implication.  The caller has checked `value`
/// against the row's range.
void SetOption(RequestOptions& options, const OptionSpec& spec,
               long long value);

/// Reads a request's "options" object over `options`.  Every key must
/// name a row and every value must have the row's form and range;
/// otherwise throws iotsan::Error naming the key.
void ParseOptionsJson(const json::Value& doc, RequestOptions& options);

/// The rows whose value differs from `base`, keyed as in a request.
json::Object OptionsToJson(const RequestOptions& options,
                           const RequestOptions& base = {});

}  // namespace iotsan::core
