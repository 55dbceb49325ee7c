// Distributed verification: a cluster coordinator over N iotsan workers.
//
// The coordinator reuses the sanitizer's own decomposition as its work
// partition: `Sanitizer::PlanGroups` yields independent related sets
// (paper §5), and each distinct one becomes a work unit (a repeated set
// gets a copy of its first's result, as in Sanitizer::CheckGroups).
// Units travel in batches: one `POST /v1/check` carries the deployment
// once and a `units` list, and the worker replies with one compact
// CheckResult per unit.
//
// Determinism: a unit is exactly the computation a single node performs
// for that set, rendered and merged in plan order through
// Sanitizer::RenderReported / core::MergeGroupResult / FinalizeReport, so
// a cluster run prints what a single-node run prints — regardless of
// worker count, batching, dispatch order, or mid-run worker death.
//
// Robustness: workers are probed against /v1/health, every dispatch is
// bounded by a deadline and retried with jittered exponential backoff,
// units on a dead worker are re-dispatched to survivors, and when no
// worker is reachable the whole check degrades to local execution with
// a warning.  All of it is visible through the `cluster.*` counters, a
// dispatch-latency histogram, and per-worker rows in /v1/status.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "checker/checker.hpp"
#include "core/service.hpp"
#include "util/json.hpp"

namespace iotsan::cluster {

struct WorkerSpec {
  std::string host;
  int port = 0;
  std::string endpoint() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port,host:port,..." (the --workers flag).  Hostnames
/// are allowed; ports must be 1..65535.  Throws iotsan::Error.
std::vector<WorkerSpec> ParseWorkerList(const std::string& list);

struct ClusterOptions {
  std::vector<WorkerSpec> workers;
  /// Per-unit dispatch deadline in seconds: the HTTP inactivity budget
  /// one unit gets on one worker before the coordinator abandons the
  /// attempt (and retries / re-dispatches); a batch request gets this
  /// times its unit count.
  double unit_deadline_seconds = 600;
  int connect_timeout_ms = 2000;
  /// Transport attempts per unit on one worker before it is declared
  /// dead and the unit re-queued.
  int max_attempts = 3;
  int backoff_base_ms = 50;
  int backoff_max_ms = 2000;
  /// Jitter PRNG seed (decorrelate retries; tests pin it).
  std::uint64_t jitter_seed = 1;
  /// Run remaining units locally when every worker is unreachable
  /// (false = fail the check instead).
  bool allow_local_fallback = true;
};

/// One schedulable piece of a verification: what a worker checks, plus
/// where its result goes.
struct WorkUnit : core::CheckUnit {
  /// Position of the related set in the coordinator's plan (merge
  /// happens in this order).
  std::size_t group_index = 0;
};

/// Per-worker health and accounting, surfaced as /v1/status rows.
struct WorkerStatus {
  std::string endpoint;
  bool healthy = false;
  std::uint64_t units_done = 0;    // units, not requests
  std::uint64_t units_failed = 0;  // units of failed requests
  std::uint64_t retries = 0;
  double last_latency_ms = 0;
  std::string last_error;
};

struct ClusterOutcome {
  core::CheckResponse response;
  /// Units planned: one per distinct related set.
  std::size_t units_total = 0;
  std::size_t units_remote = 0;
  std::size_t units_local = 0;
  std::size_t units_redispatched = 0;
  /// True when no worker was reachable and the whole check ran locally.
  bool degraded_local = false;
};

// ---- wire format (exposed for tests) -----------------------------------------

/// The iotsan.request/1 envelope dispatching a batch of `units` of
/// `request` to a worker's POST /v1/check: the deployment, inline
/// sources, properties and options once, then the units.
json::Value BatchRequestJson(const core::CheckRequest& request,
                             const std::vector<core::CheckUnit>& units);

/// The results of a worker's batch reply, in request order.  Throws
/// iotsan::Error unless the reply's "units" list holds exactly `units`
/// well-formed results.
std::vector<checker::CheckResult> BatchResultsFromJson(
    const json::Value& reply, std::size_t units);

/// Plans the unit list for `groups` (PlanGroups output, in plan order):
/// one unit per distinct set, at its first position
/// (core::FirstOccurrences).
std::vector<WorkUnit> PlanUnits(
    const std::vector<std::vector<std::size_t>>& groups);

// ---- coordinator -------------------------------------------------------------

class Coordinator {
 public:
  explicit Coordinator(ClusterOptions options);

  /// Probes every worker's GET /v1/health; refreshes the status rows
  /// and returns how many answered healthy.
  std::size_t ProbeWorkers();

  /// Plans, dispatches, and merges one verification.  Deterministic
  /// fields of the response match core::RunCheck exactly (see header
  /// comment).  Throws iotsan::Error when no worker is reachable and
  /// local fallback is disabled.
  ClusterOutcome Check(const core::CheckRequest& request,
                       const core::ServiceEnv& env = {});

  std::vector<WorkerStatus> WorkerRows() const;
  const ClusterOptions& options() const { return options_; }

 private:
  struct WorkerState {
    WorkerSpec spec;
    WorkerStatus status;
  };

  ClusterOptions options_;
  mutable std::mutex mutex_;  // guards workers_ status fields
  std::vector<WorkerState> workers_;
};

}  // namespace iotsan::cluster
