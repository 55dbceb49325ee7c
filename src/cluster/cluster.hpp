// Distributed swarm verification: a cluster coordinator over N iotsan
// workers (Holzmann swarm over HTTP).
//
// The coordinator reuses the sanitizer's own decomposition as its work
// partition: `Sanitizer::PlanGroups` yields independent related-set
// groups, each of which becomes one work unit dispatched to a worker's
// `POST /v1/check` with the `groupApps` option.  Oversized groups can
// additionally be split along the checker's deterministic root
// (event × failure) branch enumeration (`branchModulus`/`branchResidue`
// units), and bitstate searches can fan out as *swarm lanes* — the same
// group re-run under diverse hash-family seeds so each lane omits
// different states.
//
// Determinism: group units are exactly the computations a single node
// performs, merged in plan order through core::MergeGroupResult /
// FinalizeReport, so a cluster run's verdicts, violation ordering, and
// counter-example traces are byte-identical to a single-node run on
// exhaustive stores — regardless of worker count, dispatch order, or
// mid-run worker death.  Branch shards and swarm lanes merge through
// checker::MergeViolationInto / CanonicalizeViolations (the same
// canonical-min dedup the in-process parallel search uses), which keeps
// verdicts and traces identical while summed state counters reflect
// aggregate work (each shard owns a store).
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
  /// attempt (and retries / re-dispatches).
  double unit_deadline_seconds = 600;
  int connect_timeout_ms = 2000;
  /// Transport attempts per unit on one worker before it is declared
  /// dead and the unit re-queued.
  int max_attempts = 3;
  int backoff_base_ms = 50;
  int backoff_max_ms = 2000;
  /// Jitter PRNG seed (decorrelate retries; tests pin it).
  std::uint64_t jitter_seed = 1;
  /// Split each group's root branches into this many shard units
  /// (0/1 = off).  Opt-in: shards own separate stores, so summed state
  /// counts exceed a single run's; verdicts are unaffected.
  unsigned branch_split = 0;
  /// Bitstate swarm lanes per group (0/1 = off): lane i re-runs the
  /// group with hash seed SplitMix64(i), violations union.
  unsigned swarm_lanes = 0;
  /// Run remaining units locally when every worker is unreachable
  /// (false = fail the check instead).
  bool allow_local_fallback = true;
};

enum class UnitKind { kGroup, kBranchShard, kSwarmLane };

/// One schedulable piece of a verification.
struct WorkUnit {
  UnitKind kind = UnitKind::kGroup;
  /// Index of the related-set group in the coordinator's plan (merge
  /// happens in this order).
  std::size_t group_index = 0;
  /// App indices (into deployment.apps) of the group.
  std::vector<std::size_t> group_apps;
  unsigned branch_modulus = 0;
  unsigned branch_residue = 0;
  std::uint64_t bitstate_seed = 0;
};

/// Per-worker health and accounting, surfaced as /v1/status rows.
struct WorkerStatus {
  std::string endpoint;
  bool healthy = false;
  std::uint64_t units_done = 0;
  std::uint64_t units_failed = 0;
  std::uint64_t retries = 0;
  double last_latency_ms = 0;
  std::string last_error;
};

struct ClusterOutcome {
  core::CheckResponse response;
  std::size_t units_total = 0;
  std::size_t units_remote = 0;
  std::size_t units_local = 0;
  std::size_t units_redispatched = 0;
  /// True when no worker was reachable and the whole check ran locally.
  bool degraded_local = false;
};

// ---- wire format (exposed for tests) -----------------------------------------

/// The iotsan.request/1 envelope dispatching `unit` of `request` to a
/// worker's POST /v1/check.
json::Value UnitRequestJson(const core::CheckRequest& request,
                            const WorkUnit& unit);

/// Plans the unit list for `groups` (PlanGroups output, in plan order):
/// one kGroup unit per group by default; kBranchShard × branch_split
/// units per group when branch splitting is on; kSwarmLane units when
/// swarm lanes are on and the request uses a bitstate store.
std::vector<WorkUnit> PlanUnits(
    const std::vector<std::vector<std::size_t>>& groups,
    const ClusterOptions& options, const core::RequestOptions& request);

/// Folds the shard/lane results of ONE group back into a single
/// CheckResult (counters through checker::Accumulate, minus the (n-1)
/// duplicate initial-state accountings for branch shards; violations
/// dedup canonically).
/// `results` must be in residue/lane order.  Identity for size 1.
checker::CheckResult MergeShardResults(UnitKind kind,
                                       std::vector<checker::CheckResult>
                                           results);

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
