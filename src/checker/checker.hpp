// The model checker: bounded DFS over external-event permutations
// (paper §2.3, §8 Algorithm 1).
//
// Spin-equivalent: the search enumerates all permutations of external
// physical events up to `max_events`, drains each cascade (sequential or
// concurrent scheduling), evaluates the active safety properties at every
// stable state, runs the per-cascade monitors, and prunes revisited
// states through an exhaustive or BITSTATE store.  Counter-example traces
// are produced in the style of the paper's Fig. 7.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "checker/trace.hpp"
#include "model/engine.hpp"
#include "model/system_model.hpp"
#include "props/property.hpp"
#include "telemetry/telemetry.hpp"

namespace iotsan::util {
class ThreadPool;
}  // namespace iotsan::util

namespace iotsan::checker {

enum class StoreKind { kExhaustive, kBitstate };

struct CheckOptions {
  /// Maximum number of external events per run (Algorithm 1's bound).
  int max_events = 3;
  model::Scheduling scheduling = model::Scheduling::kSequential;
  /// Enumerate device/communication failure scenarios per event (§8).
  bool model_failures = false;
  StoreKind store = StoreKind::kExhaustive;
  /// Bit-field size for BITSTATE (Spin -w): 2^27 bits = 16 MiB.
  std::size_t bitstate_bits = std::size_t{1} << 27;
  /// Include the event-loop counter in the hashed state vector.  The
  /// generated Promela model keeps Algorithm 1's loop index `i` as a
  /// global, so Spin's state vector distinguishes "same system state,
  /// different event budget"; true reproduces that behaviour.  Setting
  /// false merges such states, trading fidelity for pruning (ablation).
  bool include_depth_in_state = true;
  /// Stop as soon as any property is violated.
  bool stop_at_first_violation = false;
  /// Hard budget on expanded stable states (0 = unlimited).
  std::uint64_t max_states = 0;
  /// Wall-clock budget in seconds (0 = unlimited).  Checked between
  /// cascade drains too, so a single event fanning out into a large
  /// interleaving space cannot overshoot the budget.
  double time_budget_seconds = 0;
  /// Invoke `on_progress` after every `progress_every` expanded states
  /// (0 disables).  A final snapshot is also delivered when a budget
  /// stops the run, so the caller always sees the state at stop time.
  std::uint64_t progress_every = 0;
  telemetry::ProgressCallback on_progress;
  /// Re-execute every BITSTATE violation's recorded event permutation
  /// deterministically (exhaustive store, guided path) before reporting
  /// it; violations that do not reproduce are dropped.  Bitstate hashing
  /// can only *omit* states, so a reported trace is genuine — but this
  /// built-in false-positive filter makes each report self-certifying
  /// (`Violation::replay_verified`) and counts refutations in telemetry.
  bool reverify_bitstate = false;
  /// Ample-set partial-order reduction for concurrent scheduling: when a
  /// pending internal event's dispatch commutes with every other pending
  /// dispatch (disjoint static read/write footprints, no
  /// property-relevant writes), expand only that singleton instead of the
  /// full interleaving fan-out.  Sound — the engine falls back to full
  /// expansion whenever commutation cannot be proven — and a no-op under
  /// sequential scheduling.
  bool por = false;
  /// COLLAPSE state compression: key the visited-state store on
  /// component-wise interned tuples (per-device / per-app-state / timer
  /// pools) instead of full state serializations.  Verdict-neutral: the
  /// encoding collides exactly when the full serializations collide.
  bool state_compression = false;
  /// Worker threads for the search: root-level (event × failure)
  /// branches are partitioned across workers sharing one visited-state
  /// store.  1 = one lane: the branches run in order on the calling
  /// thread, which is the serial DFS.  0 = one worker per hardware
  /// thread.  Verdicts and counts are identical for any jobs value with
  /// the exhaustive store (see docs/performance.md for the
  /// counter-example and bitstate caveats).
  int jobs = 1;
  /// Run on an existing pool instead of spawning one (the sanitizer and
  /// attribution layers share their pool with nested checks this way).
  /// Null = the checker creates its own pool when jobs > 1.
  util::ThreadPool* pool = nullptr;
  /// Optional external interrupt flag (a signal handler, a server
  /// shutting down): polled on the same cancel path as the budgets,
  /// between cascade drains.  When it reads true the search winds down
  /// like a budget hit (`completed = false`), so the caller still gets
  /// the partial result — and can flush traces and write artifacts —
  /// instead of the process dying mid-write.  Not owned; may be null.
  const std::atomic<bool>* interrupt = nullptr;
  /// Correlation id of the originating server request ("" for CLI
  /// runs): attached to the check/replay spans and stamped into every
  /// violation artifact's manifest so traces, access-log lines, and
  /// artifacts join on one key.
  std::string request_id;
  /// Root-branch sharding for distributed runs (src/cluster): when
  /// `branch_modulus > 1`, only the root (event × failure) branches with
  /// `index % branch_modulus == branch_residue` are explored — the
  /// branch enumeration order is deterministic, so a modulus-complete
  /// set of shards covers exactly the branches a single run would.
  /// Each shard owns its own visited-state store, so summed state
  /// counts can exceed a single run's (shards re-visit states another
  /// shard pruned); verdicts are unaffected.  0/1 = no sharding.
  unsigned branch_modulus = 0;
  unsigned branch_residue = 0;
  /// Bitstate hash-family seed (swarm lanes): 0 = historical family.
  std::uint64_t bitstate_seed = 0;
};

/// One detected property violation with its counter-example.
struct Violation {
  std::string property_id;
  std::string category;
  std::string description;
  props::PropertyKind kind = props::PropertyKind::kInvariant;
  /// Structured counter-example: one TraceStep per external event (see
  /// checker/trace.hpp).  Machine-readable, diffable, and replayable.
  std::vector<TraceStep> steps;
  /// Final diagnosis line ("assertion violated: …", "conflicting
  /// commands on …"), rendered after the steps in the Fig. 7 layout.
  std::string detail;
  /// Labels of the apps that acted along the counter-example path.
  std::vector<std::string> apps;
  /// Labels of every app instance in the checked model (the related
  /// set); replay rebuilds the model from exactly these.
  std::vector<std::string> model_apps;
  /// Failure scenario in effect ("" when none).
  std::string failure;
  /// External events consumed before the violation.
  int depth = 0;
  /// How many times this property was (re)violated during the search.
  std::uint64_t occurrences = 1;
  /// True once a deterministic replay reproduced this violation
  /// (CheckOptions::reverify_bitstate or Checker::Replay).
  bool replay_verified = false;

  /// Legacy flat rendering (Fig. 7 style): step headers, indented
  /// cascade notes, then the diagnosis line.
  std::vector<std::string> TraceLines() const {
    return FlattenTrace(steps, detail);
  }
};

struct CheckResult {
  std::vector<Violation> violations;  // one entry per violated property
  std::uint64_t states_explored = 0;  // stable states expanded
  std::uint64_t states_matched = 0;   // pruned as already-seen
  std::uint64_t transitions = 0;      // (event, failure) applications
  std::uint64_t cascade_drains = 0;   // cascades drained to quiescence
  bool completed = true;              // false when a budget stopped the run
  double seconds = 0;

  // State-store diagnostics (§2.3 / Spin -w).  For BITSTATE,
  // `store_fill_ratio` is the bit occupancy and
  // `est_omission_probability` ≈ fill^k the chance a new state was
  // mistaken for a visited one; above 50% fill the search silently
  // under-reports violations and a stderr warning is emitted.
  double store_fill_ratio = 0;
  double est_omission_probability = 0;
  std::uint64_t store_entries = 0;
  std::uint64_t store_memory_bytes = 0;
  /// COLLAPSE compression diagnostics (zero when --state-compression is
  /// off): intern-pool footprint and hit rate, plus the average bytes the
  /// store pays per stored state (key + bookkeeping + pool arenas).
  std::uint64_t compress_states_encoded = 0;
  std::uint64_t compress_pool_entries = 0;
  std::uint64_t compress_pool_bytes = 0;
  std::uint64_t compress_lookups = 0;
  std::uint64_t compress_hits = 0;
  /// (store memory + intern-pool bytes) / stored entries; 0 when empty.
  double store_bytes_per_state = 0;
  /// States expanded per external-event depth (index 0 = initial state).
  std::vector<std::uint64_t> depth_histogram;
  /// Worker lanes the search ran on and how many root (event × failure)
  /// branches were partitioned across them (1 and 0 on one lane).
  int jobs = 1;
  std::uint64_t parallel_branches = 0;
  /// States expanded per worker lane (empty on one lane).  The
  /// per-lane split varies with scheduling; only the total is
  /// deterministic.
  std::vector<std::uint64_t> worker_states_explored;

  bool HasViolation(const std::string& property_id) const;
  const Violation* Find(const std::string& property_id) const;
};

/// Outcome of deterministically re-executing a recorded counter-example
/// (Checker::Replay): did the same property fire at the same step?
struct ReplayResult {
  bool reproduced = false;
  std::string property_id;
  /// Step at which the artifact says the property fired.
  int expected_step = 0;
  /// Step at which it actually fired during replay (-1 = never).
  int fired_step = -1;
  /// Human explanation of the outcome.
  std::string message;
  double seconds = 0;
};

class Checker {
 public:
  explicit Checker(const model::SystemModel& model) : model_(model) {}

  CheckResult Run(const CheckOptions& options) const;

  /// Feeds the artifact's recorded external-event permutation back
  /// through the cascade engine (guided search, exhaustive store,
  /// Spin's `-t` guided simulation) and checks that the same property
  /// fires at the same step.  The model must match the artifact's
  /// manifest (deployment + model_apps); unresolvable event coordinates
  /// throw iotsan::Error.
  ReplayResult Replay(const ViolationArtifact& artifact) const;

 private:
  const model::SystemModel& model_;
};

/// Folds the counters of `part` (the search of another related set,
/// branch shard or swarm lane) into `into`; each caller keeps its own
/// rule for violations.  Counts and seconds add, and `completed` is the
/// AND of the parts.  The store diagnostics (fill ratio, omission
/// estimate, memory, pool bytes, bytes per state) keep the largest part,
/// since the worst store decides whether the whole result's coverage can
/// be trusted, and so does the lane count.  The depth histogram and the
/// per-lane states add bucket by bucket.
void Accumulate(CheckResult& into, const CheckResult& part);

/// Merges a violation of the same property found elsewhere in the search
/// into `existing`: occurrences accumulate, charged apps union, and the
/// canonically smaller counter-example wins.  The cluster coordinator's
/// shard/lane merges use it on rendered steps; the in-process branch
/// fold applies the same merge to compact paths before rendering.
void MergeViolationInto(Violation& existing, Violation v);

/// Final report canonicalization, applied identically by every search
/// run and the distributed merge: violations ordered by property id,
/// charged apps ordered lexicographically.
void CanonicalizeViolations(std::vector<Violation>& violations);

/// Renders a violation report (description, involved apps, trace).
std::string FormatViolation(const Violation& violation);

/// Stable names for PropertyKind ("invariant", "no_conflict", ...),
/// shared by violation artifacts and the analysis cache.
/// PropertyKindFromName inverts (unknown names map to kInvariant).
std::string_view PropertyKindName(props::PropertyKind kind);
props::PropertyKind PropertyKindFromName(std::string_view name);

/// Canonical JSON round-trip for a Violation, including its structured
/// trace — the unit the incremental analysis cache (src/cache) persists.
/// Identical violations produce byte-identical compact dumps.
json::Value ViolationToJson(const Violation& violation);
Violation ViolationFromJson(const json::Value& value);

/// JSON round-trip for the replayable fields of a CheckResult: the one
/// codec behind cache entries, fleet registry records and cluster unit
/// replies, so every field a merged report reads survives each of them.
/// FromJson reads fields older cache entries lack as zero, and throws
/// iotsan::Error on a malformed count (negative, fractional, too large).
json::Value CheckResultToJson(const CheckResult& result);
CheckResult CheckResultFromJson(const json::Value& doc);

/// Bundles a violation with a reproducibility manifest.  `options` must
/// be the CheckOptions of the run that found it; deployment name/hash
/// come from the caller (which holds the config); build info is filled
/// from util/build_info.
ViolationArtifact MakeArtifact(const Violation& violation,
                               const CheckOptions& options,
                               const std::string& deployment_name,
                               const std::string& config_hash,
                               std::uint64_t rng_seed = 0);

/// Re-arms the once-per-run bitstate saturation warning.  The >50%
/// occupancy warning prints to stderr at most once between resets (each
/// saturated check still ticks `telemetry::StoreGauges::
/// saturation_warnings`); the CLI resets at the start of each command.
void ResetSaturationWarning();

}  // namespace iotsan::checker
