// IotSan end-to-end pipeline (paper Fig. 3).
//
// Sanitizer drives: Translator (SmartScript parsing + analysis) ->
// App Dependency Analyzer (related sets) -> Model Generator -> Model
// Checker -> aggregated report.  The Output Analyzer (attribution) lives
// in src/attrib and consumes the same pipeline.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/fingerprint.hpp"
#include "checker/checker.hpp"
#include "config/deployment.hpp"
#include "deps/dependency_graph.hpp"

namespace iotsan::cache {
class ResultCache;
}  // namespace iotsan::cache

namespace iotsan::core {

struct SanitizerOptions {
  checker::CheckOptions check;
  /// Model-generation knobs (event permutation space).
  model::ModelOptions model;
  /// Split the system into related sets and check each separately (§5).
  /// Disable to check all installed apps in one model.
  bool use_dependency_analysis = true;
  /// Additional safety properties beyond the built-ins (user-defined).
  std::vector<props::Property> extra_properties;
  /// Optional result cache (src/cache): per-group verification results
  /// are memoized under their content-addressed fingerprint, so warm
  /// re-checks of unchanged (source, config, options) groups skip the
  /// model build and search entirely.  Not owned; nullptr disables.
  cache::ResultCache* cache = nullptr;
  /// Non-empty: `cache` holds this check's related-set results under
  /// this name (ResultCache::Hold) in place of the holder's earlier
  /// check.  The fleet registry passes the deployment id.
  std::string cache_holder;
  /// The check's progress stream (telemetry::ProgressCounter): a report
  /// after each finished distinct related set, and with `progress_every`
  /// set, one each time the check's explored states cross a multiple of
  /// it.  Calls come one at a time, from whichever pool thread finished
  /// the set or crossed the multiple.  Feeds the CLI's progress line and
  /// the server's in-flight table and SSE events (docs/observability.md).
  std::uint64_t progress_every = 0;
  telemetry::ProgressCallback on_progress;
};

/// The check of a whole deployment: the CheckResult of its related sets
/// folded together (MergeGroupResult), so `violations` holds one entry
/// per property across all sets, plus what only the pipeline knows.
struct SanitizerReport : checker::CheckResult {
  /// Un-merged violations: one entry per (related set, property).  This
  /// is the unit the paper's Table 5/6 count ("147 violations of 20
  /// properties": the same property violated by different app groups
  /// counts once per group).  Counter-examples stay compact except the
  /// ones `violations` copies (see Sanitizer::RenderReported).
  std::vector<checker::Violation> per_set_violations;
  /// Apps rejected up-front (dynamic device discovery, parse failures).
  std::vector<std::string> rejected_apps;
  /// Static-analysis diagnostics (type problems etc.), non-fatal.
  std::vector<std::string> analysis_problems;
  /// Dependency-analysis statistics (Table 7a).
  deps::ScaleStats scale;
  int related_set_count = 0;
  /// Plan positions the report folds (repeats included), and how many
  /// of them this check searched rather than took from
  /// `SanitizerOptions::cache` (a repeat counts as its first occurrence
  /// does).  Not rendered: the fleet registry reports them as its group
  /// counts.
  std::uint64_t groups_planned = 0;
  std::uint64_t groups_searched = 0;

  /// Ids of violated properties, sorted.
  std::vector<std::string> ViolatedPropertyIds() const;
};

/// The model options Check derives from `options`: dynamic discovery
/// (model.dynamic_discovery) implies covering every sensor's events.
model::ModelOptions EffectiveModelOptions(const SanitizerOptions& options);

/// The candidate property set (built-ins + user extras).  The model
/// filters it by applicability deterministically from the deployment,
/// so this is the set the cache key fingerprints.
std::vector<props::Property> CandidateProperties(
    const SanitizerOptions& options);

/// Folds one related-set group's result into the aggregate report:
/// counters through checker::Accumulate, per-set violations append,
/// merged violations sum occurrences per property.
void MergeGroupResult(SanitizerReport& report, checker::CheckResult result);

/// Deterministic final ordering: violations sorted by property id.
/// Call once after the last MergeGroupResult.
void FinalizeReport(SanitizerReport& report);

/// For each position of `groups`, the position of the first group with
/// the same app-index list (its own position for a first occurrence).
/// Two handlers of one app instance often fall into the same related set,
/// so a plan repeats sets; a repeat's result is a copy of its first's.
std::vector<std::size_t> FirstOccurrences(
    const std::vector<std::vector<std::size_t>>& groups);

/// The analysed apps of one check, by deployment app index (null: not
/// analysed or rejected).  Immutable, so every related-set model of the
/// check shares them, parallel groups included.
using AppAnalyses = std::vector<std::shared_ptr<const ir::AnalyzedApp>>;

class Sanitizer {
 public:
  /// `deployment` names the installed apps; sources are resolved from the
  /// bundled corpus, overridable/extendable via AddAppSource.
  explicit Sanitizer(config::Deployment deployment);

  /// Registers (or overrides) an app source by definition name.
  void AddAppSource(const std::string& name, const std::string& source);

  /// Runs the full pipeline.
  SanitizerReport Check(const SanitizerOptions& options = {}) const;

  /// Analyzes the installed apps and computes the related-set groups
  /// Check dispatches (each a vector of indices into
  /// deployment().apps), filling the report's rejection/analysis/scale
  /// fields exactly as Check does.  Exposed so the cluster coordinator
  /// (src/cluster) can plan units without running them.  When
  /// `analyses` is set it receives the accepted apps' analyses for
  /// CheckGroups.
  std::vector<std::vector<std::size_t>> PlanGroups(
      const SanitizerOptions& options, SanitizerReport& report,
      AppAnalyses* analyses = nullptr) const;

  /// The content-addressed fingerprint of one group searched with
  /// `options` — the exact key the result cache memoizes the group's
  /// result under.  It names `options.check`'s lane count when that is
  /// more than one, so pass the options CheckGroups searches the group
  /// with: `jobs` 1 unless the group spreads its root branches.
  cache::GroupKey GroupKeyFor(const std::vector<std::size_t>& group,
                              const SanitizerOptions& options,
                              const std::string& version) const;

  /// Analyses every app the groups name, once each.
  AppAnalyses AnalyzeGroupApps(
      const std::vector<std::vector<std::size_t>>& groups) const;

  /// Builds, property-selects, and checks each of `groups` (index sets
  /// as PlanGroups returns them), consulting `options.cache` per group,
  /// and returns the results in group order.  Each distinct app-index
  /// list is searched once; a repeat gets a copy of its first
  /// occurrence's result, as a cache hit would.  With more than one lane
  /// and distinct set, the sets fan out over `options.check.pool` (or a
  /// pool made for the call) and each is searched on one lane, so every
  /// result equals the serial search's.  A lone distinct set spreads its
  /// root branches over the lanes only when it is the `--mono` model or
  /// holds every app of the deployment (a deployment that is one related
  /// set); any other lone set is searched on the calling thread at one
  /// lane.  The rule reads only the call's inputs, so a cluster worker
  /// and a single node decide alike.  Records each search's latency and
  /// throughput histograms.  With `options.on_progress` set, the call
  /// owns the check's progress counter (groups_total = the distinct
  /// groups), which each finished group reports through; under
  /// `options.progress_every` each search also counts its states on it
  /// as it expands them.  `analyses` must hold
  /// every app of the groups.  When `searched` is set it receives how many
  /// positions were searched rather than taken from `options.cache`.
  /// With `options.cache_holder` set, the cache then holds the results.
  /// Counter-examples stay compact.
  std::vector<checker::CheckResult> CheckGroups(
      const std::vector<std::vector<std::size_t>>& groups,
      const SanitizerOptions& options, const AppAnalyses& analyses,
      std::uint64_t* searched = nullptr) const;

  /// The model of one group exactly as CheckGroups searches it: the
  /// group's sub-deployment over `analyses`, with the candidate
  /// properties selected.
  model::SystemModel GroupModel(const std::vector<std::size_t>& group,
                                const SanitizerOptions& options,
                                const AppAnalyses& analyses) const;

  /// Renders the counter-examples a report prints, in place: for each
  /// property, the violation of the first group in plan order that has
  /// one — the one MergeGroupResult copies into the merged list — in that
  /// group's model.  Every other violation keeps its compact path.  Call
  /// between CheckGroups and the merge loop.
  void RenderReported(const std::vector<std::vector<std::size_t>>& groups,
                      const SanitizerOptions& options,
                      const AppAnalyses& analyses,
                      std::vector<checker::CheckResult>& results) const;

  const config::Deployment& deployment() const { return deployment_; }

 private:
  config::Deployment deployment_;
  std::map<std::string, std::string> sources_;

  /// One group of CheckGroups, searched with `options` (CheckGroups'
  /// options, narrowed to one lane unless the group spreads).  Sets
  /// `searched` when the group was searched rather than taken from
  /// `options.cache`, and `key` (if set) to the cache key it was fetched
  /// under.
  checker::CheckResult CheckGroup(const std::vector<std::size_t>& group,
                                  const SanitizerOptions& options,
                                  const AppAnalyses& analyses, bool& searched,
                                  cache::GroupKey* key) const;
  /// The deployment's devices, modes and settings with only the group's
  /// apps: what a group's model and its cache key see.
  config::Deployment GroupDeployment(
      const std::vector<std::size_t>& group) const;
  std::string SourceFor(const std::string& app_name) const;
  std::vector<ir::AnalyzedApp> AnalyzeInstalledApps(
      SanitizerReport& report, std::vector<bool>& rejected,
      bool allow_dynamic_discovery, const std::string& request_id) const;
};

}  // namespace iotsan::core
