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
  /// EXTENSION: check dynamic-device-discovery apps instead of rejecting
  /// them (see model::ModelOptions::dynamic_discovery).
  bool allow_dynamic_discovery = false;
  /// Additional safety properties beyond the built-ins (user-defined).
  std::vector<props::Property> extra_properties;
  /// Optional result cache (src/cache): per-group verification results
  /// are memoized under their content-addressed fingerprint, so warm
  /// re-checks of unchanged (source, config, options) groups skip the
  /// model build and search entirely.  Not owned; nullptr disables.
  cache::ResultCache* cache = nullptr;
  /// Coarse progress: invoked once per finished related-set group (from
  /// whichever pool thread ran it; invocations are serialized).  This is
  /// a separate stream from `check.on_progress` — the per-state progress
  /// the CLI prints — so wiring it never perturbs CLI output.  Feeds the
  /// server's in-flight table and SSE events (docs/server.md).
  telemetry::GroupProgressCallback on_group_progress;
};

struct SanitizerReport {
  /// Union of violations across related sets, one entry per property.
  std::vector<checker::Violation> violations;
  /// Un-merged violations: one entry per (related set, property).  This
  /// is the unit the paper's Table 5/6 count ("147 violations of 20
  /// properties": the same property violated by different app groups
  /// counts once per group).
  std::vector<checker::Violation> per_set_violations;
  /// Apps rejected up-front (dynamic device discovery, parse failures).
  std::vector<std::string> rejected_apps;
  /// Static-analysis diagnostics (type problems etc.), non-fatal.
  std::vector<std::string> analysis_problems;
  /// Dependency-analysis statistics (Table 7a).
  deps::ScaleStats scale;
  int related_set_count = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_matched = 0;
  std::uint64_t transitions = 0;
  std::uint64_t cascade_drains = 0;
  double seconds = 0;
  bool completed = true;
  /// Store diagnostics aggregated across related-set runs: the worst
  /// (largest) fill ratio and omission estimate decide whether the whole
  /// report's coverage can be trusted; memory is the peak single store.
  double store_fill_ratio = 0;
  double est_omission_probability = 0;
  std::uint64_t store_memory_bytes = 0;
  /// Stored states summed across runs (exhaustive store only).
  std::uint64_t store_entries = 0;
  /// COLLAPSE diagnostics (zero unless check.state_compression): summed
  /// intern-pool traffic, the peak single run's pool footprint, and the
  /// worst per-state store cost across runs.
  std::uint64_t compress_pool_entries = 0;
  std::uint64_t compress_pool_bytes = 0;
  std::uint64_t compress_lookups = 0;
  std::uint64_t compress_hits = 0;
  double store_bytes_per_state = 0;
  /// Element-wise sum of the per-run depth histograms.
  std::vector<std::uint64_t> depth_histogram;

  bool HasViolation(const std::string& property_id) const;
  /// Ids of violated properties, sorted.
  std::vector<std::string> ViolatedPropertyIds() const;
};

/// The model options Check derives from `options`: dynamic discovery
/// implies covering every sensor's events.
model::ModelOptions EffectiveModelOptions(const SanitizerOptions& options);

/// The candidate property set (built-ins + user extras).  The model
/// filters it by applicability deterministically from the deployment,
/// so this is the set the cache key fingerprints.
std::vector<props::Property> CandidateProperties(
    const SanitizerOptions& options);

/// Folds one related-set group's result into the aggregate report:
/// counters sum, store diagnostics take the worst run, per-set
/// violations append, merged violations sum occurrences per property.
void MergeGroupResult(SanitizerReport& report, checker::CheckResult result);

/// Deterministic final ordering: violations sorted by property id.
/// Call once after the last MergeGroupResult.
void FinalizeReport(SanitizerReport& report);

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
  /// fields exactly as Check does.  Exposed so the fleet registry's
  /// delta re-verification (src/registry) can classify groups without
  /// running them.  When `analyses` is set it receives the accepted
  /// apps' analyses for CheckGroup.
  std::vector<std::vector<std::size_t>> PlanGroups(
      const SanitizerOptions& options, SanitizerReport& report,
      AppAnalyses* analyses = nullptr) const;

  /// The content-addressed fingerprint of one group under `options` —
  /// the exact key the result cache memoizes the group's result under.
  cache::GroupKey GroupKeyFor(const std::vector<std::size_t>& group,
                              const SanitizerOptions& options,
                              const std::string& version) const;

  /// Builds, property-selects, and checks one related-set group,
  /// consulting `options.cache` when set.  `check` is `options.check`,
  /// possibly rebound to a shared pool by a parallel dispatcher.  The
  /// group's apps come from `analyses` (PlanGroups') where present and
  /// are analysed here otherwise.
  checker::CheckResult CheckGroup(const std::vector<std::size_t>& group,
                                  const SanitizerOptions& options,
                                  const checker::CheckOptions& check,
                                  const AppAnalyses* analyses = nullptr) const;

  const config::Deployment& deployment() const { return deployment_; }

 private:
  config::Deployment deployment_;
  std::map<std::string, std::string> sources_;

  std::string SourceFor(const std::string& app_name) const;
  std::vector<ir::AnalyzedApp> AnalyzeInstalledApps(
      SanitizerReport& report, std::vector<bool>& rejected,
      bool allow_dynamic_discovery, const std::string& request_id) const;
};

}  // namespace iotsan::core
