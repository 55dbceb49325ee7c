// Reproduces paper Table 7a: scalability benefit of the App Dependency
// Analyzer — per group, the total number of event handlers vs. the
// largest related set's handler count, and the resulting scale ratio.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "deps/dependency_graph.hpp"
#include "ir/analyzer.hpp"

using namespace iotsan;

namespace {

/// Multi-threaded verification sweep over the largest expert group: the
/// same check at jobs = 1/2/4, reporting wall-clock speedup vs. serial.
/// The related sets and root branches of a big group are what the pool
/// partitions, so this is the scalability story Table 7a's dependency
/// analysis sets up.
void JobsSweep(const corpus::SystemUnderTest& sut, int group_index) {
  std::printf("\n--- verification jobs sweep (group %d, %d apps) ---\n",
              group_index, sut.app_count());
  std::printf("%-8s %-12s %-16s %s\n", "jobs", "time", "states", "speedup");

  double serial_seconds = 0;
  for (int jobs : {1, 2, 4}) {
    core::Sanitizer sanitizer(sut.deployment);
    for (const auto& [name, source] : sut.extra_sources) {
      sanitizer.AddAppSource(name, source);
    }
    core::SanitizerOptions options;
    options.check.max_events = 2;
    options.check.jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    core::SanitizerReport report = sanitizer.Check(options);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (jobs == 1) serial_seconds = wall;
    const double speedup = wall > 1e-9 ? serial_seconds / wall : 0;
    std::printf("%-8d %-12.3f %-16llu x%.2f\n", jobs, wall,
                static_cast<unsigned long long>(report.states_explored),
                speedup);
    json::Object extra;
    extra["jobs"] = jobs;
    extra["wall_seconds"] = wall;
    extra["speedup_vs_serial"] = speedup;
    bench::EmitStats("table7a_jobs",
                     "group=" + std::to_string(group_index) +
                         ",jobs=" + std::to_string(jobs),
                     report, std::move(extra));
  }
}

}  // namespace

int main() {
  std::printf("=== Table 7a: scalability with dependency graphs ===\n\n");
  std::printf("%-8s %-14s %-10s %s\n", "Group", "Original Size", "New Size",
              "Scale Ratio");

  double ratio_sum = 0;
  int group_index = 0;
  int largest_group = 0;
  int largest_size = -1;
  for (const corpus::SystemUnderTest& sut : corpus::ExpertGroups()) {
    ++group_index;
    std::vector<ir::AnalyzedApp> apps;
    for (const config::AppConfig& instance : sut.deployment.apps) {
      const corpus::CorpusApp* base = corpus::FindApp(instance.app);
      std::string source;
      if (base != nullptr) {
        source = base->source;
      } else {
        source = sut.extra_sources.at(instance.app);
      }
      apps.push_back(ir::AnalyzeSource(source, instance.app));
    }
    deps::ScaleStats stats = deps::ComputeScaleStats(
        apps, deps::ComputeRelatedSets(deps::DependencyGraph::Build(apps)));
    ratio_sum += stats.ratio;
    if (stats.original_size > largest_size) {
      largest_size = stats.original_size;
      largest_group = group_index;
    }
    std::printf("%-8d %-14d %-10d %.1f\n", group_index, stats.original_size,
                stats.new_size, stats.ratio);
    json::Object payload;
    payload["original_size"] = stats.original_size;
    payload["new_size"] = stats.new_size;
    payload["scale_ratio"] = stats.ratio;
    bench::EmitStatsJson("table7a", "group=" + std::to_string(group_index),
                         std::move(payload));
  }
  std::printf("%-8s %-14s %-10s %.1f\n", "", "", "Mean",
              ratio_sum / group_index);

  JobsSweep(corpus::ExpertGroups()[static_cast<std::size_t>(largest_group - 1)],
            largest_group);

  std::printf("\npaper expectation (Table 7a): per-group ratios "
              "3.4/5.4/1.5/2.5/2.2/5.7, mean 3.4x.\n  Shape: every group "
              "shrinks; the mean reduction is severalfold.  The jobs sweep "
              "adds\n  the --jobs dimension: identical reports at every "
              "jobs value, wall-clock\n  dropping with cores.\n");
  return 0;
}
