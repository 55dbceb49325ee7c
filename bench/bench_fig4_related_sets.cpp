// Reproduces paper §5's running example: Table 2 (handler interfaces),
// Fig. 4a (dependency graph), and Tables 3a/3b/3c (related sets) for the
// five sample market apps.
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "deps/dependency_graph.hpp"
#include "ir/analyzer.hpp"
#include "util/strings.hpp"

using namespace iotsan;

namespace {

std::string PatternList(const std::vector<ir::EventPattern>& patterns) {
  std::vector<std::string> parts;
  for (const ir::EventPattern& p : patterns) parts.push_back(p.ToString());
  return strings::Join(parts, ", ");
}

std::string SetToString(const std::vector<int>& vertices) {
  std::vector<std::string> parts;
  for (int v : vertices) parts.push_back(std::to_string(v));
  return "{" + strings::Join(parts, ", ") + "}";
}

}  // namespace

int main() {
  const std::vector<std::string> names = {
      "Brighten Dark Places", "Let There Be Dark!", "Auto Mode Change",
      "Unlock Door", "Big Turn On"};

  std::vector<ir::AnalyzedApp> apps;
  for (const std::string& name : names) {
    const corpus::CorpusApp* app = corpus::FindApp(name);
    apps.push_back(ir::AnalyzeSource(app->source, name));
  }

  std::printf("=== Table 2: event handlers and input/output events ===\n");
  std::printf("%-4s %-22s %-22s %-38s %s\n", "id", "app", "handler",
              "input events", "output events");
  int vertex_id = 0;
  for (const ir::AnalyzedApp& app : apps) {
    for (const ir::HandlerInfo& handler : app.handlers) {
      std::printf("%-4d %-22s %-22s %-38s %s\n", vertex_id++,
                  app.app.name.c_str(), handler.name.c_str(),
                  PatternList(handler.inputs).c_str(),
                  PatternList(handler.outputs).c_str());
    }
  }

  deps::DependencyGraph graph = deps::DependencyGraph::Build(apps);

  std::printf("\n=== Fig. 4a: dependency graph edges ===\n");
  for (std::size_t u = 0; u < graph.children().size(); ++u) {
    for (int v : graph.children()[u]) {
      std::printf("  %zu -> %d\n", u, v);
    }
  }

  std::printf("\n=== Table 3a: initial related sets (leaf closures) ===\n");
  for (int leaf : graph.Leaves()) {
    std::printf("  leaf %d: %s\n", leaf,
                SetToString(graph.AncestorClosure(leaf)).c_str());
  }

  std::vector<deps::RelatedSet> sets = deps::ComputeRelatedSets(graph);
  std::printf("\n=== Table 3c / Fig. 4b: final related sets ===\n");
  for (const deps::RelatedSet& set : sets) {
    std::printf("  %s  (apps:", SetToString(set.vertices).c_str());
    for (int app : set.apps) std::printf(" %s;", names[app].c_str());
    std::printf(" %d handlers)\n", set.handler_count);
  }

  deps::ScaleStats stats = deps::ComputeScaleStats(apps, sets);
  std::printf("\nscale: %d handlers -> largest related set %d (ratio %.1f)\n",
              stats.original_size, stats.new_size, stats.ratio);
  std::printf("\npaper expectation: final sets {3} {2,4} {0,1} {1,5} "
              "{1,2,6}\n");
  return 0;
}
