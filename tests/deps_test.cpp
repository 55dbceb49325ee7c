// Dependency-graph and related-set tests: exact reproduction of the
// paper's §5 running example (Table 2, Fig. 4, Tables 3a/3c) plus
// structural properties of the algorithm.
#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "deps/dependency_graph.hpp"
#include "ir/analyzer.hpp"

namespace iotsan::deps {
namespace {

std::vector<ir::AnalyzedApp> PaperExampleApps() {
  std::vector<ir::AnalyzedApp> apps;
  for (const char* name :
       {"Brighten Dark Places", "Let There Be Dark!", "Auto Mode Change",
        "Unlock Door", "Big Turn On"}) {
    const corpus::CorpusApp* app = corpus::FindApp(name);
    apps.push_back(ir::AnalyzeSource(app->source, name));
  }
  return apps;
}

std::vector<std::vector<int>> SortedSets(
    const std::vector<RelatedSet>& sets) {
  std::vector<std::vector<int>> out;
  for (const RelatedSet& set : sets) out.push_back(set.vertices);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DependencyGraphTest, PaperFig4Vertices) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  // 7 handlers, no SCCs -> 7 vertices numbered in declaration order
  // (Table 2's ids).
  ASSERT_EQ(graph.vertices().size(), 7u);
  for (const Vertex& v : graph.vertices()) {
    EXPECT_EQ(v.members.size(), 1u);
  }
}

TEST(DependencyGraphTest, PaperFig4Edges) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  // Fig. 4a: vertex 2 (Auto Mode Change.presenceHandler) is the only
  // parent, with children 4 and 6.
  std::vector<int> children2 = graph.children()[2];
  std::sort(children2.begin(), children2.end());
  EXPECT_EQ(children2, (std::vector<int>{4, 6}));
  for (std::size_t v : {0u, 1u, 3u, 4u, 5u, 6u}) {
    EXPECT_TRUE(graph.children()[v].empty()) << v;
  }
}

TEST(DependencyGraphTest, PaperTable3aInitialSets) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  EXPECT_EQ(graph.Leaves(), (std::vector<int>{0, 1, 3, 4, 5, 6}));
  EXPECT_EQ(graph.AncestorClosure(4), (std::vector<int>{2, 4}));
  EXPECT_EQ(graph.AncestorClosure(6), (std::vector<int>{2, 6}));
  EXPECT_EQ(graph.AncestorClosure(0), (std::vector<int>{0}));
}

TEST(DependencyGraphTest, PaperTable3cFinalSets) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::vector<std::vector<int>> sets = SortedSets(ComputeRelatedSets(graph));
  // Table 3c: {3}, {2,4}, {0,1}, {1,5}, {1,2,6}.
  std::vector<std::vector<int>> expected = {
      {0, 1}, {1, 2, 6}, {1, 5}, {2, 4}, {3}};
  EXPECT_EQ(sets, expected);
}

TEST(DependencyGraphTest, ScaleStatsOnPaperExample) {
  auto apps = PaperExampleApps();
  ScaleStats stats =
      ComputeScaleStats(apps, ComputeRelatedSets(DependencyGraph::Build(apps)));
  EXPECT_EQ(stats.original_size, 7);
  EXPECT_EQ(stats.new_size, 3);  // {1, 2, 6}
  EXPECT_NEAR(stats.ratio, 7.0 / 3.0, 1e-9);
}

TEST(DependencyGraphTest, SccMerging) {
  // Two handlers feeding each other (switch/on <-> switch/off loop) must
  // merge into one composite vertex.
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(R"(
definition(name: "PingPong", namespace: "t")
preferences {
    section("S") {
        input "sw", "capability.switch", multiple: true
    }
}
def installed() {
    subscribe(sw, "switch.on", onHandler)
    subscribe(sw, "switch.off", offHandler)
}
def onHandler(evt) { sw.off() }
def offHandler(evt) { sw.on() }
)",
                                    "PingPong"));
  DependencyGraph graph = DependencyGraph::Build(apps);
  ASSERT_EQ(graph.vertices().size(), 1u);
  EXPECT_EQ(graph.vertices()[0].members.size(), 2u);
  // The composite vertex carries the union interface.
  EXPECT_GE(graph.vertices()[0].outputs.size(), 2u);
}

TEST(DependencyGraphTest, IndependentAppsStaySeparate) {
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(R"(
definition(name: "A", namespace: "t")
preferences { section("S") { input "m", "capability.motionSensor"
        input "sw", "capability.switch" } }
def installed() { subscribe(m, "motion.active", h) }
def h(evt) { sw.on() }
)",
                                   "A"));
  apps.push_back(ir::AnalyzeSource(R"(
definition(name: "B", namespace: "t")
preferences { section("S") { input "c", "capability.contactSensor"
        input "lock1", "capability.lock" } }
def installed() { subscribe(c, "contact.open", h) }
def h(evt) { lock1.lock() }
)",
                                   "B"));
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::vector<RelatedSet> sets = ComputeRelatedSets(graph);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].apps.size(), 1u);
  EXPECT_EQ(sets[1].apps.size(), 1u);
}

TEST(DependencyGraphTest, EmptyInput) {
  std::vector<ir::AnalyzedApp> apps;
  DependencyGraph graph = DependencyGraph::Build(apps);
  EXPECT_TRUE(graph.vertices().empty());
  EXPECT_TRUE(ComputeRelatedSets(graph).empty());
}

TEST(DependencyGraphTest, DotRenderingMentionsHandlers) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::string dot = graph.ToDot(apps);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Auto Mode Change.presenceHandler"),
            std::string::npos);
  EXPECT_NE(dot.find("v2 -> v4"), std::string::npos);
}

TEST(RelatedSetTest, SubsetsAreRemoved) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::vector<RelatedSet> sets = ComputeRelatedSets(graph);
  // No set may be a subset of another.
  for (const RelatedSet& a : sets) {
    for (const RelatedSet& b : sets) {
      if (&a == &b) continue;
      EXPECT_FALSE(std::includes(b.vertices.begin(), b.vertices.end(),
                                 a.vertices.begin(), a.vertices.end()))
          << "subset not removed";
    }
  }
}

TEST(RelatedSetTest, EveryVertexCovered) {
  auto apps = PaperExampleApps();
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::vector<RelatedSet> sets = ComputeRelatedSets(graph);
  std::vector<bool> covered(graph.vertices().size(), false);
  for (const RelatedSet& set : sets) {
    for (int v : set.vertices) covered[static_cast<std::size_t>(v)] = true;
  }
  for (std::size_t v = 0; v < covered.size(); ++v) {
    EXPECT_TRUE(covered[v]) << "vertex " << v << " uncovered";
  }
}

/// Property sweep over every expert group: related sets must cover all
/// vertices, contain no subset pairs, and the scale ratio is >= 1.
class GroupStructureTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupStructureTest, RelatedSetInvariants) {
  const corpus::SystemUnderTest& sut =
      corpus::ExpertGroups()[static_cast<std::size_t>(GetParam())];
  std::vector<ir::AnalyzedApp> apps;
  for (const config::AppConfig& instance : sut.deployment.apps) {
    const corpus::CorpusApp* base = corpus::FindApp(instance.app);
    const std::string& source = base != nullptr
                                    ? base->source
                                    : sut.extra_sources.at(instance.app);
    apps.push_back(ir::AnalyzeSource(source, instance.app));
  }
  DependencyGraph graph = DependencyGraph::Build(apps);
  std::vector<RelatedSet> sets = ComputeRelatedSets(graph);
  ASSERT_FALSE(sets.empty());

  std::vector<bool> covered(graph.vertices().size(), false);
  for (const RelatedSet& set : sets) {
    EXPECT_FALSE(set.vertices.empty());
    EXPECT_TRUE(std::is_sorted(set.vertices.begin(), set.vertices.end()));
    for (int v : set.vertices) covered[static_cast<std::size_t>(v)] = true;
  }
  for (std::size_t v = 0; v < covered.size(); ++v) {
    EXPECT_TRUE(covered[v]) << "vertex " << v << " uncovered";
  }
  for (const RelatedSet& a : sets) {
    for (const RelatedSet& b : sets) {
      if (&a == &b) continue;
      EXPECT_FALSE(std::includes(b.vertices.begin(), b.vertices.end(),
                                 a.vertices.begin(), a.vertices.end()));
    }
  }
  ScaleStats stats = ComputeScaleStats(apps, sets);
  EXPECT_GE(stats.ratio, 1.0);
  EXPECT_LE(stats.new_size, stats.original_size);
}

INSTANTIATE_TEST_SUITE_P(ExpertGroups, GroupStructureTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace iotsan::deps
