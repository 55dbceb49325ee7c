// App Dependency Analyzer (paper §5).
//
// Builds the directed dependency graph over event handlers: an edge
// u -> v exists when u's output events overlap v's input events.
// Strongly connected components are merged into composite vertices.
// From the graph it derives *related sets* — the groups of handlers the
// model checker must co-analyze:
//   1. the initial related set of each leaf is the leaf plus all its
//      ancestors;
//   2. sets of vertices with conflicting outputs (switch/on vs
//      switch/off) are merged;
//   3. sets subsumed by a superset are dropped.
// The reduction from "all handlers" to "largest related set" is the
// scale ratio reported in the paper's Table 7a.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ir/analyzed_app.hpp"

namespace iotsan::deps {

/// Reference to one event handler of one app.
struct HandlerRef {
  int app = 0;      // index into the app span given to Build
  int handler = 0;  // index into that app's handlers
  bool operator==(const HandlerRef&) const = default;
};

/// A vertex of the dependency graph.  After SCC merging a vertex may be
/// composite (multiple handlers); its interface is the union of members'.
struct Vertex {
  std::vector<HandlerRef> members;
  std::vector<ir::EventPattern> inputs;
  std::vector<ir::EventPattern> outputs;
};

class DependencyGraph {
 public:
  /// Builds the graph over all handlers of `apps` (§5).  Matching is done
  /// on event types (attribute/value), as in the paper.
  static DependencyGraph Build(std::span<const ir::AnalyzedApp> apps);

  const std::vector<Vertex>& vertices() const { return vertices_; }
  const std::vector<std::vector<int>>& children() const { return children_; }
  const std::vector<std::vector<int>>& parents() const { return parents_; }

  /// Vertices with no children.
  std::vector<int> Leaves() const;

  /// All ancestors of `vertex` plus the vertex itself, sorted.
  std::vector<int> AncestorClosure(int vertex) const;

  /// Graphviz rendering for inspection.
  std::string ToDot(std::span<const ir::AnalyzedApp> apps) const;

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::vector<int>> children_;
  std::vector<std::vector<int>> parents_;
};

/// One related set: vertex ids plus the distinct apps they span.
struct RelatedSet {
  std::vector<int> vertices;  // sorted vertex ids
  std::vector<int> apps;      // sorted distinct app indices
  int handler_count = 0;      // total handlers across vertices
};

/// Computes the final related sets (steps 1-3 above).
std::vector<RelatedSet> ComputeRelatedSets(const DependencyGraph& graph);

/// Scale statistics for one app group (paper Table 7a).
struct ScaleStats {
  int original_size = 0;  // total number of event handlers
  int new_size = 0;       // handlers in the largest related set
  double ratio = 0;       // original / new
};

/// The scale of `apps` given their related `sets` (ComputeRelatedSets
/// over the graph of the same apps).
ScaleStats ComputeScaleStats(std::span<const ir::AnalyzedApp> apps,
                             std::span<const RelatedSet> sets);

}  // namespace iotsan::deps
