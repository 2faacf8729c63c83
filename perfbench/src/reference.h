// Independent reference answers for the query checks.
//
// Everything here is computed from the raw node list (vector clocks,
// page sets) and the raw recorded edge list by brute force -- never
// through cpg::Graph's index (rank, CSR adjacency, page buckets) and
// never through a query engine -- so an index or engine bug shows up
// as a disagreement instead of being reproduced. The definitions
// follow tests/query_index_property_test.cpp and cpg/graph.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cpg/graph.h"
#include "cpg/node.h"
#include "query/query.h"

namespace perfbench {

class Reference {
 public:
  Reference(std::span<const inspector::cpg::SubComputation> nodes,
            std::span<const inspector::cpg::Edge> edges);

  /// Program order within a thread, vector-clock order across threads.
  [[nodiscard]] bool happens_before(inspector::cpg::NodeId a,
                                    inspector::cpg::NodeId b) const;
  [[nodiscard]] inspector::query::Ordering ordering(
      inspector::cpg::NodeId a, inspector::cpg::NodeId b) const;

  /// Page accessors by a scan over every node, ascending id.
  [[nodiscard]] std::vector<inspector::cpg::NodeId> writers_of(
      std::uint64_t page) const;
  [[nodiscard]] std::vector<inspector::cpg::NodeId> readers_of(
      std::uint64_t page) const;

  /// Every earlier (happens-before) writer of a page the node reads,
  /// one edge per page; sorted by (from, to, page).
  [[nodiscard]] std::vector<inspector::cpg::Edge> data_dependencies(
      inspector::cpg::NodeId reader) const;
  /// The data dependencies not superseded by a later writer of the same
  /// page; sorted by (from, to, page).
  [[nodiscard]] std::vector<inspector::cpg::Edge> latest_writers(
      inspector::cpg::NodeId reader) const;

  /// BFS over the raw edge list plus brute-force data edges; ascending.
  [[nodiscard]] std::vector<inspector::cpg::NodeId> backward_slice(
      inspector::cpg::NodeId start) const;
  [[nodiscard]] std::vector<inspector::cpg::NodeId> forward_slice(
      inspector::cpg::NodeId start) const;

  /// Longest chain of recorded edges, in nodes (DP in Kahn order).
  [[nodiscard]] std::uint64_t longest_chain() const;
  /// True when the raw edge list records from -> to.
  [[nodiscard]] bool has_edge(inspector::cpg::NodeId from,
                              inspector::cpg::NodeId to) const;

  [[nodiscard]] inspector::cpg::GraphStats stats() const;

 private:
  std::span<const inspector::cpg::SubComputation> nodes_;
  std::span<const inspector::cpg::Edge> edges_;
  std::vector<std::vector<inspector::cpg::NodeId>> preds_;
  std::vector<std::vector<inspector::cpg::NodeId>> succs_;
};

/// Canonical (from, to, page) order for edge-list comparisons.
void sort_edges(std::vector<inspector::cpg::Edge>& edges);

}  // namespace perfbench
