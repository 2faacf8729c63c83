#include "reference.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace perfbench {

using inspector::cpg::Edge;
using inspector::cpg::EdgeKind;
using inspector::cpg::NodeId;
using inspector::cpg::SubComputation;

namespace {

bool contains(const inspector::PageSet& set, std::uint64_t page) {
  for (std::uint64_t p : set) {
    if (p == page) return true;
  }
  return false;
}

}  // namespace

void sort_edges(std::vector<Edge>& edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.object < b.object;
  });
}

Reference::Reference(std::span<const SubComputation> nodes,
                     std::span<const Edge> edges)
    : nodes_(nodes),
      edges_(edges),
      preds_(nodes.size()),
      succs_(nodes.size()) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].id != i) throw std::invalid_argument("node ids not dense");
  }
  for (const Edge& e : edges_) {
    preds_.at(e.to).push_back(e.from);
    succs_.at(e.from).push_back(e.to);
  }
}

bool Reference::happens_before(NodeId a, NodeId b) const {
  if (a == b) return false;
  const SubComputation& na = nodes_[a];
  const SubComputation& nb = nodes_[b];
  if (na.thread == nb.thread) return na.alpha < nb.alpha;
  return na.clock.compare(nb.clock) == inspector::vclock::Order::kBefore;
}

inspector::query::Ordering Reference::ordering(NodeId a, NodeId b) const {
  using inspector::query::Ordering;
  if (a == b) return Ordering::kEqual;
  if (happens_before(a, b)) return Ordering::kBefore;
  if (happens_before(b, a)) return Ordering::kAfter;
  return Ordering::kConcurrent;
}

std::vector<NodeId> Reference::writers_of(std::uint64_t page) const {
  std::vector<NodeId> out;
  for (const SubComputation& n : nodes_) {
    if (contains(n.write_set, page)) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Reference::readers_of(std::uint64_t page) const {
  std::vector<NodeId> out;
  for (const SubComputation& n : nodes_) {
    if (contains(n.read_set, page)) out.push_back(n.id);
  }
  return out;
}

std::vector<Edge> Reference::data_dependencies(NodeId reader) const {
  std::vector<Edge> out;
  for (const SubComputation& w : nodes_) {
    if (!happens_before(w.id, reader)) continue;
    for (std::uint64_t page : nodes_[reader].read_set) {
      if (contains(w.write_set, page)) {
        out.push_back({w.id, reader, EdgeKind::kData, page});
      }
    }
  }
  sort_edges(out);
  return out;
}

std::vector<Edge> Reference::latest_writers(NodeId reader) const {
  std::vector<Edge> out;
  for (std::uint64_t page : nodes_[reader].read_set) {
    std::vector<NodeId> candidates;
    for (const SubComputation& w : nodes_) {
      if (happens_before(w.id, reader) && contains(w.write_set, page)) {
        candidates.push_back(w.id);
      }
    }
    for (NodeId c : candidates) {
      const bool superseded =
          std::any_of(candidates.begin(), candidates.end(),
                      [&](NodeId d) { return happens_before(c, d); });
      if (!superseded) out.push_back({c, reader, EdgeKind::kData, page});
    }
  }
  sort_edges(out);
  return out;
}

std::vector<NodeId> Reference::backward_slice(NodeId start) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeId> queue{start};
  seen[start] = true;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    const auto visit = [&](NodeId n) {
      if (!seen[n]) {
        seen[n] = true;
        queue.push_back(n);
      }
    };
    for (NodeId p : preds_[cur]) visit(p);
    for (const Edge& e : data_dependencies(cur)) visit(e.from);
  }
  std::vector<NodeId> out;
  for (NodeId n = 0; n < seen.size(); ++n) {
    if (seen[n]) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> Reference::forward_slice(NodeId start) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeId> queue{start};
  seen[start] = true;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    const auto visit = [&](NodeId n) {
      if (!seen[n]) {
        seen[n] = true;
        queue.push_back(n);
      }
    };
    for (NodeId s : succs_[cur]) visit(s);
    for (const SubComputation& r : nodes_) {
      if (seen[r.id] || !happens_before(cur, r.id)) continue;
      for (std::uint64_t page : nodes_[cur].write_set) {
        if (contains(r.read_set, page)) {
          visit(r.id);
          break;
        }
      }
    }
  }
  std::vector<NodeId> out;
  for (NodeId n = 0; n < seen.size(); ++n) {
    if (seen[n]) out.push_back(n);
  }
  return out;
}

std::uint64_t Reference::longest_chain() const {
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::deque<NodeId> ready;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (indegree[n] == 0) ready.push_back(n);
  }
  std::vector<std::uint64_t> depth(nodes_.size(), 1);
  std::uint64_t best = nodes_.empty() ? 0 : 1;
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop_front();
    best = std::max(best, depth[u]);
    for (NodeId v : succs_[u]) {
      depth[v] = std::max(depth[v], depth[u] + 1);
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  return best;
}

bool Reference::has_edge(NodeId from, NodeId to) const {
  const auto& s = succs_.at(from);
  return std::find(s.begin(), s.end(), to) != s.end();
}

inspector::cpg::GraphStats Reference::stats() const {
  inspector::cpg::GraphStats s;
  s.nodes = nodes_.size();
  for (const Edge& e : edges_) {
    if (e.kind == EdgeKind::kControl) ++s.control_edges;
    if (e.kind == EdgeKind::kSync) ++s.sync_edges;
  }
  for (const SubComputation& n : nodes_) {
    s.threads = std::max<std::size_t>(s.threads, n.thread + 1);
    s.thunks += n.thunks.size();
    s.read_pages += n.read_set.size();
    s.write_pages += n.write_set.size();
  }
  return s;
}

}  // namespace perfbench
