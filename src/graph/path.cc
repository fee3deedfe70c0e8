#include "graph/path.h"

#include <unordered_set>

#include "common/strings.h"

namespace gpml {

Path Path::Reversed() const {
  Path out;
  out.nodes_.assign(nodes_.rbegin(), nodes_.rend());
  out.edges_.assign(edges_.rbegin(), edges_.rend());
  out.traversals_.reserve(traversals_.size());
  for (size_t i = traversals_.size(); i-- > 0;) {
    Traversal t = traversals_[i];
    if (t == Traversal::kForward) {
      t = Traversal::kBackward;
    } else if (t == Traversal::kBackward) {
      t = Traversal::kForward;
    }
    out.traversals_.push_back(t);
  }
  return out;
}

void Path::Concatenate(const Path& tail) {
  if (tail.IsEmpty()) return;
  if (IsEmpty()) {
    *this = tail;
    return;
  }
  for (size_t i = 0; i < tail.edges_.size(); ++i) {
    Append(tail.edges_[i], tail.traversals_[i], tail.nodes_[i + 1]);
  }
}

bool Path::IsTrail() const {
  std::unordered_set<EdgeId> seen;
  for (EdgeId e : edges_) {
    if (!seen.insert(e).second) return false;
  }
  return true;
}

bool Path::IsAcyclic() const {
  std::unordered_set<NodeId> seen;
  for (NodeId n : nodes_) {
    if (!seen.insert(n).second) return false;
  }
  return true;
}

bool Path::IsSimple() const {
  if (nodes_.size() <= 1) return true;
  std::unordered_set<NodeId> seen;
  // Interior nodes must be unique; the last node may only coincide with the
  // first (closing a cycle).
  for (size_t i = 0; i + 1 < nodes_.size(); ++i) {
    if (!seen.insert(nodes_[i]).second) return false;
  }
  NodeId last = nodes_.back();
  if (seen.count(last) > 0 && last != nodes_.front()) return false;
  return true;
}

std::string Path::ToString(const PropertyGraph& g) const {
  std::vector<std::string> parts;
  parts.reserve(nodes_.size() + edges_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    parts.emplace_back(g.node_name(nodes_[i]));
    if (i < edges_.size()) parts.emplace_back(g.edge_name(edges_[i]));
  }
  return "path(" + Join(parts, ",") + ")";
}

size_t Path::Hash() const {
  size_t h = 0x9ae16a3b2f90404fULL;
  for (NodeId n : nodes_) h = HashCombine(h, n);
  for (EdgeId e : edges_) h = HashCombine(h, 0x100000000ULL + e);
  return h;
}

}  // namespace gpml
