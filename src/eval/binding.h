#ifndef GPML_EVAL_BINDING_H_
#define GPML_EVAL_BINDING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "graph/path.h"
#include "graph/property_graph.h"
#include "semantics/analyze.h"

namespace gpml {

/// Interned variable ids for one compiled pattern. Two distinguished ids
/// represent the *reduced* anonymous node ("_") and edge ("-") variables of
/// §6.5: reduction maps every anonymous variable to one of them.
class VarTable {
 public:
  explicit VarTable(const Analysis& analysis);

  /// Id for `name`; -1 if unknown.
  int Find(const std::string& name) const;
  const VarInfo& info(int id) const { return infos_[static_cast<size_t>(id)]; }
  const std::string& name(int id) const {
    return infos_[static_cast<size_t>(id)].name;
  }
  int size() const { return static_cast<int>(infos_.size()); }

  int anon_node_id() const { return anon_node_id_; }
  int anon_edge_id() const { return anon_edge_id_; }

  /// Reduction (§6.5): named variables map to themselves, anonymous ones to
  /// the shared anonymous node/edge id.
  int Reduced(int id) const {
    const VarInfo& v = infos_[static_cast<size_t>(id)];
    if (!v.anonymous) return id;
    return v.kind == VarInfo::Kind::kEdge ? anon_edge_id_ : anon_node_id_;
  }

 private:
  std::vector<VarInfo> infos_;
  std::unordered_map<std::string, int> by_name_;
  int anon_node_id_ = -1;
  int anon_edge_id_ = -1;
};

/// An elementary binding (§6): one (variable, graph element) pair.
struct ElementaryBinding {
  int var = -1;
  ElementRef element;

  friend bool operator==(const ElementaryBinding& a,
                         const ElementaryBinding& b) {
    return a.var == b.var && a.element == b.element;
  }
};

/// The index of no record: ends a chain of WitnessLinks.
inline constexpr uint32_t kNoLink = 0xffffffffu;

/// One elementary binding on a path the search built, linked by index to
/// the binding before it (`prev`; kNoLink for the first) in the array that
/// holds it, so paths sharing a prefix share its links. An edge entry also
/// records its traversal direction and `node`, the node it reached, so the
/// matched Path and the restrictor memories (TRAIL's edges, ACYCLIC's and
/// SIMPLE's nodes) are read off the links; a node entry's `node` is its
/// node.
struct WitnessLink {
  ElementaryBinding binding;
  Traversal traversal = Traversal::kForward;  // Meaningful for edge entries.
  NodeId node = kInvalidId;
  uint32_t prev = kNoLink;
};

/// A completed, reduced path binding (§6.5): the deduplication unit and the
/// row content delivered to the hosts.
struct PathBinding {
  /// Reduced elementary bindings (anonymous vars merged, adjacency runs
  /// cleaned up per §6.3/§6.5).
  std::vector<ElementaryBinding> reduced;
  /// The matched path (start/end nodes are the selector partition key).
  Path path;
  /// Multiset-alternation provenance (§4.5): one entry per |+| traversed,
  /// identifying the branch; distinguishes otherwise-equal bindings.
  std::vector<int32_t> tags;

  /// All elements bound to `var` in sequence order (group collection).
  std::vector<ElementRef> ElementsOf(int var) const;
  /// Last element bound to `var`, if any.
  const ElementRef* LastOf(int var) const;

  bool SameReduced(const PathBinding& other) const {
    return reduced == other.reduced && tags == other.tags;
  }
  size_t ReducedHash() const;

  /// Debug/trace rendering: "a=a4 b=t4 _=a6 ...".
  std::string ToString(const PropertyGraph& g, const VarTable& vars) const;
};

/// Builds the reduced PathBinding of a path's bindings front-to-back
/// (`prev` and `node` are not read): collapses every run of consecutive
/// node bindings (which all refer to the same graph node) by keeping the
/// named ones — or a single anonymous binding if the run has no named
/// variable — and reconstructs the Path. Writes into `out`, reusing its
/// storage, so a caller that reduces into one scratch binding allocates
/// only the copies it keeps.
void ReduceBindings(const std::vector<WitnessLink>& raw, const VarTable& vars,
                    const std::vector<int32_t>& tags, PathBinding* out);

}  // namespace gpml

#endif  // GPML_EVAL_BINDING_H_
