#ifndef GPML_BASELINE_RPQ_NFA_H_
#define GPML_BASELINE_RPQ_NFA_H_

#include <string>
#include <utility>
#include <vector>

#include "baseline/regex.h"
#include "common/result.h"
#include "graph/path.h"
#include "graph/property_graph.h"

namespace gpml {
namespace baseline {

/// Thompson NFA over edge-label steps (forward / inverse), the classical
/// machinery for RPQ evaluation (§3, §8). States are dense ints; transitions
/// are label steps or epsilons.
struct RpqNfa {
  struct Step {
    int from = 0;
    int to = 0;
    bool epsilon = true;
    bool inverse = false;   // Inverse step traverses edges backwards.
    std::string label;
  };
  int num_states = 0;
  int start = 0;
  int accept = 0;
  std::vector<Step> steps;

  /// Adjacency by source state, built on construction.
  std::vector<std::vector<int>> out;  // Indices into steps.
};

RpqNfa BuildNfa(const Regex& regex);

/// SPARQL-style endpoint semantics (§3): the set of node pairs (x, y)
/// connected by a path matching the regex. Existence only — no paths are
/// materialized, which is why this baseline stays polynomial where path
/// enumeration cannot (the paper's §5/§8 discussion).
std::vector<std::pair<NodeId, NodeId>> EvalReachability(
    const PropertyGraph& g, const RpqNfa& nfa);

/// As above but restricted to a single source node.
std::vector<NodeId> EvalReachableFrom(const PropertyGraph& g,
                                      const RpqNfa& nfa, NodeId source);

/// Product-automaton BFS shortest path from `source` to `target` under the
/// regex — the §7.2 research question ("shortest path queries with arbitrary
/// regular expressions") answered with the textbook construction. NotFound
/// when no path matches.
Result<Path> ShortestRegexPath(const PropertyGraph& g, const RpqNfa& nfa,
                               NodeId source, NodeId target);

}  // namespace baseline
}  // namespace gpml

#endif  // GPML_BASELINE_RPQ_NFA_H_
