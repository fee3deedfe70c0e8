#include "baseline/rpq_nfa.h"

#include <algorithm>
#include <deque>

namespace gpml {
namespace baseline {

namespace {

class NfaBuilder {
 public:
  RpqNfa Build(const Regex& r) {
    auto [s, a] = Compile(r);
    nfa_.start = s;
    nfa_.accept = a;
    nfa_.out.assign(static_cast<size_t>(nfa_.num_states), {});
    for (size_t i = 0; i < nfa_.steps.size(); ++i) {
      nfa_.out[static_cast<size_t>(nfa_.steps[i].from)].push_back(
          static_cast<int>(i));
    }
    return std::move(nfa_);
  }

 private:
  int NewState() { return nfa_.num_states++; }

  void Eps(int from, int to) {
    RpqNfa::Step s;
    s.from = from;
    s.to = to;
    s.epsilon = true;
    nfa_.steps.push_back(std::move(s));
  }

  void LabelStep(int from, int to, const std::string& label, bool inverse) {
    RpqNfa::Step s;
    s.from = from;
    s.to = to;
    s.epsilon = false;
    s.inverse = inverse;
    s.label = label;
    nfa_.steps.push_back(std::move(s));
  }

  std::pair<int, int> Compile(const Regex& r) {
    switch (r.kind) {
      case Regex::Kind::kLabel:
      case Regex::Kind::kInverse: {
        int s = NewState();
        int a = NewState();
        LabelStep(s, a, r.label, r.kind == Regex::Kind::kInverse);
        return {s, a};
      }
      case Regex::Kind::kConcat: {
        auto [ls, la] = Compile(*r.left);
        auto [rs, ra] = Compile(*r.right);
        Eps(la, rs);
        return {ls, ra};
      }
      case Regex::Kind::kUnion: {
        int s = NewState();
        int a = NewState();
        auto [ls, la] = Compile(*r.left);
        auto [rs, ra] = Compile(*r.right);
        Eps(s, ls);
        Eps(s, rs);
        Eps(la, a);
        Eps(ra, a);
        return {s, a};
      }
      case Regex::Kind::kStar: {
        int s = NewState();
        int a = NewState();
        auto [bs, ba] = Compile(*r.left);
        Eps(s, bs);
        Eps(s, a);
        Eps(ba, bs);
        Eps(ba, a);
        return {s, a};
      }
      case Regex::Kind::kPlus: {
        auto [bs, ba] = Compile(*r.left);
        int a = NewState();
        Eps(ba, bs);
        Eps(ba, a);
        return {bs, a};
      }
      case Regex::Kind::kOpt: {
        int s = NewState();
        int a = NewState();
        auto [bs, ba] = Compile(*r.left);
        Eps(s, bs);
        Eps(s, a);
        Eps(ba, a);
        return {s, a};
      }
    }
    return {NewState(), NewState()};
  }

  RpqNfa nfa_;
};

/// Product-state helpers: id = node * num_states + state.
inline size_t ProductId(NodeId n, int state, int num_states) {
  return static_cast<size_t>(n) * static_cast<size_t>(num_states) +
         static_cast<size_t>(state);
}

/// Admissible (edge, next-node) moves for a label step from `n`.
template <typename Fn>
void ForEachMove(const PropertyGraph& g, NodeId n, const RpqNfa::Step& step,
                 Fn&& fn) {
  const Symbol label = g.label_symbols().Find(step.label);
  if (label == kInvalidSymbol) return;
  for (const Adjacency& adj : g.adjacencies(n)) {
    // Baseline RPQs (SPARQL/CRPQ) treat graphs as directed edge-labelled:
    // forward steps follow edge direction, ^label steps go against it.
    // Undirected edges are admissible in both directions.
    bool forward_ok = adj.traversal == Traversal::kForward ||
                      adj.traversal == Traversal::kUndirected;
    bool backward_ok = adj.traversal == Traversal::kBackward ||
                       adj.traversal == Traversal::kUndirected;
    if (step.inverse ? !backward_ok : !forward_ok) continue;
    SymSpan labels = g.edge_label_syms(adj.edge);
    if (!std::binary_search(labels.begin(), labels.end(), label)) continue;
    fn(adj);
  }
}

}  // namespace

RpqNfa BuildNfa(const Regex& regex) {
  NfaBuilder b;
  return b.Build(regex);
}

std::vector<NodeId> EvalReachableFrom(const PropertyGraph& g,
                                      const RpqNfa& nfa, NodeId source) {
  const int ns = nfa.num_states;
  std::vector<bool> visited(g.num_nodes() * static_cast<size_t>(ns), false);
  std::deque<std::pair<NodeId, int>> queue;
  auto push = [&](NodeId n, int q) {
    size_t id = ProductId(n, q, ns);
    if (!visited[id]) {
      visited[id] = true;
      queue.push_back({n, q});
    }
  };
  push(source, nfa.start);

  std::vector<NodeId> reached;
  while (!queue.empty()) {
    auto [n, q] = queue.front();
    queue.pop_front();
    if (q == nfa.accept) reached.push_back(n);
    for (int si : nfa.out[static_cast<size_t>(q)]) {
      const RpqNfa::Step& step = nfa.steps[static_cast<size_t>(si)];
      if (step.epsilon) {
        push(n, step.to);
      } else {
        ForEachMove(g, n, step,
                    [&](const Adjacency& adj) { push(adj.neighbor, step.to); });
      }
    }
  }
  std::sort(reached.begin(), reached.end());
  reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
  return reached;
}

std::vector<std::pair<NodeId, NodeId>> EvalReachability(
    const PropertyGraph& g, const RpqNfa& nfa) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (NodeId m : EvalReachableFrom(g, nfa, n)) out.push_back({n, m});
  }
  return out;
}

Result<Path> ShortestRegexPath(const PropertyGraph& g, const RpqNfa& nfa,
                               NodeId source, NodeId target) {
  const int ns = nfa.num_states;
  struct Pred {
    size_t prev = SIZE_MAX;
    EdgeId edge = kInvalidId;
    Traversal traversal = Traversal::kForward;
    bool visited = false;
  };
  std::vector<Pred> pred(g.num_nodes() * static_cast<size_t>(ns));
  std::deque<std::pair<NodeId, int>> queue;

  auto push = [&](NodeId n, int q, size_t prev, EdgeId e, Traversal t) {
    size_t id = ProductId(n, q, ns);
    if (pred[id].visited) return;
    pred[id].visited = true;
    pred[id].prev = prev;
    pred[id].edge = e;
    pred[id].traversal = t;
    queue.push_back({n, q});
  };
  push(source, nfa.start, SIZE_MAX, kInvalidId, Traversal::kForward);

  // BFS with zero-cost epsilon edges handled eagerly: expand epsilons first
  // from each dequeued state (they do not add path length; BFS order over
  // edge steps stays correct because epsilon closure happens immediately).
  size_t accept_id = SIZE_MAX;
  while (!queue.empty() && accept_id == SIZE_MAX) {
    auto [n, q] = queue.front();
    queue.pop_front();
    size_t id = ProductId(n, q, ns);
    if (n == target && q == nfa.accept) {
      accept_id = id;
      break;
    }
    for (int si : nfa.out[static_cast<size_t>(q)]) {
      const RpqNfa::Step& step = nfa.steps[static_cast<size_t>(si)];
      if (step.epsilon) {
        // Zero-length move: inherit the predecessor record.
        size_t nid = ProductId(n, step.to, ns);
        if (!pred[nid].visited) {
          pred[nid] = pred[id];
          pred[nid].visited = true;
          queue.push_front({n, step.to});  // Front: zero-cost move.
          if (n == target && step.to == nfa.accept) {
            accept_id = nid;
            break;
          }
        }
      } else {
        ForEachMove(g, n, step, [&](const Adjacency& adj) {
          push(adj.neighbor, step.to, id, adj.edge, adj.traversal);
        });
      }
    }
  }

  if (accept_id == SIZE_MAX) {
    return Status::NotFound("no path matching the regex");
  }

  // Reconstruct the edge sequence.
  std::vector<std::pair<EdgeId, Traversal>> edges;
  for (size_t id = accept_id;
       id != SIZE_MAX && pred[id].edge != kInvalidId;) {
    edges.push_back({pred[id].edge, pred[id].traversal});
    id = pred[id].prev;
  }
  std::reverse(edges.begin(), edges.end());
  Path p(source);
  NodeId cur = source;
  for (auto& [e, t] : edges) {
    NodeId next = g.Cross(e, cur, t);
    p.Append(e, t, next);
    cur = next;
  }
  return p;
}

}  // namespace baseline
}  // namespace gpml
