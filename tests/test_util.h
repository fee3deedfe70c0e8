#ifndef GPML_TESTS_TEST_UTIL_H_
#define GPML_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "eval/engine.h"
#include "eval/matcher.h"
#include "eval/nfa.h"
#include "eval/reference_eval.h"
#include "gql/result_table.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "semantics/normalize.h"

namespace gpml {
namespace testing_util {

/// Runs `match_text` and projects `columns` ("x, y.owner, p"), returning
/// rows rendered as "v1|v2|..." strings, sorted for order-insensitive
/// comparison. Errors surface as a single "ERROR: ..." row so assertions
/// show the message.
inline std::vector<std::string> Rows(const PropertyGraph& g,
                                     const std::string& match_text,
                                     const std::string& columns,
                                     EngineOptions options = {}) {
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match(match_text);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  Result<std::vector<ReturnItem>> items = ParseColumns(columns);
  if (!items.ok()) return {"ERROR: " + items.status().ToString()};
  Result<Table> table = ProjectRows(*out, g, *items, /*distinct=*/false);
  if (!table.ok()) return {"ERROR: " + table.status().ToString()};
  std::vector<std::string> rows;
  rows.reserve(table->num_rows());
  for (const Row& r : table->rows()) {
    std::vector<std::string> cells;
    cells.reserve(r.size());
    for (const Value& v : r) cells.push_back(v.ToString());
    rows.push_back(Join(cells, "|"));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Number of result rows of a match (post-join, post-postfilter).
inline size_t CountRows(const PropertyGraph& g, const std::string& match_text,
                        EngineOptions options = {}) {
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match(match_text);
  if (!out.ok()) {
    ADD_FAILURE() << match_text << " -> " << out.status();
    return 0;
  }
  return out->rows.size();
}

/// The status of running a match (for error-path assertions).
inline Status MatchStatusOf(const PropertyGraph& g,
                            const std::string& match_text,
                            EngineOptions options = {}) {
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match(match_text);
  return out.ok() ? Status::OK() : out.status();
}

/// Sorted path renderings of the declaration's path variable `p`.
inline std::vector<std::string> Paths(const PropertyGraph& g,
                                      const std::string& match_text,
                                      EngineOptions options = {}) {
  return Rows(g, match_text, "p", options);
}

// ---------------------------------------------------------------------------
// The matcher harness: one declaration compiled and bound, run through
// RunPattern with no planner in between. A fast route's oracle is RunPattern
// on a copy of the same bound program with that route's plan cleared
// (`exact_visit_key` for the witness route, `batch` for the batch matcher).
// Free of gtest assertions, so the contract benches share it.
// ---------------------------------------------------------------------------

/// The first declaration of `text`, compiled the way Engine::Prepare
/// compiles a declaration but not planned: it runs as written, seeded by
/// the program's own label scan. `status` is the first failure.
struct CompiledDecl {
  Status status;
  GraphPattern normalized;
  std::shared_ptr<const VarTable> vars;
  Program program;
};

/// CompiledDecl, not yet bound to a graph.
inline CompiledDecl CompileDecl(const std::string& text) {
  CompiledDecl c;
  auto fail = [&](const Status& s) {
    c.status = Status(s.code(), text + " -> " + s.message());
    return std::move(c);
  };
  Result<GraphPattern> parsed = ParseGraphPattern(text);
  if (!parsed.ok()) return fail(parsed.status());
  Result<GraphPattern> normalized = Normalize(*parsed);
  if (!normalized.ok()) return fail(normalized.status());
  c.normalized = std::move(*normalized);
  Result<Analysis> analysis = Analyze(c.normalized);
  if (!analysis.ok()) return fail(analysis.status());
  c.vars = std::make_shared<const VarTable>(*analysis);
  Result<Program> program = CompilePattern(c.normalized.paths[0], *c.vars);
  if (!program.ok()) return fail(program.status());
  c.program = std::move(*program);
  return c;
}

/// CompiledDecl bound to `g` with its batch and witness plans.
inline CompiledDecl Compile(const PropertyGraph& g, const std::string& text) {
  CompiledDecl c = CompileDecl(text);
  if (c.status.ok()) BindProgramToGraph(&c.program, g, c.vars.get());
  return c;
}

/// A MatchSet in order, each binding with its witness path spelled out.
inline std::vector<std::string> RenderMatchSet(const MatchSet& set,
                                               const PropertyGraph& g,
                                               const VarTable& vars) {
  std::vector<std::string> out;
  for (const PathBinding& pb : set.bindings) {
    std::string s =
        pb.ToString(g, vars) + " path=" + std::string(g.node_name(pb.path.Start()));
    for (size_t i = 0; i < pb.path.Length(); ++i) {
      s += " " + std::string(g.edge_name(pb.path.edges()[i])) + "/" +
           std::to_string(static_cast<int>(pb.path.traversals()[i])) + " ";
      s += g.node_name(pb.path.nodes()[i + 1]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// One RunPattern call: its status, ordered rendered rows, counters, route
/// and (with `partial`, kTruncate's partial delivery) whether a budget
/// tripped.
struct RouteRun {
  Status status;
  std::vector<std::string> rows;
  size_t seeds = 0;
  size_t steps = 0;
  MatchRoute route = MatchRoute::kDfs;
  size_t batch_blocks = 0;
  bool truncated = false;
};

/// The RouteRun of a finished RunPattern call.
inline RouteRun ToRouteRun(const Result<MatchSet>& set,
                           const MatchStats& stats, bool truncated,
                           const PropertyGraph& g, const VarTable& vars) {
  RouteRun run;
  run.status = set.ok() ? Status::OK() : set.status();
  if (set.ok()) run.rows = RenderMatchSet(*set, g, vars);
  run.seeds = stats.seeds;
  run.steps = stats.steps;
  run.route = stats.route;
  run.batch_blocks = stats.batch_blocks;
  run.truncated = truncated;
  return run;
}

inline RouteRun RunOnce(const PropertyGraph& g, const Program& program,
                        const VarTable& vars, const MatcherOptions& options,
                        bool partial, const Params* params = nullptr) {
  MatchStats stats;
  bool exhausted = false;
  Result<MatchSet> set =
      RunPattern(g, program, vars, options, /*seed_filter=*/nullptr,
                 /*target_filter=*/nullptr, &stats, params,
                 /*shared_budget=*/nullptr, partial ? &exhausted : nullptr);
  return ToRouteRun(set, stats, exhausted, g, vars);
}

/// `prefix` is a prefix of `full`.
inline bool IsPrefix(const std::vector<std::string>& prefix,
                     const std::vector<std::string>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

// ---------------------------------------------------------------------------
// Row renderings, and the planner's oracle: the §6.5 reference join
// (RunReferencePattern).
// ---------------------------------------------------------------------------

/// One binding: its reduced elementary bindings and multiset-alternation
/// tags.
inline std::string RenderBinding(const PathBinding& pb, const VarTable& vars,
                                 const PropertyGraph& g) {
  std::string s = pb.ToString(g, vars);
  for (int32_t t : pb.tags) s += " #" + std::to_string(t);
  return s;
}

/// One result row: its bindings in declaration order, each followed by
/// " | ".
inline std::string RenderRow(const ResultRow& row, const MatchOutput& context,
                             const PropertyGraph& g) {
  std::string s;
  for (const auto& pb : row.bindings) {
    s += RenderBinding(*pb, *context.vars, g) + " | ";
  }
  return s;
}

/// Every row of `out`, in order: the byte-identity comparisons.
inline std::vector<std::string> OrderedRows(const MatchOutput& out,
                                            const PropertyGraph& g) {
  std::vector<std::string> rows;
  rows.reserve(out.rows.size());
  for (const ResultRow& row : out.rows) rows.push_back(RenderRow(row, out, g));
  return rows;
}

/// Rows of a match output as a sorted multiset, bindings in declaration
/// order. An ANY / ANY k / ANY SHORTEST / SHORTEST k declaration renders as
/// its endpoint pair (plus the path length under the SHORTEST kinds): which
/// witnesses it keeps per pair is the evaluator's choice, the pairs and
/// lengths are not.
inline std::vector<std::string> SortedRows(const MatchOutput& out,
                                           const PropertyGraph& g) {
  std::vector<std::string> rows;
  rows.reserve(out.rows.size());
  for (const ResultRow& row : out.rows) {
    std::string s;
    for (size_t d = 0; d < row.bindings.size(); ++d) {
      const PathBinding& pb = *row.bindings[d];
      const Selector::Kind kind = out.normalized.paths[d].selector.kind;
      const bool shortest = kind == Selector::Kind::kAnyShortest ||
                            kind == Selector::Kind::kShortestK;
      if (shortest || kind == Selector::Kind::kAny ||
          kind == Selector::Kind::kAnyK) {
        s += g.node_name(pb.path.Start());
        s += "->";
        s += g.node_name(pb.path.End());
        if (shortest) {
          s += " len=" + std::to_string(pb.path.Length());
        }
      } else {
        s += RenderBinding(pb, *out.vars, g);
      }
      s += " | ";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// SortedRows of the §6.5 reference join of `text`; a failure is a single
/// "ERROR: ..." row.
inline std::vector<std::string> ReferenceJoinRows(
    const PropertyGraph& g, const std::string& text,
    const ReferenceOptions& options = {}) {
  Result<GraphPattern> parsed = ParseGraphPattern(text);
  if (!parsed.ok()) return {"ERROR: " + parsed.status().ToString()};
  Result<GraphPattern> normalized = Normalize(*parsed);
  if (!normalized.ok()) return {"ERROR: " + normalized.status().ToString()};
  Result<Analysis> analysis = Analyze(*normalized);
  if (!analysis.ok()) return {"ERROR: " + analysis.status().ToString()};
  Result<MatchOutput> out = RunReferencePattern(
      g, *normalized, std::make_shared<const VarTable>(*analysis), options);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  return SortedRows(*out, g);
}

/// SortedRows of the engine's (planned) execution of `text`.
inline std::vector<std::string> EngineJoinRows(const PropertyGraph& g,
                                               const std::string& text,
                                               EngineOptions options = {}) {
  Result<MatchOutput> out = Engine(g, options).Match(text);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  return SortedRows(*out, g);
}

/// One element of a graph's builder input, kept as plain data.
struct ElementInput {
  std::string name;
  std::vector<std::string> labels;
  std::vector<std::pair<std::string, Value>> properties;
  std::string from{};     // Edges only.
  std::string to{};       // Edges only.
  bool directed = true;   // Edges only.
};

/// A graph's builder input, so a test can check the built store against
/// exactly what went in.
struct GraphInput {
  std::vector<ElementInput> nodes;
  std::vector<ElementInput> edges;

  PropertyGraph Build() const {
    GraphBuilder b;
    std::vector<std::string_view> labels;
    std::vector<PropertyArg> props;
    auto views = [&](const ElementInput& in) {
      labels.assign(in.labels.begin(), in.labels.end());
      props.clear();
      for (const auto& [k, v] : in.properties) props.push_back({k, v});
    };
    for (const ElementInput& n : nodes) {
      views(n);
      b.AddNode(n.name, labels, props);
    }
    for (const ElementInput& e : edges) {
      views(e);
      if (e.directed) {
        b.AddDirectedEdge(e.name, e.from, e.to, labels, props);
      } else {
        b.AddUndirectedEdge(e.name, e.from, e.to, labels, props);
      }
    }
    return std::move(b).Build().value();
  }
};

/// A random mixed multigraph as builder input: directed and undirected
/// edges, parallel edges and self-loops (endpoints collide at small sizes),
/// elements with zero to two labels (repeats included) and zero to three
/// properties, among them explicit NULLs and repeated keys.
inline GraphInput RandomGraphInput(int num_nodes, int num_edges,
                                   int num_labels, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  auto element = [&](const std::string& name) {
    ElementInput in;
    in.name = name;
    for (int i = pick(3); i > 0; --i) {
      in.labels.push_back("L" + std::to_string(pick(num_labels)));
    }
    for (int i = pick(4); i > 0; --i) {
      std::string key = std::string(1, static_cast<char>('a' + pick(4)));
      in.properties.emplace_back(key, pick(5) == 0 ? Value::Null()
                                                   : Value::Int(pick(100)));
    }
    return in;
  };
  GraphInput input;
  for (int i = 0; i < num_nodes; ++i) {
    input.nodes.push_back(element("v" + std::to_string(i)));
  }
  for (int i = 0; i < num_edges; ++i) {
    ElementInput e = element("e" + std::to_string(i));
    e.from = "v" + std::to_string(pick(num_nodes));
    e.to = "v" + std::to_string(pick(num_nodes));
    e.directed = pick(3) != 0;
    input.edges.push_back(std::move(e));
  }
  return input;
}

/// Checks every label and property accessor of `g` against `input`: the
/// labels deduplicated and in name order, each present key in name order
/// with its last value (an explicit NULL is present), every other key NULL,
/// and the names and endpoints.
inline void ExpectStoreMatchesInput(const PropertyGraph& g,
                                    const GraphInput& input) {
  ASSERT_EQ(g.num_nodes(), input.nodes.size());
  ASSERT_EQ(g.num_edges(), input.edges.size());
  const SymbolTable& keys = g.property_symbols();
  auto check = [&](const ElementInput& in, ElementRef ref) {
    std::set<std::string> label_set(in.labels.begin(), in.labels.end());
    std::vector<std::string> labels(label_set.begin(), label_set.end());
    EXPECT_EQ(g.name(ref), in.name);
    EXPECT_EQ(g.LabelNames(ref), labels) << in.name;
    SymSpan syms = g.label_syms(ref);
    EXPECT_EQ(syms.count, labels.size()) << in.name;
    EXPECT_TRUE(std::is_sorted(syms.begin(), syms.end())) << in.name;
    uint64_t bits = 0;
    for (const std::string& l : labels) {
      EXPECT_TRUE(g.HasLabel(ref, l)) << in.name << ":" << l;
      Symbol s = g.label_symbols().Find(l);
      EXPECT_TRUE(std::binary_search(syms.begin(), syms.end(), s)) << l;
      if (g.label_bits_usable()) bits |= uint64_t{1} << s;
    }
    EXPECT_FALSE(g.HasLabel(ref, "NoSuchLabel"));
    if (g.label_bits_usable()) {
      EXPECT_EQ(ref.is_node() ? g.node_label_bits(ref.id)
                              : g.edge_label_bits(ref.id),
                bits)
          << in.name;
    }
    std::map<std::string, Value> props;
    for (const auto& [k, v] : in.properties) props[k] = v;
    std::vector<std::string> want_keys, got_keys;
    for (const auto& [k, v] : props) want_keys.push_back(k);
    for (Symbol k : g.property_keys(ref)) got_keys.push_back(keys.name(k));
    EXPECT_EQ(got_keys, want_keys) << in.name;
    for (const auto& [k, v] : props) {
      EXPECT_EQ(g.GetPropertyFast(ref, k), v) << in.name << "." << k;
      EXPECT_EQ(g.GetPropertyFast(ref, k).type(), v.type())
          << in.name << "." << k;
    }
    for (Symbol k = 0; k < keys.size(); ++k) {
      if (props.count(keys.name(k)) == 0) {
        EXPECT_TRUE(g.ColumnValue(ref, k).is_null())
            << in.name << "." << keys.name(k);
      }
    }
    EXPECT_TRUE(g.GetPropertyFast(ref, "no_such_key").is_null());
  };
  for (NodeId n = 0; n < input.nodes.size(); ++n) {
    EXPECT_EQ(g.FindNode(input.nodes[n].name), n);
    check(input.nodes[n], ElementRef::Node(n));
  }
  for (EdgeId e = 0; e < input.edges.size(); ++e) {
    const ElementInput& in = input.edges[e];
    EXPECT_EQ(g.FindEdge(in.name), e);
    EXPECT_EQ(g.edge(e).directed, in.directed) << in.name;
    EXPECT_EQ(g.edge(e).u, g.FindNode(in.from)) << in.name;
    EXPECT_EQ(g.edge(e).v, g.FindNode(in.to)) << in.name;
    check(in, ElementRef::Edge(e));
  }
}

}  // namespace testing_util
}  // namespace gpml

#endif  // GPML_TESTS_TEST_UTIL_H_
