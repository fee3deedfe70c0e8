// Invariants of the interned storage layer (docs/storage.md): the
// label-partitioned CSR must contain, for every (node, label) pair, exactly
// the adjacency records whose edge carries the label — in adjacency-list
// order, so a bucket scan visits successors exactly as a label-filtered
// full scan would. The label runs and bitsets, the property-key runs and
// columns, and the equality seed index are checked against each other and,
// where the test builds the graph itself, against its builder input, on the
// paper graph, generated graphs (undirected edges, parallel edges,
// self-loops), and a graph whose label universe exceeds the 64-bit masks.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/label_expr.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// Legacy reference: the adjacency records of `n` whose edge carries
/// `label`, in adjacency-list order.
std::vector<Adjacency> FilteredAdjacency(const PropertyGraph& g, NodeId n,
                                         const std::string& label) {
  std::vector<Adjacency> out;
  for (const Adjacency& adj : g.adjacencies(n)) {
    if (g.HasLabel(ElementRef::Edge(adj.edge), label)) out.push_back(adj);
  }
  return out;
}

bool SameRecords(const std::vector<Adjacency>& want, AdjSpan got) {
  if (want.size() != got.count) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const Adjacency& a = want[i];
    const Adjacency& b = got.data[i];
    if (a.edge != b.edge || a.neighbor != b.neighbor ||
        a.traversal != b.traversal) {
      return false;
    }
  }
  return true;
}

/// Every storage-layer invariant on one graph; with `input`, also every
/// label and property accessor against the builder input.
void CheckGraph(const PropertyGraph& g,
                const testing_util::GraphInput* input = nullptr) {
  const SymbolTable& labels = g.label_symbols();
  if (input != nullptr) testing_util::ExpectStoreMatchesInput(g, *input);

  // --- label runs: sorted, unique, named by LabelNames, mirrored by bits.
  auto check_labels = [&](ElementRef ref, uint64_t got_bits) {
    SymSpan syms = g.label_syms(ref);
    ASSERT_TRUE(std::adjacent_find(syms.begin(), syms.end(),
                                   [](Symbol a, Symbol b) { return a >= b; }) ==
                syms.end());
    std::vector<std::string> names;
    uint64_t bits = 0;
    for (Symbol s : syms) {
      ASSERT_LT(s, labels.size());
      names.push_back(labels.name(s));
      if (g.label_bits_usable()) bits |= uint64_t{1} << s;
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(g.LabelNames(ref), names);
    for (const std::string& l : names) EXPECT_TRUE(g.HasLabel(ref, l)) << l;
    if (g.label_bits_usable()) {
      EXPECT_EQ(got_bits, bits);
    }
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    check_labels(ElementRef::Node(n), g.node_label_bits(n));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    check_labels(ElementRef::Edge(e), g.edge_label_bits(e));
  }

  // --- CSR ranges equal the filtered legacy adjacency for every (node,
  // label) pair, including labels absent at the node (empty range).
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    size_t bucket_total = 0;
    for (Symbol s = 0; s < labels.size(); ++s) {
      std::vector<Adjacency> want = FilteredAdjacency(g, n, labels.name(s));
      AdjSpan got = g.csr().Range(n, s);
      EXPECT_TRUE(SameRecords(want, got))
          << "node " << n << " label " << labels.name(s) << ": want "
          << want.size() << " records, got " << got.count;
      bucket_total += got.count;
    }
    // Cross-check the partition sizes: every record of a k-labeled edge
    // appears in exactly k buckets.
    size_t want_total = 0;
    for (const Adjacency& adj : g.adjacencies(n)) {
      want_total += g.edge_label_syms(adj.edge).count;
    }
    EXPECT_EQ(bucket_total, want_total) << "node " << n;
    // Unknown symbols yield empty ranges, never out-of-bounds.
    EXPECT_EQ(g.csr().Range(n, static_cast<Symbol>(labels.size())).count,
              0u);
  }

  // --- property-key runs: unique and in name order; the columns hold a
  // value only under a present key, and lookup by name reads the column.
  const SymbolTable& keys = g.property_symbols();
  auto check_properties = [&](ElementRef ref) {
    SymSpan run = g.property_keys(ref);
    for (size_t i = 1; i < run.count; ++i) {
      EXPECT_LT(keys.name(run.data[i - 1]), keys.name(run.data[i]));
    }
    for (Symbol k = 0; k < keys.size(); ++k) {
      bool present = std::find(run.begin(), run.end(), k) != run.end();
      ValueView v = g.ColumnValue(ref, k);
      if (!present) {
        EXPECT_TRUE(v.is_null()) << keys.name(k);
      }
      EXPECT_EQ(g.GetPropertyFast(ref, keys.name(k)), v) << keys.name(k);
    }
    EXPECT_TRUE(g.GetPropertyFast(ref, "no_such_key").is_null());
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    check_properties(ElementRef::Node(n));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    check_properties(ElementRef::Edge(e));
  }

  // --- equality seed index: for every (label, key, value) present on some
  // labeled node, the index returns exactly the scan result in ascending
  // node-id order (nothing for NULL: `= NULL` never selects).
  auto has_key = [&](NodeId m, Symbol k) {
    SymSpan run = g.property_keys(ElementRef::Node(m));
    return std::find(run.begin(), run.end(), k) != run.end();
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const std::string& label : g.LabelNames(ElementRef::Node(n))) {
      for (Symbol k : g.property_keys(ElementRef::Node(n))) {
        ValueView value = g.NodeColumnValue(k, n);
        std::vector<NodeId> want;
        for (NodeId m = 0; m < g.num_nodes() && !value.is_null(); ++m) {
          if (g.HasLabel(ElementRef::Node(m), label) && has_key(m, k) &&
              g.NodeColumnValue(k, m) == value) {
            want.push_back(m);
          }
        }
        IdSpan got = g.IndexedNodes(label, keys.name(k), value);
        EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
            << label << "." << keys.name(k) << " = " << value;
      }
    }
  }
  EXPECT_TRUE(g.IndexedNodes("NoSuchLabel", "k", Value::Int(1)).empty());
  EXPECT_TRUE(g.IndexedNodes("", "", Value::Null()).empty());
}

TEST(CsrIndexTest, PaperGraph) { CheckGraph(BuildPaperGraph()); }

TEST(CsrIndexTest, FraudGraph) {
  FraudGraphOptions options;
  options.num_accounts = 60;
  options.num_cities = 3;
  CheckGraph(MakeFraudGraph(options));
}

TEST(CsrIndexTest, GeneratedGraphs) {
  // Mixed directed/undirected multigraphs with parallel edges and
  // self-loops (random endpoints collide at this density).
  for (uint64_t seed : {1u, 2u, 3u, 7u}) {
    CheckGraph(MakeRandomGraph(/*num_nodes=*/8, /*num_edges=*/40,
                               /*num_labels=*/3,
                               /*undirected_fraction=*/0.4, seed));
  }
  CheckGraph(MakeChainGraph(12));
  CheckGraph(MakeDiamondChain(3));
  // The same shapes from the test's own input, checked against it.
  for (uint64_t seed : {1u, 2u, 3u, 7u}) {
    testing_util::GraphInput input =
        testing_util::RandomGraphInput(/*num_nodes=*/8, /*num_edges=*/40,
                                       /*num_labels=*/3, seed);
    CheckGraph(input.Build(), &input);
  }
}

TEST(CsrIndexTest, SelfLoopsAndParallelEdges) {
  testing_util::GraphInput input;
  input.nodes = {{"a", {"A", "B"}, {{"w", Value::Int(1)}}},
                 {"b", {"A"}, {{"w", Value::Int(1)}}}};
  input.edges = {
      {"d1", {"T"}, {}, "a", "a", true},        // Directed self-loop.
      {"u1", {"T", "S"}, {}, "b", "b", false},  // Undirected loop.
      {"d2", {"T"}, {}, "a", "b", true},        // Parallel pair...
      {"d3", {"T"}, {}, "a", "b", true},
      {"u2", {"S"}, {}, "a", "b", false},
      {"plain", {}, {}, "a", "b", true},        // Label-less.
  };
  PropertyGraph g = input.Build();
  CheckGraph(g, &input);

  // The directed self-loop contributes forward and backward records to one
  // bucket; the undirected loop exactly one record.
  NodeId a = g.FindNode("a");
  NodeId bn = g.FindNode("b");
  Symbol t = g.label_symbols().Find("T");
  Symbol s = g.label_symbols().Find("S");
  EXPECT_EQ(g.csr().Range(a, t).count, 4u);  // d1 fwd+bwd, d2, d3.
  EXPECT_EQ(g.csr().Range(bn, t).count, 3u);  // u1 once, d2+d3 backward.
  EXPECT_EQ(g.csr().Range(a, s).count, 1u);
  EXPECT_EQ(g.csr().Range(bn, s).count, 2u);  // u1 + u2.
}

TEST(CsrIndexTest, CompiledLabelPredsAgreeWithStringMatching) {
  PropertyGraph g = MakeRandomGraph(10, 30, 4, 0.3, /*seed=*/5);
  const SymbolTable& labels = g.label_symbols();
  ASSERT_TRUE(g.label_bits_usable());

  std::vector<LabelExprPtr> exprs = {
      nullptr,
      LabelExpr::Name("L0"),
      LabelExpr::Name("Unknown"),
      LabelExpr::Wildcard(),
      LabelExpr::And(LabelExpr::Name("L0"), LabelExpr::Name("L1")),
      LabelExpr::Or(LabelExpr::Name("L0"), LabelExpr::Name("L2")),
      LabelExpr::Or(LabelExpr::Name("Unknown"), LabelExpr::Name("L1")),
      LabelExpr::Not(LabelExpr::Name("L0")),
      LabelExpr::Not(LabelExpr::Wildcard()),
      LabelExpr::And(LabelExpr::Not(LabelExpr::Name("L0")),
                     LabelExpr::Or(LabelExpr::Name("L1"),
                                   LabelExpr::Name("L2"))),
      LabelExpr::Or(LabelExpr::And(LabelExpr::Name("L0"),
                                   LabelExpr::Name("Unknown")),
                    LabelExpr::Not(LabelExpr::Name("L3"))),
  };
  for (bool use_bits : {true, false}) {
    for (const LabelExprPtr& expr : exprs) {
      CompiledLabelPred pred =
          CompiledLabelPred::Compile(expr, labels, use_bits);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        SymSpan syms = g.node_label_syms(n);
        bool want = expr == nullptr ||
                    expr->Matches(g.LabelNames(ElementRef::Node(n)));
        EXPECT_EQ(pred.Matches(use_bits ? g.node_label_bits(n) : 0,
                               syms.data, syms.count),
                  want)
            << (expr ? expr->ToString() : "<null>") << " on node " << n
            << " bits=" << use_bits;
      }
    }
  }
}

TEST(CsrIndexTest, LabelUniverseBeyondBitsetStillExact) {
  // 70 distinct labels: the bitset representation is unusable and every
  // path (predicates, CSR, seeding) must fall back to symbol arrays.
  testing_util::GraphInput input;
  const int kNodes = 70;
  for (int i = 0; i < kNodes; ++i) {
    input.nodes.push_back({"n" + std::to_string(i),
                           {"L" + std::to_string(i), "Common"},
                           {{"w", Value::Int(i % 7)}}});
  }
  for (int i = 0; i < kNodes; ++i) {
    input.edges.push_back({"e" + std::to_string(i),
                           {"E" + std::to_string(i % 5)},
                           {},
                           "n" + std::to_string(i),
                           "n" + std::to_string((i + 1) % kNodes)});
  }
  PropertyGraph g = input.Build();
  ASSERT_FALSE(g.label_bits_usable());
  CheckGraph(g, &input);

  // End-to-end through the engine: the conjunction must match, and the
  // row must be the one the §6 reference evaluator finds.
  const std::string q =
      "MATCH (x:L3&Common)-[:E3]->(y:Common WHERE y.w < 5)";
  std::vector<std::string> rows = testing_util::EngineJoinRows(g, q);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows, testing_util::ReferenceJoinRows(g, q));
}

TEST(CsrIndexTest, ConjunctionSeedsFromMostSelectiveConjunct) {
  // Paper graph: 2 Country nodes, 1 City node (c2 is City & Country). The
  // conjunction must seed from the City index (1 node), not all nodes.
  PropertyGraph g = BuildPaperGraph();
  // The matcher's own seeding rule: the compiled program, no plan.
  testing_util::CompiledDecl c =
      testing_util::Compile(g, "MATCH (x:City&Country)");
  ASSERT_TRUE(c.status.ok()) << c.status;
  MatchStats stats;
  Result<MatchSet> set = RunPattern(g, c.program, *c.vars, MatcherOptions(),
                                    nullptr, nullptr, &stats);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->bindings.size(), 1u);
  EXPECT_EQ(stats.seeds, 1u);

  // The planner's estimate mirrors the same rule (EXPLAIN seeds~1).
  EngineMetrics metrics;
  EngineOptions planned;
  planned.metrics = &metrics;
  Result<MatchOutput> out2 =
      Engine(g, planned).Match("MATCH (x:City&Country)");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->rows.size(), 1u);
  EXPECT_EQ(metrics.seeded_nodes, 1u);
}

TEST(CsrIndexTest, SymbolTableRoundtrip) {
  SymbolTable t;
  EXPECT_EQ(t.Find("x"), kInvalidSymbol);
  Symbol a = t.Intern("alpha");
  Symbol b = t.Intern("beta");
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Find("alpha"), a);
  EXPECT_EQ(t.name(b), "beta");
  EXPECT_EQ(t.size(), 2u);
}

}  // namespace
}  // namespace gpml
