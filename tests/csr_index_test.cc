// Invariants of the interned storage layer (docs/storage.md): the
// label-partitioned CSR must contain, for every (node, label) pair, exactly
// the adjacency records whose edge carries the label — in adjacency-list
// order, so a bucket scan visits successors exactly as a label-filtered
// full scan would. The symbol tables, label bitsets, columnar property
// mirror, and equality seed index are all checked against the string-keyed
// originals on the paper graph, generated graphs (undirected edges,
// parallel edges, self-loops), and a graph whose label universe exceeds
// the 64-bit masks.

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
    if (g.edge(adj.edge).HasLabel(label)) out.push_back(adj);
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

/// Every storage-layer invariant on one graph.
void CheckGraph(const PropertyGraph& g) {
  const SymbolTable& labels = g.label_symbols();

  // --- label interning: per-element symbols and bitsets match the strings.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const NodeData& nd = g.node(n);
    SymSpan syms = g.node_label_syms(n);
    ASSERT_EQ(syms.count, nd.labels.size());
    ASSERT_TRUE(std::is_sorted(syms.begin(), syms.end()));
    uint64_t bits = 0;
    for (const std::string& l : nd.labels) {
      Symbol s = labels.Find(l);
      ASSERT_NE(s, kInvalidSymbol) << l;
      EXPECT_TRUE(std::binary_search(syms.begin(), syms.end(), s)) << l;
      if (g.label_bits_usable()) bits |= uint64_t{1} << s;
    }
    if (g.label_bits_usable()) {
      EXPECT_EQ(g.node_label_bits(n), bits);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeData& ed = g.edge(e);
    SymSpan syms = g.edge_label_syms(e);
    ASSERT_EQ(syms.count, ed.labels.size());
    for (const std::string& l : ed.labels) {
      EXPECT_TRUE(std::binary_search(syms.begin(), syms.end(),
                                     labels.Find(l)))
          << l;
    }
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
      want_total += g.edge(adj.edge).labels.size();
    }
    EXPECT_EQ(bucket_total, want_total) << "node " << n;
    // Unknown symbols yield empty ranges, never out-of-bounds.
    EXPECT_EQ(g.csr().Range(n, static_cast<Symbol>(labels.size())).count,
              0u);
  }

  // --- property columns mirror the string-keyed maps exactly.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const NodeData& nd = g.node(n);
    for (const auto& [key, value] : nd.properties) {
      EXPECT_EQ(g.GetPropertyFast(ElementRef::Node(n), key), value)
          << "node " << n << "." << key;
    }
    EXPECT_TRUE(
        g.GetPropertyFast(ElementRef::Node(n), "no_such_key").is_null());
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeData& ed = g.edge(e);
    for (const auto& [key, value] : ed.properties) {
      EXPECT_EQ(g.GetPropertyFast(ElementRef::Edge(e), key), value)
          << "edge " << e << "." << key;
    }
  }

  // --- equality seed index: for every (label, key, value) present on some
  // labeled node, the index returns exactly the scan result in ascending
  // node-id order.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const NodeData& nd = g.node(n);
    for (const std::string& label : nd.labels) {
      for (const auto& [key, value] : nd.properties) {
        std::vector<NodeId> want;
        for (NodeId m = 0; m < g.num_nodes(); ++m) {
          const NodeData& md = g.node(m);
          if (!md.HasLabel(label)) continue;
          auto it = md.properties.find(key);
          if (it != md.properties.end() && it->second == value) {
            want.push_back(m);
          }
        }
        EXPECT_EQ(g.IndexedNodes(label, key, value), want)
            << label << "." << key << " = " << value.ToString();
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
}

TEST(CsrIndexTest, SelfLoopsAndParallelEdges) {
  GraphBuilder b;
  b.AddNode("a", {"A", "B"}, {{"w", Value::Int(1)}});
  b.AddNode("b", {"A"}, {{"w", Value::Int(1)}});
  b.AddDirectedEdge("d1", "a", "a", {"T"});             // Directed self-loop.
  b.AddUndirectedEdge("u1", "b", "b", {"T", "S"});      // Undirected loop.
  b.AddDirectedEdge("d2", "a", "b", {"T"});             // Parallel pair...
  b.AddDirectedEdge("d3", "a", "b", {"T"});
  b.AddUndirectedEdge("u2", "a", "b", {"S"});
  b.AddDirectedEdge("plain", "a", "b", {});             // Label-less.
  PropertyGraph g = std::move(b).Build().value();
  CheckGraph(g);

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
        bool want = expr == nullptr || expr->Matches(g.node(n).labels);
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
  GraphBuilder b;
  const int kNodes = 70;
  for (int i = 0; i < kNodes; ++i) {
    b.AddNode("n" + std::to_string(i),
              {"L" + std::to_string(i), "Common"},
              {{"w", Value::Int(i % 7)}});
  }
  for (int i = 0; i < kNodes; ++i) {
    b.AddDirectedEdge("e" + std::to_string(i), "n" + std::to_string(i),
                      "n" + std::to_string((i + 1) % kNodes),
                      {"E" + std::to_string(i % 5)});
  }
  PropertyGraph g = std::move(b).Build().value();
  ASSERT_FALSE(g.label_bits_usable());
  CheckGraph(g);

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
