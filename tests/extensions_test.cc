// The §7.1 Language Opportunities implemented beyond the core paper:
// isomorphic match modes and JSON export of bindings.

#include <gtest/gtest.h>

#include "gql/json_export.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "test_util.h"

namespace gpml {
namespace {

using testing_util::CountRows;
using testing_util::Rows;

// --- match modes (edge-isomorphism) ----------------------------------------

TEST(MatchModeTest, ParsesAndPrints) {
  Result<GraphPattern> g =
      ParseGraphPattern("MATCH DIFFERENT EDGES (x)->(y), (y)->(z)");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->mode, MatchMode::kDifferentEdges);
  g = ParseGraphPattern("MATCH DIFFERENT NODES (x)->(y)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->mode, MatchMode::kDifferentNodes);
  g = ParseGraphPattern("MATCH REPEATABLE ELEMENTS (x)->(y)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->mode, MatchMode::kRepeatableElements);
  EXPECT_FALSE(ParseGraphPattern("MATCH DIFFERENT THINGS (x)").ok());
}

TEST(MatchModeTest, DifferentEdgesFiltersRepeats) {
  PropertyGraph g = BuildPaperGraph();
  // Two decls both matching one edge: homomorphism allows e1 == e2.
  size_t repeatable = CountRows(
      g, "MATCH (x)-[e1:Transfer]->(y), (x)-[e2:Transfer]->(y)");
  size_t different = CountRows(
      g, "MATCH DIFFERENT EDGES (x)-[e1:Transfer]->(y), "
         "(x)-[e2:Transfer]->(y)");
  EXPECT_EQ(repeatable, 8u) << "each transfer matched by both variables";
  EXPECT_EQ(different, 0u) << "no two parallel transfers share endpoints";
}

TEST(MatchModeTest, DifferentEdgesAllowsDistinctPairs) {
  GraphBuilder b;
  b.AddNode("u", {"N"});
  b.AddNode("v", {"N"});
  b.AddDirectedEdge("e1", "u", "v", {"T"});
  b.AddDirectedEdge("e2", "u", "v", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(CountRows(g, "MATCH (x)-[a:T]->(y), (x)-[b:T]->(y)"), 4u);
  // Edge-isomorphic: (e1,e2) and (e2,e1) remain.
  EXPECT_EQ(CountRows(
                g, "MATCH DIFFERENT EDGES (x)-[a:T]->(y), (x)-[b:T]->(y)"),
            2u);
}

TEST(MatchModeTest, DifferentEdgesWithinOnePathPattern) {
  PropertyGraph g = BuildPaperGraph();
  // The 4-walk Charles→Scott repeats t8; DIFFERENT EDGES excludes it.
  const std::string body =
      "(x:Account WHERE x.owner='Charles')-[e:Transfer]->{4}"
      "(y:Account WHERE y.owner='Scott')";
  EXPECT_EQ(CountRows(g, "MATCH " + body), 1u);
  EXPECT_EQ(CountRows(g, "MATCH DIFFERENT EDGES " + body), 0u);
}

TEST(MatchModeTest, DifferentNodesSemantics) {
  PropertyGraph g = BuildPaperGraph();
  // Distinctness applies to logical bindings: the closing equi-join of a
  // triangle binds s once, so cycles via variable reuse survive, while a
  // fresh variable bound to an already-used node does not.
  const std::string triangle =
      "(s)-[:Transfer]->(m)-[:Transfer]->(t)-[:Transfer]->(s)";
  EXPECT_EQ(CountRows(g, "MATCH " + triangle), 3u);
  EXPECT_EQ(CountRows(g, "MATCH DIFFERENT NODES " + triangle), 3u);
  // Two distinct variables on one node: rejected.
  EXPECT_EQ(CountRows(g, "MATCH (x:City), (y:Country) WHERE SAME(x, y)"),
            1u);
  EXPECT_EQ(CountRows(g, "MATCH DIFFERENT NODES (x:City), (y:Country) "
                         "WHERE SAME(x, y)"),
            0u);
  // Anonymous positions count separately: a walk revisiting a node through
  // anonymous middles is rejected.
  EXPECT_GT(CountRows(g, "MATCH (a)-[:Transfer]->()-[:Transfer]->()"
                         "-[:Transfer]->()-[:Transfer]->(a)"),
            0u);
  EXPECT_EQ(CountRows(g, "MATCH DIFFERENT NODES (a)-[:Transfer]->()"
                         "-[:Transfer]->()-[:Transfer]->()-[:Transfer]->"
                         "(b) WHERE SAME(a, b)"),
            0u);
}

// --- JSON export -------------------------------------------------------------

TEST(JsonExportTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(JsonExportTest, ElementObject) {
  PropertyGraph g = BuildPaperGraph();
  std::string node = ElementToJson(g, ElementRef::Node(g.FindNode("a4")));
  EXPECT_NE(node.find("\"kind\":\"node\""), std::string::npos);
  EXPECT_NE(node.find("\"name\":\"a4\""), std::string::npos);
  EXPECT_NE(node.find("\"labels\":[\"Account\"]"), std::string::npos);
  EXPECT_NE(node.find("\"owner\":\"Jay\""), std::string::npos);

  std::string edge = ElementToJson(g, ElementRef::Edge(g.FindEdge("t4")));
  EXPECT_NE(edge.find("\"kind\":\"edge\""), std::string::npos);
  EXPECT_NE(edge.find("\"directed\":true"), std::string::npos);
  EXPECT_NE(edge.find("\"endpoints\":[\"a4\",\"a6\"]"), std::string::npos);
  EXPECT_NE(edge.find("\"amount\":10000000"), std::string::npos);
}

TEST(JsonExportTest, RowsWithSingletonGroupPathAndNull) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match(
      "MATCH p = (a WHERE a.owner='Jay')[-[b:Transfer]->]{2}(c) "
      "[~[:hasPhone]~(ph:IP)]?");
  ASSERT_TRUE(out.ok()) << out.status();
  std::string json = ExportJson(*out, g);
  // Two rows (a4->a6->{a3,a5}), group b as array of two edges, unbound
  // conditional ph as null, path p as a path object.
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"b\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":null"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"path\""), std::string::npos);
  EXPECT_NE(json.find("\"length\":2"), std::string::npos);
  // Valid JSON sanity: balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonExportTest, EmptyResult) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match("MATCH (x:NoSuchLabel)");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ExportJson(*out, g), "{\"rows\":[]}");
}

}  // namespace
}  // namespace gpml
