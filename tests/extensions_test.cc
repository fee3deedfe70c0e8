// The §7.1 Language Opportunities implemented beyond the core paper:
// isomorphic match modes and JSON export of bindings.

#include <gtest/gtest.h>

#include <limits>

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

// The exact bytes of the §7.1 export. They are also the wire encoding of
// every served row, so a change here is a protocol change.
TEST(JsonExportTest, ElementObject) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("a4"))),
            R"({"kind":"node","name":"a4","labels":["Account"],)"
            R"("properties":{"isBlocked":"yes","owner":"Jay"}})");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(g.FindEdge("t4"))),
            R"({"kind":"edge","name":"t4","directed":true,)"
            R"("endpoints":["a4","a6"],"labels":["Transfer"],)"
            R"("properties":{"amount":10000000,"date":"4/1/2020"}})");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(g.FindEdge("hp4"))),
            R"({"kind":"edge","name":"hp4","directed":false,)"
            R"("endpoints":["a4","p3"],"labels":["hasPhone"],)"
            R"("properties":{}})");
}

TEST(JsonExportTest, ScalarPropertiesAndEscapedNames) {
  GraphBuilder b;
  b.AddNode("n\"1", {"L\\x"},
            {{"min", Value::Int(std::numeric_limits<int64_t>::min())},
             {"max", Value::Int(std::numeric_limits<int64_t>::max())},
             {"yes", Value::Bool(true)},
             {"no", Value::Bool(false)},
             {"none", Value::Null()},
             {"s", Value::String("q\"b\\n\nt\tc\x01" "d\x7f" "caf\xc3\xa9"
                                 "bad\x80" "end")}});
  b.AddNode("m");
  b.AddUndirectedEdge("u", "n\"1", "m", {"U"}, {{"w", Value::Int(-7)}});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("n\"1"))),
            R"({"kind":"node","name":"n\"1","labels":["L\\x"],)"
            R"("properties":{"max":9223372036854775807,)"
            R"("min":-9223372036854775808,"no":false,"none":null,)"
            R"("s":"q\"b\\n\nt\tc\u0001d)" "\x7f" "caf\xc3\xa9"
            "bad\xef\xbf\xbd" R"(end","yes":true}})");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(g.FindEdge("u"))),
            R"({"kind":"edge","name":"u","directed":false,)"
            R"("endpoints":["n\"1","m"],"labels":["U"],)"
            R"("properties":{"w":-7}})");
}

// Doubles keep 17 significant digits and a ".0" when integral, so they
// survive the wire as doubles; non-finite values have no JSON spelling
// and export as null.
TEST(JsonExportTest, DoublesRoundTripAndNonFiniteIsNull) {
  GraphBuilder b;
  b.AddNode("x", {"D"},
            {{"big", Value::Double(123456789.0)},
             {"prec", Value::Double(0.1234567891)},
             {"three", Value::Double(3.0)},
             {"neg", Value::Double(-0.5)},
             {"huge", Value::Double(1e300)},
             {"nan", Value::Double(std::numeric_limits<double>::quiet_NaN())},
             {"inf", Value::Double(std::numeric_limits<double>::infinity())},
             {"ninf",
              Value::Double(-std::numeric_limits<double>::infinity())}});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("x"))),
            R"({"kind":"node","name":"x","labels":["D"],)"
            R"("properties":{"big":123456789.0,"huge":1.0000000000000001e+300,)"
            R"("inf":null,"nan":null,"neg":-0.5,"ninf":null,)"
            R"("prec":0.12345678910000001,"three":3.0}})");
}

TEST(JsonExportTest, RowsWithSingletonGroupPathAndNull) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match(
      "MATCH p = (a WHERE a.owner='Jay')[-[b:Transfer]->]{2}(c) "
      "[~[:hasPhone]~(ph:IP)]?");
  ASSERT_TRUE(out.ok()) << out.status();
  // Two rows (a4->a6->{a3,a5}), group b as array of two edges, unbound
  // conditional ph as null, path p as a path object.
  const std::string a4 =
      R"({"kind":"node","name":"a4","labels":["Account"],)"
      R"("properties":{"isBlocked":"yes","owner":"Jay"}})";
  const std::string t4 =
      R"({"kind":"edge","name":"t4","directed":true,)"
      R"("endpoints":["a4","a6"],"labels":["Transfer"],)"
      R"("properties":{"amount":10000000,"date":"4/1/2020"}})";
  EXPECT_EQ(
      ExportJson(*out, g),
      R"({"rows":[{"a":)" + a4 + R"(,"b":[)" + t4 +
          R"(,{"kind":"edge","name":"t5","directed":true,)"
          R"("endpoints":["a6","a3"],"labels":["Transfer"],)"
          R"("properties":{"amount":10000000,"date":"6/1/2020"}}],)"
          R"("c":{"kind":"node","name":"a3","labels":["Account"],)"
          R"("properties":{"isBlocked":"no","owner":"Mike"}},)"
          R"("p":{"kind":"path","length":2,)"
          R"("elements":["a4","t4","a6","t5","a3"]},"ph":null},)"
          R"({"a":)" + a4 + R"(,"b":[)" + t4 +
          R"(,{"kind":"edge","name":"t6","directed":true,)"
          R"("endpoints":["a6","a5"],"labels":["Transfer"],)"
          R"("properties":{"amount":4000000,"date":"7/1/2020"}}],)"
          R"("c":{"kind":"node","name":"a5","labels":["Account"],)"
          R"("properties":{"isBlocked":"no","owner":"Charles"}},)"
          R"("p":{"kind":"path","length":2,)"
          R"("elements":["a4","t4","a6","t6","a5"]},"ph":null}]})");
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
