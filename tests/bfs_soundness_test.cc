// Deterministic constructions that would expose unsound product-state
// pruning in the selector (BFS) route: two prefixes meeting at the same
// (instruction, node) whose *environments* or *restrictor memories* differ
// must not be merged when the difference affects future admissibility or
// result identity.

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "eval/nfa.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace gpml {
namespace {

using testing_util::Paths;
using testing_util::Rows;

TEST(BfsSoundnessTest, IterationPredicateSeesOuterBinding) {
  // rich(w=10) and poor(w=1) both reach hub; only walks whose every edge
  // weight exceeds the START node's w may continue. Merging the two
  // prefixes at hub would either kill poor's continuation or wrongly allow
  // rich's.
  GraphBuilder b;
  b.AddNode("rich", {"N"}, {{"w", Value::Int(10)}});
  b.AddNode("poor", {"N"}, {{"w", Value::Int(1)}});
  b.AddNode("hub", {"N"}, {{"w", Value::Int(0)}});
  b.AddNode("sink", {"N"}, {{"w", Value::Int(0)}});
  b.AddDirectedEdge("er", "rich", "hub", {"T"}, {{"w", Value::Int(5)}});
  b.AddDirectedEdge("ep", "poor", "hub", {"T"}, {{"w", Value::Int(5)}});
  b.AddDirectedEdge("eh", "hub", "sink", {"T"}, {{"w", Value::Int(5)}});
  PropertyGraph g = std::move(std::move(b).Build()).value();

  std::vector<std::string> rows = Rows(
      g,
      "MATCH ALL SHORTEST (x)[()-[t:T]->() WHERE t.w > x.w]{1,2}(y)",
      "x, y");
  // poor: 1-step to hub, 2-step to sink. rich: nothing (5 > 10 fails).
  // hub: 1-step to sink (5 > 0 holds).
  EXPECT_EQ(rows, (std::vector<std::string>{"hub|sink", "poor|hub",
                                            "poor|sink"}));
}

TEST(BfsSoundnessTest, AllShortestKeepsDistinctBindingsOfEqualLength) {
  // Two parallel middle edges: both shortest paths must survive even
  // though the prefixes meet at the same (instruction, node).
  GraphBuilder b;
  b.AddNode("s", {"N"});
  b.AddNode("m", {"N"});
  b.AddNode("t", {"N"});
  b.AddDirectedEdge("in", "s", "m", {"T"});
  b.AddDirectedEdge("mid1", "m", "t", {"T"});
  b.AddDirectedEdge("mid2", "m", "t", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  std::vector<std::string> paths = Paths(
      g, "MATCH ALL SHORTEST p = (a WHERE SAME(a, a))-[:T]->{2}(c)");
  EXPECT_EQ(paths, (std::vector<std::string>{"path(s,in,m,mid1,t)",
                                             "path(s,in,m,mid2,t)"}));
}

TEST(BfsSoundnessTest, TrailMemoryInsideSelectorRoute) {
  // ALL SHORTEST TRAIL through a multigraph: the prefix using edge a must
  // not block the prefix using edge b from continuing over a.
  GraphBuilder b;
  b.AddNode("u", {"N"});
  b.AddNode("v", {"N"});
  b.AddDirectedEdge("a", "u", "v", {"T"});
  b.AddDirectedEdge("b", "u", "v", {"T"});
  b.AddDirectedEdge("back", "v", "u", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  std::vector<std::string> paths = Paths(
      g,
      "MATCH ALL SHORTEST TRAIL p = (x WHERE SAME(x, x))-[:T]->{3}(y)");
  // u->v->u->v using a,back,b and b,back,a (a,back,a repeats an edge).
  EXPECT_EQ(paths, (std::vector<std::string>{"path(u,a,v,back,u,b,v)",
                                             "path(u,b,v,back,u,a,v)"}));
}

TEST(BfsSoundnessTest, MultisetTagsSurviveSelector) {
  // |+| branches producing identical paths: provenance keeps both, and the
  // selector treats them as distinct results in the same partition under
  // ALL SHORTEST (both have minimal length).
  GraphBuilder b;
  b.AddNode("u", {"N"});
  b.AddNode("v", {"N"});
  b.AddDirectedEdge("e", "u", "v", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match(
      "MATCH ALL SHORTEST (x)[-[:T]->(y) |+| -[:T]->(y)]");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 2u);
}

TEST(BfsSoundnessTest, ConditionalBranchesNotMergedAcrossEnvironments) {
  // Union branches bind different variables; prefixes at the same node with
  // different bound variables must stay separate under ALL SHORTEST.
  GraphBuilder b;
  b.AddNode("s", {"S"});
  b.AddNode("m", {"M"});
  b.AddNode("t", {"T"});
  b.AddDirectedEdge("e1", "s", "m", {"A"});
  b.AddDirectedEdge("e2", "s", "m", {"B"});
  b.AddDirectedEdge("e3", "m", "t", {"A"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  std::vector<std::string> rows = Rows(
      g,
      "MATCH ALL SHORTEST (s:S)[-[x:A]->(m) | -[y:B]->(m)]-[:A]->(t:T)",
      "x, y, t");
  EXPECT_EQ(rows, (std::vector<std::string>{"NULL|e2|t", "e1|NULL|t"}));
}

/// Compiles the first declaration of `text` for a flag check.
Result<Program> CompileFirst(const std::string& text) {
  testing_util::CompiledDecl c = testing_util::CompileDecl(text);
  if (!c.status.ok()) return c.status;
  return std::move(c.program);
}

TEST(BfsSoundnessTest, ExactVisitKeyEligibility) {
  // Exact (pc, node, start) keys: ANY / ANY SHORTEST whose only named
  // node variables are the two endpoints, with no restrictor scope, no
  // multiset tag and no parenthesized WHERE.
  for (const char* text : {
           "MATCH ANY (x)-[:T]->+(y)",
           "MATCH ANY SHORTEST p = (x WHERE x.w > 1)-[:T]->+"
           "(y WHERE y.w > x.w)",
           "MATCH ANY (x)[()-[:T]->()-[:T]->()]+(x)",
       }) {
    Result<Program> program = CompileFirst(text);
    ASSERT_TRUE(program.ok()) << text << " -> " << program.status();
    EXPECT_TRUE(program->exact_visit_key) << text;
  }
  for (const char* text : {
           "MATCH ALL SHORTEST (x)-[:T]->+(y)",
           "MATCH ANY 2 (x)-[:T]->+(y)",
           "MATCH ANY TRAIL (x)-[:T]->+(y)",
           "MATCH ANY (x)-[:T]->+(m)-[:T]->+(y)",
           "MATCH ANY (x)-[e:T]->+(y)",
           "MATCH ANY (x)[-[:T]->(y) |+| -[:U]->(y)]",
           "MATCH ANY (x)[()-[t:T]->() WHERE t.w > 1]+(y)",
           "MATCH ANY (x)[(a)-[:T]->()]+(y)",
       }) {
    Result<Program> program = CompileFirst(text);
    ASSERT_TRUE(program.ok()) << text << " -> " << program.status();
    EXPECT_FALSE(program->exact_visit_key) << text;
  }
}

TEST(BfsSoundnessTest, InteriorVariableKeepsHashedKeysAndAgreesWithReference) {
  // The named interior m decides whether y qualifies, so states meeting at
  // hub with different m must not merge. s reaches hub first through m2
  // (w=9, which no y beats) and then through m1 (w=1); only the m1 prefix
  // reaches t (w=5) at length 3. The program stays on full-state visit keys,
  // and its (start, end, length) triples match the reference evaluator's.
  GraphBuilder b;
  b.AddNode("s", {"N"}, {{"w", Value::Int(0)}});
  b.AddNode("m2", {"N"}, {{"w", Value::Int(9)}});
  b.AddNode("m1", {"N"}, {{"w", Value::Int(1)}});
  b.AddNode("hub", {"N"}, {{"w", Value::Int(7)}});
  b.AddNode("t", {"N"}, {{"w", Value::Int(5)}});
  b.AddDirectedEdge("s_m2", "s", "m2", {"T"});
  b.AddDirectedEdge("s_m1", "s", "m1", {"T"});
  b.AddDirectedEdge("m2_hub", "m2", "hub", {"T"});
  b.AddDirectedEdge("m1_hub", "m1", "hub", {"T"});
  b.AddDirectedEdge("hub_t", "hub", "t", {"T"});
  b.AddDirectedEdge("t_s", "t", "s", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  const std::string text =
      "MATCH ANY SHORTEST (x)-[:T]->+(m)-[:T]->+(y WHERE y.w > m.w)";

  Result<Program> program = CompileFirst(text);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_FALSE(program->exact_visit_key);

  // ANY SHORTEST rows render as (start, end, length) triples.
  std::vector<std::string> expected = testing_util::ReferenceJoinRows(g, text);
  EXPECT_EQ(testing_util::EngineJoinRows(g, text), expected);
  EXPECT_NE(std::find(expected.begin(), expected.end(), "s->t len=3 | "),
            expected.end());
}

}  // namespace
}  // namespace gpml
