#include "eval/binding.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "semantics/normalize.h"

namespace gpml {
namespace {

Analysis AnalyzeQuery(const std::string& text) {
  Result<GraphPattern> g = ParseGraphPattern(text);
  EXPECT_TRUE(g.ok());
  Result<GraphPattern> n = Normalize(*g);
  EXPECT_TRUE(n.ok());
  Result<Analysis> a = Analyze(*n);
  EXPECT_TRUE(a.ok()) << a.status();
  return *a;
}

TEST(VarTableTest, InterningAndLookup) {
  Analysis a = AnalyzeQuery("MATCH (x)-[e:T]->(y)");
  VarTable vars(a);
  EXPECT_GE(vars.Find("x"), 0);
  EXPECT_GE(vars.Find("e"), 0);
  EXPECT_EQ(vars.Find("ghost"), -1);
  EXPECT_EQ(vars.name(vars.Find("x")), "x");
  // Total: x, e, y + the anonymous reduced node/edge ids.
  EXPECT_EQ(vars.size(), 5);
}

TEST(VarTableTest, ReducedMapsAnonymousToShared) {
  Analysis a = AnalyzeQuery("MATCH ()-[:T]->()");
  VarTable vars(a);
  int n1 = vars.Find("$n1");
  int e1 = vars.Find("$e1");
  int n2 = vars.Find("$n2");
  ASSERT_GE(n1, 0);
  ASSERT_GE(e1, 0);
  EXPECT_EQ(vars.Reduced(n1), vars.anon_node_id());
  EXPECT_EQ(vars.Reduced(n2), vars.anon_node_id());
  EXPECT_EQ(vars.Reduced(e1), vars.anon_edge_id());
  // Named variables reduce to themselves.
  Analysis a2 = AnalyzeQuery("MATCH (x)");
  VarTable vars2(a2);
  EXPECT_EQ(vars2.Reduced(vars2.Find("x")), vars2.Find("x"));
}

TEST(PathBindingTest, ElementsOfAndLastOf) {
  PathBinding pb;
  pb.reduced = {{0, ElementRef::Node(1)},
                {1, ElementRef::Edge(0)},
                {0, ElementRef::Node(2)}};
  EXPECT_EQ(pb.ElementsOf(0).size(), 2u);
  EXPECT_EQ(pb.LastOf(0)->id, 2u);
  EXPECT_EQ(pb.LastOf(7), nullptr);
}

TEST(PathBindingTest, SameReducedIncludesTags) {
  PathBinding a;
  a.reduced = {{0, ElementRef::Node(1)}};
  PathBinding b = a;
  EXPECT_TRUE(a.SameReduced(b));
  b.tags = {1};
  EXPECT_FALSE(a.SameReduced(b));
  EXPECT_NE(a.ReducedHash(), b.ReducedHash());
}

/// A path's raw bindings front-to-back, as the matcher reads them off its
/// links.
std::vector<WitnessLink> Raw(
    std::initializer_list<std::pair<ElementaryBinding, Traversal>> items) {
  std::vector<WitnessLink> raw;
  for (const auto& [binding, traversal] : items) {
    WitnessLink l;
    l.binding = binding;
    l.traversal = traversal;
    raw.push_back(l);
  }
  return raw;
}

PathBinding Reduce(const std::vector<WitnessLink>& raw, const VarTable& vars) {
  PathBinding pb;
  ReduceBindings(raw, vars, {}, &pb);
  return pb;
}

constexpr Traversal kFwd = Traversal::kForward;

TEST(ReduceBindingsTest, AdjacentAnonymousRunsCollapse) {
  Analysis an = AnalyzeQuery("MATCH ()-[:T]->()");
  VarTable vars(an);
  int n1 = vars.Find("$n1");
  int e1 = vars.Find("$e1");
  int n2 = vars.Find("$n2");
  // An adjacent anonymous node (same graph node) after n2.
  PathBinding pb = Reduce(Raw({{{n1, ElementRef::Node(0)}, kFwd},
                               {{e1, ElementRef::Edge(0)}, kFwd},
                               {{n2, ElementRef::Node(1)}, kFwd},
                               {{n1, ElementRef::Node(1)}, kFwd}}),
                          vars);
  // Run (n2, n1) collapses to one anonymous binding.
  ASSERT_EQ(pb.reduced.size(), 3u);
  EXPECT_EQ(pb.reduced[0].var, vars.anon_node_id());
  EXPECT_EQ(pb.reduced[1].var, vars.anon_edge_id());
  EXPECT_EQ(pb.reduced[2].var, vars.anon_node_id());
}

TEST(ReduceBindingsTest, NamedBindingsSurviveRuns) {
  Analysis an = AnalyzeQuery("MATCH (a)-[:T]->(b)");
  VarTable vars(an);
  int a = vars.Find("a");
  int e = vars.Find("$e1");
  int b = vars.Find("b");
  PathBinding pb = Reduce(Raw({{{a, ElementRef::Node(0)}, kFwd},
                               {{e, ElementRef::Edge(0)}, kFwd},
                               {{b, ElementRef::Node(1)}, kFwd},
                               {{a, ElementRef::Node(1)}, kFwd}}),
                          vars);
  ASSERT_EQ(pb.reduced.size(), 4u);
  EXPECT_EQ(pb.reduced[2].var, b);
  EXPECT_EQ(pb.reduced[3].var, a);
}

TEST(ReduceBindingsTest, PathReconstruction) {
  Analysis an = AnalyzeQuery("MATCH (a)-[:T]->(b)");
  VarTable vars(an);
  PathBinding pb =
      Reduce(Raw({{{vars.Find("a"), ElementRef::Node(4)}, kFwd},
                  {{vars.Find("$e1"), ElementRef::Edge(9)},
                   Traversal::kBackward},
                  {{vars.Find("b"), ElementRef::Node(7)}, kFwd}}),
             vars);
  EXPECT_EQ(pb.path.Start(), 4u);
  EXPECT_EQ(pb.path.End(), 7u);
  EXPECT_EQ(pb.path.Length(), 1u);
  EXPECT_EQ(pb.path.traversals()[0], Traversal::kBackward);
}

TEST(ReduceBindingsTest, EmptyPath) {
  Analysis an = AnalyzeQuery("MATCH (a)");
  VarTable vars(an);
  PathBinding pb = Reduce({}, vars);
  EXPECT_TRUE(pb.reduced.empty());
  EXPECT_TRUE(pb.path.IsEmpty());
}

TEST(ReduceBindingsTest, AReusedBindingIsReplacedWhole) {
  // The matcher reduces every accept into one scratch binding: nothing of
  // an earlier, longer binding may survive in it.
  Analysis an = AnalyzeQuery("MATCH (a)-[:T]->(b)");
  VarTable vars(an);
  const int a = vars.Find("a");
  const int e = vars.Find("$e1");
  const int b = vars.Find("b");
  PathBinding scratch;
  ReduceBindings(Raw({{{a, ElementRef::Node(0)}, kFwd},
                      {{e, ElementRef::Edge(3)}, kFwd},
                      {{b, ElementRef::Node(1)}, kFwd}}),
                 vars, {2, 5}, &scratch);
  ReduceBindings(Raw({{{a, ElementRef::Node(6)}, kFwd}}), vars, {}, &scratch);
  PathBinding fresh = Reduce(Raw({{{a, ElementRef::Node(6)}, kFwd}}), vars);
  EXPECT_TRUE(scratch.SameReduced(fresh));
  EXPECT_EQ(scratch.path, fresh.path);
  EXPECT_EQ(scratch.path.Length(), 0u);
  EXPECT_TRUE(scratch.tags.empty());
}

}  // namespace
}  // namespace gpml
