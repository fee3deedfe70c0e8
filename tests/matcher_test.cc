#include "eval/matcher.h"

#include <gtest/gtest.h>

#include "eval/nfa.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// Compiles one declaration, binds it to `g` and runs the matcher directly
/// so the raw MatchSet is observable.
Result<MatchSet> RunMatch(const PropertyGraph& g, const std::string& text,
                          MatcherOptions options = {}) {
  testing_util::CompiledDecl c = testing_util::Compile(g, text);
  if (!c.status.ok()) return c.status;
  return RunPattern(g, c.program, *c.vars, options);
}

TEST(MatcherTest, BindingsOrderedByPathLength) {
  PropertyGraph g = MakeChainGraph(5);
  Result<MatchSet> m = RunMatch(g, "MATCH TRAIL (a)-[:Transfer]->*(b)");
  ASSERT_TRUE(m.ok()) << m.status();
  for (size_t i = 1; i < m->bindings.size(); ++i) {
    EXPECT_LE(m->bindings[i - 1].path.Length(),
              m->bindings[i].path.Length());
  }
}

TEST(MatcherTest, DedupCollapsesSelfLoopTraversals) {
  GraphBuilder b;
  b.AddNode("s", {"N"});
  b.AddDirectedEdge("loop", "s", "s", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  Result<MatchSet> m = RunMatch(g, "MATCH (x)-[e]-(y)");
  ASSERT_TRUE(m.ok());
  // Forward and backward traversal of the loop reduce identically.
  EXPECT_EQ(m->bindings.size(), 1u);
}

TEST(MatcherTest, BfsRouteMatchesDfsOnBoundedPattern) {
  // A bounded pattern evaluated with and without a selector that keeps
  // everything: ALL SHORTEST on partitions with unique path lengths.
  PropertyGraph g = MakeChainGraph(6);
  Result<MatchSet> dfs = RunMatch(g, "MATCH (a)-[:Transfer]->{1,3}(b)");
  Result<MatchSet> bfs =
      RunMatch(g, "MATCH ALL SHORTEST (a)-[:Transfer]->{1,3}(b)");
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(bfs.ok());
  // On a chain every (a,b) pair has exactly one path: selector keeps all.
  EXPECT_EQ(dfs->bindings.size(), bfs->bindings.size());
}

TEST(MatcherTest, MaxMatchesEnforced) {
  PropertyGraph g = MakeCompleteGraph(7);
  MatcherOptions options;
  options.max_matches = 100;
  Result<MatchSet> m =
      RunMatch(g, "MATCH TRAIL (a)-[:Transfer]->*(b)", options);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

TEST(MatcherTest, MaxStepsEnforced) {
  PropertyGraph g = MakeCompleteGraph(7);
  MatcherOptions options;
  options.max_steps = 500;
  Result<MatchSet> m =
      RunMatch(g, "MATCH TRAIL (a)-[:Transfer]->*(b)", options);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

TEST(MatcherTest, LabelSeededSearchSkipsOtherLabels) {
  // A label-anchored first node restricts seeds; semantics unchanged.
  PropertyGraph g = MakeRandomGraph(30, 60, 3, 0.2, 11);
  Result<MatchSet> anchored = RunMatch(g, "MATCH (x:L1)-[e]->(y)");
  ASSERT_TRUE(anchored.ok());
  Result<MatchSet> scanned = RunMatch(g, "MATCH (x WHERE x.w>=0)-[e]->(y)");
  ASSERT_TRUE(scanned.ok());
  size_t l1 = 0;
  for (const PathBinding& pb : scanned->bindings) {
    if (g.node(pb.path.Start()).HasLabel("L1")) ++l1;
  }
  EXPECT_EQ(anchored->bindings.size(), l1);
}

TEST(MatcherTest, ShortestOnLargeCycleIsLinear) {
  // Sanity: ANY SHORTEST on a 2000-node cycle completes quickly and finds
  // the distance-1999 path.
  PropertyGraph g = MakeCycleGraph(2000);
  Result<MatchSet> m = RunMatch(
      g,
      "MATCH ANY SHORTEST (a WHERE a.owner='u0')-[:Transfer]->*"
      "(b WHERE b.owner='u1999')");
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->bindings.size(), 1u);
  EXPECT_EQ(m->bindings[0].path.Length(), 1999u);
}

TEST(MatcherTest, EmptyMatchSetForUnsatisfiableLabels) {
  PropertyGraph g = MakeChainGraph(4);
  Result<MatchSet> m = RunMatch(g, "MATCH (x:NoSuchLabel)");
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->bindings.empty());
}

TEST(MatcherTest, RunsOnlyProgramsBoundToItsGraph) {
  // Label checks use the symbol predicates compiled against one graph, so
  // an unbound program, or one bound to an equal-looking graph, is refused.
  PropertyGraph g = MakeChainGraph(4);
  PropertyGraph other = MakeChainGraph(4);
  testing_util::CompiledDecl c =
      testing_util::CompileDecl("MATCH (a)-[:Transfer]->(b)");
  ASSERT_TRUE(c.status.ok()) << c.status;

  Result<MatchSet> unbound = RunPattern(g, c.program, *c.vars, {});
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kInvalidArgument);

  BindProgramToGraph(&c.program, other, c.vars.get());
  Result<MatchSet> foreign = RunPattern(g, c.program, *c.vars, {});
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);

  BindProgramToGraph(&c.program, g, c.vars.get());
  Result<MatchSet> bound = RunPattern(g, c.program, *c.vars, {});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->bindings.size(), 3u);
}

TEST(MatcherTest, MultisetTagsPreserveMultiplicity) {
  PropertyGraph g = MakeChainGraph(3);
  Result<MatchSet> m =
      RunMatch(g, "MATCH (a)[-[:Transfer]->(b) |+| -[:Transfer]->(b)]");
  ASSERT_TRUE(m.ok());
  // Both branches match identically; tags keep them apart: 2 edges * 2.
  EXPECT_EQ(m->bindings.size(), 4u);
}

}  // namespace
}  // namespace gpml
