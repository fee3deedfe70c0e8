// E18/E19: the execution model of Section 6, step by step, on the running
// example
//
//   MATCH TRAIL (a WHERE a.owner='Jay')
//         [-[b:Transfer WHERE b.amount>5M]->]+
//         (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]
//
// covering normalization (§6.2), expansion into rigid patterns (§6.3),
// rigid-pattern matching (§6.4), reduction/deduplication (§6.5), the
// selector and multiset-alternation variants, and agreement between the
// reference evaluator and the production engine.

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/reference_eval.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "semantics/normalize.h"
#include "test_util.h"

namespace gpml {
namespace {

using testing_util::CountRows;
using testing_util::Rows;

constexpr const char* kRunningQuery =
    "MATCH TRAIL (a WHERE a.owner='Jay')"
    "[-[b:Transfer WHERE b.amount>5M]->]+"
    "(a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]";

class Section6Test : public ::testing::Test {
 protected:
  Section6Test() : g_(BuildPaperGraph()) {}

  /// Parses, normalizes and analyzes the running query (or a variant).
  struct Prepared {
    GraphPattern normalized;
    std::shared_ptr<VarTable> vars;
  };
  Prepared Prepare(const std::string& text) {
    Result<GraphPattern> parsed = ParseGraphPattern(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Result<GraphPattern> normalized = Normalize(*parsed);
    EXPECT_TRUE(normalized.ok()) << normalized.status();
    Result<Analysis> analysis = Analyze(*normalized);
    EXPECT_TRUE(analysis.ok()) << analysis.status();
    return {*normalized, std::make_shared<VarTable>(*analysis)};
  }

  PropertyGraph g_;
};

TEST_F(Section6Test, FinalResultHasExactlyTwoReducedBindings) {
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 2u);
}

TEST_F(Section6Test, ReducedBindingsMatchPaperTables) {
  // §6.5's two final reduced path bindings, in the paper's variable order.
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok()) << out.status();
  std::vector<std::string> rendered;
  for (const ResultRow& row : out->rows) {
    rendered.push_back(row.bindings[0]->ToString(g_, *out->vars));
  }
  std::sort(rendered.begin(), rendered.end());
  EXPECT_EQ(rendered,
            (std::vector<std::string>{
                "a=a4 b=t4 _=a6 b=t5 _=a3 b=t2 _=a2 b=t3 a=a4 -=li4 c=c2",
                "a=a4 b=t4 _=a6 b=t5 _=a3 b=t7 _=a5 b=t8 _=a1 b=t1 _=a3 "
                "b=t2 _=a2 b=t3 a=a4 -=li4 c=c2"}));
}

TEST_F(Section6Test, OnlyIterationCounts4And7Match) {
  // §6.4: π(n,ℓ) has matches only for n = 4 and n = 7.
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok());
  std::vector<size_t> lengths;
  for (const ResultRow& row : out->rows) {
    lengths.push_back(row.bindings[0]->path.Length());
  }
  std::sort(lengths.begin(), lengths.end());
  // n transfers + 1 isLocatedIn edge.
  EXPECT_EQ(lengths, (std::vector<size_t>{5u, 8u}));
}

TEST_F(Section6Test, ExpansionProducesRigidPatternsPerIterationAndBranch) {
  Prepared p = Prepare(kRunningQuery);
  ReferenceOptions options;
  options.expansion_cap = 8;  // n in 1..8.
  Result<std::vector<RigidPattern>> rigids =
      ExpandPattern(p.normalized.paths[0], *p.vars, g_, options);
  ASSERT_TRUE(rigids.ok()) << rigids.status();
  // 8 iteration counts × 2 union branches.
  EXPECT_EQ(rigids->size(), 16u);
  // Every rigid pattern alternates and carries annotated b's.
  const RigidPattern& rp = (*rigids)[0];
  std::string printed = rp.ToString(*p.vars);
  EXPECT_NE(printed.find("b^1"), std::string::npos) << printed;
  EXPECT_NE(printed.find("a"), std::string::npos);
}

TEST_F(Section6Test, RigidPatternAnnotationsSeparateIterations) {
  Prepared p = Prepare(kRunningQuery);
  ReferenceOptions options;
  options.expansion_cap = 4;
  Result<std::vector<RigidPattern>> rigids =
      ExpandPattern(p.normalized.paths[0], *p.vars, g_, options);
  ASSERT_TRUE(rigids.ok());
  // Find a 4-iteration expansion: it must contain b^1..b^4.
  bool found = false;
  for (const RigidPattern& rp : *rigids) {
    std::string s = rp.ToString(*p.vars);
    if (s.find("b^4") != std::string::npos) {
      EXPECT_NE(s.find("b^1"), std::string::npos);
      EXPECT_NE(s.find("b^2"), std::string::npos);
      EXPECT_NE(s.find("b^3"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(Section6Test, ReferenceEvaluatorReproducesFinalResult) {
  Prepared p = Prepare(kRunningQuery);
  ReferenceOptions options;  // auto cap: TRAIL -> |E|+1.
  Result<MatchSet> ref =
      RunReference(g_, p.normalized.paths[0], *p.vars, options);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref->bindings.size(), 2u);

  // And it agrees with the production engine binding-for-binding.
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), ref->bindings.size());
  for (const PathBinding& rb : ref->bindings) {
    bool found = false;
    for (const ResultRow& row : out->rows) {
      if (row.bindings[0]->SameReduced(rb)) found = true;
    }
    EXPECT_TRUE(found) << rb.ToString(g_, *p.vars);
  }
}

TEST_F(Section6Test, AllShortestVariantKeepsOneBinding) {
  // §6.5 "Using selectors": replacing TRAIL by ALL SHORTEST keeps only the
  // shortest reduced binding for the (a4, c2) endpoint pair.
  std::string query =
      "MATCH ALL SHORTEST (a WHERE a.owner='Jay')"
      "[-[b:Transfer WHERE b.amount>5M]->]+"
      "(a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]";
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(query);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0].bindings[0]->path.ToString(g_),
            "path(a4,t4,a6,t5,a3,t2,a2,t3,a4,li4,c2)");
}

TEST_F(Section6Test, MultisetAlternationKeepsFourBindings) {
  // §6.5: |+| maintains all four reduced bindings (City/Country × n=4,7).
  std::string query =
      "MATCH TRAIL (a WHERE a.owner='Jay')"
      "[-[b:Transfer WHERE b.amount>5M]->]+"
      "(a) [-[:isLocatedIn]->(c:City) |+| -[:isLocatedIn]->(c:Country)]";
  EXPECT_EQ(CountRows(g_, query), 4u);
}

TEST_F(Section6Test, UnionEquivalentToLabelDisjunction) {
  // §6.5: the running query equals its label-disjunction rewrite.
  std::string rewritten =
      "MATCH TRAIL (a WHERE a.owner='Jay')"
      "[-[b:Transfer WHERE b.amount>5M]->]+"
      "(a)-[:isLocatedIn]->(c:City|Country)";
  EXPECT_EQ(Rows(g_, kRunningQuery, "a, c"),
            Rows(g_, rewritten, "a, c"));
  EXPECT_EQ(CountRows(g_, rewritten), 2u);
}

TEST_F(Section6Test, EdgeT6FailsThePrefilterEverywhere) {
  // §6.4: the edge (a6,t6,a5) appears in no per-part table — its amount
  // (4M) fails b.amount>5M. Hence no reduced binding contains t6.
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok());
  for (const ResultRow& row : out->rows) {
    for (const ElementaryBinding& b : row.bindings[0]->reduced) {
      if (b.element.is_edge()) {
        EXPECT_NE(g_.edge_name(b.element.id), "t6");
      }
    }
  }
}

TEST_F(Section6Test, Pi8HasNoMatchBecauseOfTrail) {
  // §6.4: π(8,·) would need the (t4,t5,t2,t3) loop twice — not a trail.
  // Force n=8 with an exact quantifier: no results under TRAIL.
  EXPECT_EQ(CountRows(g_,
                      "MATCH TRAIL (a WHERE a.owner='Jay')"
                      "[-[b:Transfer WHERE b.amount>5M]->]{8}"
                      "(a)-[:isLocatedIn]->(c:City|Country)"),
            0u);
  // Without TRAIL, n=8 does match (the loop taken twice).
  EXPECT_EQ(CountRows(g_,
                      "MATCH (a WHERE a.owner='Jay')"
                      "[-[b:Transfer WHERE b.amount>5M]->]{8}"
                      "(a)-[:isLocatedIn]->(c:City|Country)"),
            1u);
}

TEST_F(Section6Test, ReductionMergesAnonymousVariables) {
  // §6.5: reduction strips annotations and merges anonymous variables; the
  // reduced sequence for n=4 has exactly 11 elementary bindings:
  // a b _ b _ b _ b a - c.
  Engine engine(g_);
  Result<MatchOutput> out = engine.Match(kRunningQuery);
  ASSERT_TRUE(out.ok());
  bool found_short = false;
  for (const ResultRow& row : out->rows) {
    const PathBinding& pb = *row.bindings[0];
    if (pb.path.Length() == 5) {
      found_short = true;
      EXPECT_EQ(pb.reduced.size(), 11u);
      // 'a' appears twice: positions 0 and 8.
      int a_id = out->vars->Find("a");
      EXPECT_EQ(pb.ElementsOf(a_id).size(), 2u);
      // Group variable b: four transfers.
      int b_id = out->vars->Find("b");
      EXPECT_EQ(pb.ElementsOf(b_id).size(), 4u);
    }
  }
  EXPECT_TRUE(found_short);
}

}  // namespace
}  // namespace gpml
