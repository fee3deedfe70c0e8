// Hardening sweeps: degenerate graphs, degenerate patterns, deep nesting,
// parser resilience on hostile inputs, and engine behaviour at the edges
// of the spec that the paper's prose does not exercise.

#include <string>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "test_util.h"

namespace gpml {
namespace {

using testing_util::CountRows;
using testing_util::MatchStatusOf;
using testing_util::Rows;

// --- degenerate graphs ------------------------------------------------------

TEST(RobustnessTest, SingleNodeNoEdges) {
  GraphBuilder b;
  b.AddNode("only", {"N"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(CountRows(g, "MATCH (x)"), 1u);
  EXPECT_EQ(CountRows(g, "MATCH (x)-[e]-(y)"), 0u);
  EXPECT_EQ(CountRows(g, "MATCH TRAIL (x)-[e]->*(y)"), 1u);  // Zero-length.
}

TEST(RobustnessTest, OnlySelfLoops) {
  GraphBuilder b;
  b.AddNode("s", {"N"});
  b.AddDirectedEdge("d", "s", "s", {"T"});
  b.AddUndirectedEdge("u", "s", "s", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  // TRAIL from s: zero-length, d alone, u alone, d+u, u+d — each edge used
  // at most once in every enumeration.
  Engine engine(g);
  Result<MatchOutput> out = engine.Match("MATCH TRAIL p = (x)-[e]-*(x)");
  ASSERT_TRUE(out.ok()) << out.status();
  for (const ResultRow& row : out->rows) {
    EXPECT_TRUE(row.bindings[0]->path.IsTrail());
  }
  EXPECT_EQ(out->rows.size(), 5u);
}

TEST(RobustnessTest, ParallelEdgesUnderQuantifier) {
  GraphBuilder b;
  b.AddNode("u", {"N"});
  b.AddNode("v", {"N"});
  for (int i = 0; i < 3; ++i) {
    b.AddDirectedEdge("e" + std::to_string(i), "u", "v", {"T"});
  }
  b.AddDirectedEdge("back", "v", "u", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  // 3-walks: from u (u->v->u->v): 3*1*3 = 9; from v (v->u->v->u): 1*3*1 =
  // 3. Parallel edges are distinct elements, so all 12 bindings differ.
  EXPECT_EQ(CountRows(g, "MATCH (x)-[:T]->{3}(y)"), 12u);
}

// --- degenerate patterns ----------------------------------------------------

TEST(RobustnessTest, EmptyNodePatternAlone) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(CountRows(g, "MATCH ()"), 14u);
}

TEST(RobustnessTest, ZeroQuantifierOnlyJoinsEndpoints) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(CountRows(g, "MATCH (a)[->(b)]{0,0}(c)"), 14u);
}

TEST(RobustnessTest, DeeplyNestedQuantifiers) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(MatchStatusOf(
                g, "MATCH (a)[[[[()-[:Transfer]->()]{1,2}]{1,2}]{1,2}]{1,2}"
                   "(b)"),
            Status::OK());
}

TEST(RobustnessTest, MegabyteOfNestingIsASyntaxError) {
  // Past the parser's nesting cap the query fails before any pass recurses
  // into it (a stack overflow here would take down a server).
  PropertyGraph g = BuildPaperGraph();
  const size_t depth = (1u << 20) / 2;
  for (const std::string& text :
       {"MATCH (x WHERE " + std::string(depth, '(') + "x.a = 1" +
            std::string(depth, ')') + ")",
        "MATCH " + std::string(depth, '[') + "(x)-[:Transfer]->(y)" +
            std::string(depth, ']')}) {
    EXPECT_EQ(MatchStatusOf(g, text).code(), StatusCode::kSyntaxError);
  }
}

TEST(RobustnessTest, OutOfRangeNumericLiteralIsASyntaxError) {
  // std::stoll / std::stod threw here once, taking the process down.
  PropertyGraph g = BuildPaperGraph();
  for (const std::string& text :
       {std::string("MATCH (x WHERE x.w > 99999999999999999999)"),
        std::string("MATCH (x)-[]->{99999999999999999999}(y)"),
        "MATCH (x WHERE x.w > 0." + std::string(400, '0') + "1)",
        std::string("MATCH (x WHERE x.w > 99999999999999M)")}) {
    EXPECT_EQ(MatchStatusOf(g, text).code(), StatusCode::kSyntaxError)
        << text.substr(0, 60);
  }
}

TEST(RobustnessTest, HugeBoundedQuantifierIsRefusedBeforeCompiling) {
  // One body copy per iteration: {10000000} once exhausted memory while
  // compiling. The expanded size is counted from the pattern first.
  PropertyGraph g = BuildPaperGraph();
  const std::string prefix = "MATCH (x)-[]->";
  for (const std::string& quantifier :
       {std::string("{10000000}"), std::string("{1,99999999999}"),
        std::string("{9223372036854775807}")}) {
    Status status = MatchStatusOf(g, prefix + quantifier + "(y)");
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << quantifier;
    const std::string offset = "offset=" + std::to_string(prefix.size());
    EXPECT_NE(status.message().find(offset), std::string::npos) << status;
  }
  // Nested products count too, and name the quantifier that overflows.
  const std::string nested = "MATCH (x)[[()-[]->()]{300}]{300}(y)";
  Status status = MatchStatusOf(g, nested);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  const size_t outer = nested.find("]{300}(y)") + 1;
  EXPECT_NE(status.message().find("offset=" + std::to_string(outer)),
            std::string::npos)
      << status;
  // Below the cap it still compiles.
  Engine engine(g);
  for (const char* text : {"MATCH (x)[[()-[]->()]{30}]{30}(y)",
                           "MATCH (x)-[]->{5000}(y)"}) {
    Result<PreparedQuery> prepared = engine.Prepare(text);
    EXPECT_TRUE(prepared.ok()) << text << ": " << prepared.status();
  }
}

TEST(RobustnessTest, DeeplyNestedUnions) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(MatchStatusOf(g,
                          "MATCH (x)[[->(a:City) | ->(a:Country)] | "
                          "[->(a:Phone) | ->(a:IP)]]"),
            Status::OK());
}

TEST(RobustnessTest, LongConcatenation) {
  PropertyGraph g = BuildPaperGraph();
  std::string q = "MATCH (n0)";
  for (int i = 1; i <= 12; ++i) {
    q += "-[:Transfer]->(n" + std::to_string(i) + ")";
  }
  EXPECT_EQ(MatchStatusOf(g, q), Status::OK());
}

TEST(RobustnessTest, WhereOnEveryElement) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(
      CountRows(g,
                "MATCH (a WHERE a.owner='Scott')"
                "-[e:Transfer WHERE e.amount>1M]->"
                "(b WHERE b.owner='Mike')"
                "-[f:Transfer WHERE f.amount>9M]->"
                "(c WHERE c.owner='Aretha')"),
      1u);
}

// --- parser resilience -------------------------------------------------------

class HostileInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HostileInputTest, NeverCrashesOnlyErrors) {
  // Any outcome is fine except a crash; errors must be Status-carried.
  Result<GraphPattern> r = ParseGraphPattern(GetParam());
  if (!r.ok()) {
    EXPECT_FALSE(r.status().message().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Garbage, HostileInputTest,
    ::testing::Values(
        "", "M", "MATCH", "MATCH MATCH", "MATCH ( ( ( (",
        "MATCH )", "MATCH (x))", "MATCH (x WHERE)", "MATCH (x:)",
        "MATCH (x:WHERE)", "MATCH -[", "MATCH -[]", "MATCH -[]-",
        "MATCH <-<-<-", "MATCH (a)-[e]>(b)", "MATCH (a){2,3}",
        "MATCH (a)->{,3}(b)", "MATCH (a)->{}(b)", "MATCH (a)->{3(b)",
        "MATCH (a) WHERE", "MATCH (a) WHERE (", "MATCH (a) WHERE 1 +",
        "MATCH (a) WHERE COUNT(", "MATCH (a) WHERE SAME()",
        "MATCH (a) RETURN", "MATCH (a) | ", "MATCH | (a)",
        "MATCH (a) |+| ", "MATCH ANY", "MATCH SHORTEST (a)",
        "MATCH ALL (a)", "MATCH TRAIL", "MATCH p = ", "MATCH p == (a)",
        "MATCH 'str'", "MATCH 5M", "MATCH (a WHERE 'unterminated)",
        "MATCH (a)<~>(b)", "MATCH ~~(a)", "MATCH (a)-[e:%%]->(b)"));

TEST(RobustnessTest, VeryLongIdentifiers) {
  std::string long_name(3000, 'x');
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(MatchStatusOf(g, "MATCH (" + long_name + ":Account)"),
            Status::OK());
}

TEST(RobustnessTest, UnicodeInStringLiterals) {
  PropertyGraph g = BuildPaperGraph();
  // UTF-8 bytes flow through string literals untouched.
  EXPECT_EQ(CountRows(g, "MATCH (x WHERE x.owner='Ünïcödé')"), 0u);
}

// --- spec edge cases ----------------------------------------------------------

TEST(RobustnessTest, ForwardReferenceInInlineWhereIsUnknown) {
  PropertyGraph g = BuildPaperGraph();
  // y is not yet bound when the edge predicate runs: comparison is UNKNOWN,
  // so nothing matches — not an error.
  EXPECT_EQ(CountRows(g, "MATCH (x)-[e:Transfer WHERE y.owner='Jay']->(y)"),
            0u);
}

TEST(RobustnessTest, PropertyAccessOnEdgeVarNamedLikeKeyword) {
  PropertyGraph g = BuildPaperGraph();
  // Non-reserved keywords: a variable may be called 'match' or 'trail'.
  EXPECT_EQ(CountRows(g, "MATCH (match:City)"), 1u);
  EXPECT_EQ(CountRows(g, "MATCH (trail:Account WHERE trail.owner='Jay')"),
            1u);
}

TEST(RobustnessTest, CaseSensitiveLabelsAndProperties) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(CountRows(g, "MATCH (x:account)"), 0u);
  EXPECT_EQ(CountRows(g, "MATCH (x:Account WHERE x.Owner='Jay')"), 0u);
}

TEST(RobustnessTest, SelfJoinAcrossDeclsOnEveryVariable) {
  PropertyGraph g = BuildPaperGraph();
  // Identical decls joined on all three variables: same count as one decl.
  EXPECT_EQ(CountRows(g, "MATCH (x)-[e:Transfer]->(y), (x)-[e]->(y)"),
            CountRows(g, "MATCH (x)-[e:Transfer]->(y)"));
}

TEST(RobustnessTest, NumericPropertyComparisonAcrossIntDouble) {
  GraphBuilder b;
  b.AddNode("n1", {"N"}, {{"w", Value::Double(2.5)}});
  b.AddNode("n2", {"N"}, {{"w", Value::Int(3)}});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(Rows(g, "MATCH (x:N WHERE x.w > 2.4)", "x").size(), 2u);
  EXPECT_EQ(Rows(g, "MATCH (x:N WHERE x.w = 3)", "x"),
            (std::vector<std::string>{"n2"}));
}

}  // namespace
}  // namespace gpml
