#include "parser/parser.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ast/print.h"

namespace gpml {
namespace {

GraphPattern MustParse(const std::string& text) {
  Result<GraphPattern> g = ParseGraphPattern(text);
  EXPECT_TRUE(g.ok()) << text << " -> " << g.status();
  return g.ok() ? *g : GraphPattern{};
}

const PathPattern& Pattern(const GraphPattern& g, size_t i = 0) {
  return *g.paths[i].pattern;
}

TEST(ParserTest, MinimalNodePattern) {
  GraphPattern g = MustParse("MATCH ()");
  ASSERT_EQ(g.paths.size(), 1u);
  const PathPattern& p = Pattern(g);
  ASSERT_EQ(p.elements.size(), 1u);
  EXPECT_EQ(p.elements[0].kind, PathElement::Kind::kNode);
  EXPECT_TRUE(p.elements[0].node.var.empty());
}

TEST(ParserTest, NodeWithVarLabelWhere) {
  GraphPattern g =
      MustParse("MATCH (x:Account WHERE x.isBlocked='no')");
  const NodePattern& n = Pattern(g).elements[0].node;
  EXPECT_EQ(n.var, "x");
  ASSERT_NE(n.labels, nullptr);
  EXPECT_EQ(n.labels->ToString(), "Account");
  ASSERT_NE(n.where, nullptr);
  EXPECT_EQ(n.where->ToString(), "x.isBlocked = 'no'");
}

TEST(ParserTest, LabelExpressionOperators) {
  GraphPattern g = MustParse("MATCH (x:Account|IP) (y:!%) (z:(A&B)|C)");
  const PathPattern& p = Pattern(g);
  EXPECT_EQ(p.elements[0].node.labels->ToString(), "Account|IP");
  EXPECT_EQ(p.elements[1].node.labels->ToString(), "!%");
  EXPECT_EQ(p.elements[2].node.labels->ToString(), "A&B|C");
}

TEST(ParserTest, AllSevenEdgeOrientations) {
  struct Case {
    const char* text;
    EdgeOrientation orientation;
  };
  const Case cases[] = {
      {"MATCH (a)<-[e]-(b)", EdgeOrientation::kLeft},
      {"MATCH (a)~[e]~(b)", EdgeOrientation::kUndirected},
      {"MATCH (a)-[e]->(b)", EdgeOrientation::kRight},
      {"MATCH (a)<~[e]~(b)", EdgeOrientation::kLeftOrUndirected},
      {"MATCH (a)~[e]~>(b)", EdgeOrientation::kUndirectedOrRight},
      {"MATCH (a)<-[e]->(b)", EdgeOrientation::kLeftOrRight},
      {"MATCH (a)-[e]-(b)", EdgeOrientation::kAny},
  };
  for (const Case& c : cases) {
    GraphPattern g = MustParse(c.text);
    const PathPattern& p = Pattern(g);
    ASSERT_EQ(p.elements.size(), 3u) << c.text;
    EXPECT_EQ(p.elements[1].edge.orientation, c.orientation) << c.text;
    EXPECT_EQ(p.elements[1].edge.var, "e") << c.text;
  }
}

TEST(ParserTest, AbbreviatedEdgeOrientations) {
  struct Case {
    const char* text;
    EdgeOrientation orientation;
  };
  const Case cases[] = {
      {"MATCH (a)<-(b)", EdgeOrientation::kLeft},
      {"MATCH (a)~(b)", EdgeOrientation::kUndirected},
      {"MATCH (a)->(b)", EdgeOrientation::kRight},
      {"MATCH (a)<~(b)", EdgeOrientation::kLeftOrUndirected},
      {"MATCH (a)~>(b)", EdgeOrientation::kUndirectedOrRight},
      {"MATCH (a)<->(b)", EdgeOrientation::kLeftOrRight},
      {"MATCH (a)-(b)", EdgeOrientation::kAny},
  };
  for (const Case& c : cases) {
    GraphPattern g = MustParse(c.text);
    const PathPattern& p = Pattern(g);
    ASSERT_EQ(p.elements.size(), 3u) << c.text;
    EXPECT_EQ(p.elements[1].kind, PathElement::Kind::kEdge) << c.text;
    EXPECT_EQ(p.elements[1].edge.orientation, c.orientation) << c.text;
  }
}

TEST(ParserTest, EdgeWithLabelAndWhere) {
  GraphPattern g =
      MustParse("MATCH -[e:Transfer WHERE e.amount>5M]->");
  const EdgePattern& e = Pattern(g).elements[0].edge;
  EXPECT_EQ(e.var, "e");
  EXPECT_EQ(e.labels->ToString(), "Transfer");
  EXPECT_EQ(e.where->ToString(), "e.amount > 5000000");
}

TEST(ParserTest, QuantifiersOnEdges) {
  GraphPattern g = MustParse("MATCH (a)-[:Transfer]->{2,5}(b)");
  const PathElement& q = Pattern(g).elements[1];
  EXPECT_EQ(q.kind, PathElement::Kind::kQuantified);
  EXPECT_TRUE(q.bare_edge);
  EXPECT_EQ(q.min, 2u);
  EXPECT_EQ(*q.max, 5u);
}

TEST(ParserTest, StarPlusQuestionQuantifiers) {
  GraphPattern g = MustParse("MATCH (a)->*(b)->+(c) (x)[->(y)]?");
  const PathPattern& p = Pattern(g);
  EXPECT_EQ(p.elements[1].min, 0u);
  EXPECT_FALSE(p.elements[1].max.has_value());
  EXPECT_EQ(p.elements[3].min, 1u);
  EXPECT_FALSE(p.elements[3].max.has_value());
  EXPECT_EQ(p.elements[6].kind, PathElement::Kind::kOptional);
}

TEST(ParserTest, OpenEndedAndExactQuantifier) {
  GraphPattern g = MustParse("MATCH (a)->{3,}(b)->{4}(c)");
  const PathPattern& p = Pattern(g);
  EXPECT_EQ(p.elements[1].min, 3u);
  EXPECT_FALSE(p.elements[1].max.has_value());
  EXPECT_EQ(p.elements[3].min, 4u);
  EXPECT_EQ(*p.elements[3].max, 4u);
}

TEST(ParserTest, BadQuantifierBounds) {
  EXPECT_FALSE(ParseGraphPattern("MATCH (a)->{5,2}(b)").ok());
}

TEST(ParserTest, ParenthesizedPatternWithWhere) {
  GraphPattern g = MustParse(
      "MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]"
      "{2,5}");
  const PathElement& q = Pattern(g).elements[0];
  EXPECT_EQ(q.kind, PathElement::Kind::kQuantified);
  EXPECT_FALSE(q.bare_edge);
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->ToString(), "a.owner = b.owner");
}

TEST(ParserTest, ParenthesizedWithRestrictor) {
  GraphPattern g =
      MustParse("MATCH [TRAIL (x)-[e]->*(y) WHERE COUNT(e.*) > 1]");
  const PathElement& par = Pattern(g).elements[0];
  EXPECT_EQ(par.kind, PathElement::Kind::kParen);
  EXPECT_EQ(par.restrictor, Restrictor::kTrail);
  EXPECT_NE(par.where, nullptr);
}

TEST(ParserTest, RoundParenthesizedPathPattern) {
  GraphPattern g = MustParse("MATCH ((a)-[e]->(b))");
  EXPECT_EQ(Pattern(g).elements[0].kind, PathElement::Kind::kParen);
}

TEST(ParserTest, PathVariable) {
  GraphPattern g = MustParse("MATCH p = (a)-[:Transfer]->(b)");
  EXPECT_EQ(g.paths[0].path_var, "p");
}

TEST(ParserTest, RestrictorsAtHead) {
  EXPECT_EQ(MustParse("MATCH TRAIL (a)->*(b)").paths[0].restrictor,
            Restrictor::kTrail);
  EXPECT_EQ(MustParse("MATCH ACYCLIC (a)->*(b)").paths[0].restrictor,
            Restrictor::kAcyclic);
  EXPECT_EQ(MustParse("MATCH SIMPLE (a)->*(b)").paths[0].restrictor,
            Restrictor::kSimple);
}

TEST(ParserTest, Selectors) {
  EXPECT_EQ(MustParse("MATCH ANY SHORTEST (a)->*(b)").paths[0].selector.kind,
            Selector::Kind::kAnyShortest);
  EXPECT_EQ(MustParse("MATCH ALL SHORTEST (a)->*(b)").paths[0].selector.kind,
            Selector::Kind::kAllShortest);
  EXPECT_EQ(MustParse("MATCH ANY (a)->*(b)").paths[0].selector.kind,
            Selector::Kind::kAny);
  Selector s = MustParse("MATCH ANY 3 (a)->*(b)").paths[0].selector;
  EXPECT_EQ(s.kind, Selector::Kind::kAnyK);
  EXPECT_EQ(s.k, 3);
  s = MustParse("MATCH SHORTEST 2 (a)->*(b)").paths[0].selector;
  EXPECT_EQ(s.kind, Selector::Kind::kShortestK);
  EXPECT_EQ(s.k, 2);
  s = MustParse("MATCH SHORTEST 2 GROUP (a)->*(b)").paths[0].selector;
  EXPECT_EQ(s.kind, Selector::Kind::kShortestKGroup);
}

TEST(ParserTest, SelectorWithRestrictorAndPathVar) {
  GraphPattern g =
      MustParse("MATCH ALL SHORTEST TRAIL p = (a)-[t:Transfer]->*(b)");
  EXPECT_EQ(g.paths[0].selector.kind, Selector::Kind::kAllShortest);
  EXPECT_EQ(g.paths[0].restrictor, Restrictor::kTrail);
  EXPECT_EQ(g.paths[0].path_var, "p");
}

TEST(ParserTest, PathPatternUnionAndAlternation) {
  GraphPattern g = MustParse("MATCH (c:City) | (c:Country)");
  EXPECT_EQ(Pattern(g).kind, PathPattern::Kind::kUnion);
  EXPECT_EQ(Pattern(g).alternatives.size(), 2u);

  g = MustParse("MATCH (c:City) |+| (c:Country)");
  EXPECT_EQ(Pattern(g).kind, PathPattern::Kind::kAlternation);
}

TEST(ParserTest, UnionOfQuantifiedEdges) {
  // §4.5: MATCH ->{1,5} | ->{3,7}.
  GraphPattern g = MustParse("MATCH ->{1,5} | ->{3,7}");
  ASSERT_EQ(Pattern(g).kind, PathPattern::Kind::kUnion);
  EXPECT_EQ(Pattern(g).alternatives.size(), 2u);
}

TEST(ParserTest, MultiplePathPatterns) {
  GraphPattern g = MustParse(
      "MATCH (s:Account)-[:signInWithIP]-(), "
      "(s)-[t:Transfer WHERE t.amount>1M]->(), "
      "(s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')");
  EXPECT_EQ(g.paths.size(), 3u);
}

TEST(ParserTest, PostfilterWhere) {
  GraphPattern g = MustParse("MATCH (x:Account) WHERE x.isBlocked='no'");
  ASSERT_NE(g.where, nullptr);
  EXPECT_EQ(g.where->ToString(), "x.isBlocked = 'no'");
}

TEST(ParserTest, ReturnClause) {
  Result<MatchStatement> s =
      ParseStatement("MATCH (x) RETURN x.owner AS o, COUNT(x) AS n");
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_TRUE(s->has_return);
  ASSERT_EQ(s->return_items.size(), 2u);
  EXPECT_EQ(s->return_items[0].alias, "o");
  EXPECT_EQ(s->return_items[1].alias, "n");
}

TEST(ParserTest, ReturnDistinct) {
  Result<MatchStatement> s = ParseStatement("MATCH (x) RETURN DISTINCT x");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->return_distinct);
}

TEST(ParserTest, LessThanVersusArrowLeft) {
  // `a.w <-1` must parse as a.w < -1, not as an edge arrow.
  Result<ExprPtr> e = ParseExpression("a.w <-1");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(), "a.w < 0 - 1");
}

TEST(ParserTest, ExpressionPrecedence) {
  Result<ExprPtr> e = ParseExpression("1 + 2 * 3 > 6 AND NOT FALSE");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "1 + 2 * 3 > 6 AND NOT false");
}

TEST(ParserTest, GraphicalPredicates) {
  Result<ExprPtr> e = ParseExpression("e IS DIRECTED");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kIsDirected);

  e = ParseExpression("s IS SOURCE OF e");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kIsSourceOf);

  e = ParseExpression("d IS DESTINATION OF e");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kIsDestinationOf);

  e = ParseExpression("SAME(p, q, r)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->vars.size(), 3u);

  e = ParseExpression("ALL_DIFFERENT(p, q)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kAllDifferent);
}

TEST(ParserTest, IsNullForms) {
  Result<ExprPtr> e = ParseExpression("x.prop IS NULL");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, Expr::Kind::kIsNull);
  EXPECT_FALSE((*e)->negated);
  e = ParseExpression("x.prop IS NOT NULL");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->negated);
}

TEST(ParserTest, Aggregates) {
  Result<ExprPtr> e = ParseExpression("SUM(t.amount) > 10M");
  ASSERT_TRUE(e.ok());
  e = ParseExpression("COUNT(e.*) / (COUNT(e.*) + 1) > 1");
  ASSERT_TRUE(e.ok()) << e.status();
  e = ParseExpression("COUNT(DISTINCT e) = COUNT(e)");
  ASSERT_TRUE(e.ok());
  e = ParseExpression("LISTAGG(e.ID, ', ')");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->separator, ", ");
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseGraphPattern("match trail (a)->*(b) where a.x=1").ok());
  EXPECT_TRUE(ParseGraphPattern("MATCH any shortest (a)->*(b)").ok());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseGraphPattern("MATCH").ok());
  EXPECT_FALSE(ParseGraphPattern("MATCH (a").ok());
  EXPECT_FALSE(ParseGraphPattern("MATCH (a) extra").ok());
  EXPECT_FALSE(ParseGraphPattern("(a)->(b)").ok());  // Missing MATCH.
  EXPECT_FALSE(ParseGraphPattern("MATCH (a)-[e]").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("FOO(x)").ok());
}

TEST(ParserTest, ColumnsList) {
  Result<std::vector<ReturnItem>> items =
      ParseColumns("x.owner AS A, y.owner AS B, COUNT(e) AS hops");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items->size(), 3u);
  EXPECT_EQ((*items)[0].alias, "A");
  EXPECT_EQ((*items)[2].alias, "hops");
}

TEST(ParserTest, ParameterPlaceholders) {
  Result<ExprPtr> e = ParseExpression("x.owner = $owner AND $flag");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(), "x.owner = $owner AND $flag");

  GraphPattern g = MustParse(
      "MATCH (x:Account WHERE x.owner = $owner)"
      "-[t:Transfer WHERE t.amount > $min]->(y) WHERE y.owner <> $owner");
  const PathPattern& p = *g.paths[0].pattern;
  ASSERT_EQ(p.elements.size(), 3u);
  EXPECT_EQ(p.elements[0].node.where->rhs->kind, Expr::Kind::kParam);
  EXPECT_EQ(p.elements[0].node.where->rhs->var, "owner");
  EXPECT_EQ(p.elements[1].edge.where->rhs->var, "min");
  ASSERT_NE(g.where, nullptr);
  EXPECT_EQ(g.where->rhs->var, "owner");
}

TEST(ParserTest, ReturnLimit) {
  Result<MatchStatement> s =
      ParseStatement("MATCH (x) RETURN x LIMIT 5");
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(s->limit.has_value());
  EXPECT_EQ(*s->limit, 5u);

  Result<MatchStatement> zero = ParseStatement("MATCH (x) RETURN x LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero->limit, 0u);

  Result<MatchStatement> none = ParseStatement("MATCH (x) RETURN x");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->limit.has_value());

  // LIMIT needs a non-negative integer; the magnitude suffix is allowed.
  EXPECT_FALSE(ParseStatement("MATCH (x) RETURN x LIMIT").ok());
  EXPECT_FALSE(ParseStatement("MATCH (x) RETURN x LIMIT x").ok());
  Result<MatchStatement> big =
      ParseStatement("MATCH (x) RETURN x LIMIT 1K");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(*big->limit, 1000u);

  // LIMIT can still be a variable name outside the clause position.
  Result<MatchStatement> ident = ParseStatement("MATCH (limit) RETURN limit");
  EXPECT_TRUE(ident.ok()) << ident.status();
}

// --- nesting cap (kMaxParseNesting) -----------------------------------------

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// One statement per nesting kind, `depth` levels deep by the parser's
/// count (see kMaxParseNesting).
std::vector<std::pair<std::string, std::string>> NestedStatements(
    size_t depth) {
  const size_t d = depth;
  return {
      {"parenthesized expression",
       "MATCH (x WHERE " + Repeat("(", d) + "x.a = 1" + Repeat(")", d) +
           ")"},
      {"NOT chain", "MATCH (x WHERE " + Repeat("NOT ", d) + "x.a = 1)"},
      {"unary minus chain", "MATCH (x WHERE x.a = " + Repeat("- ", d) + "1)"},
      // `x.a + 1 + 1 ...`: each operator of the chain is one level.
      {"binary operator chain",
       "MATCH (x WHERE x.a = 0" + Repeat(" + 1", d) + ")"},
      {"AND chain", "MATCH (x WHERE x.a = 1" + Repeat(" AND x.a = 1", d) + ")"},
      // COUNT(...) nests one level per call and its argument's parenthesis.
      {"aggregate call",
       "MATCH (x WHERE " + Repeat("COUNT(", d) + "x" + Repeat(")", d) +
           " = 1)"},
      {"label parenthesis",
       "MATCH (x:" + Repeat("(", d) + "A" + Repeat(")", d) + ")"},
      {"label negation", "MATCH (x:" + Repeat("!", d) + "A)"},
      {"label conjunction", "MATCH (x:A" + Repeat("&A", d) + ")"},
      {"bracketed path pattern",
       "MATCH " + Repeat("[", d) + "(x)-[:T]->(y)" + Repeat("]", d)},
      {"parenthesized path pattern",
       "MATCH " + Repeat("(", d) + "(x)-[:T]->(y)" + Repeat(")", d)},
      {"quantified path pattern",
       "MATCH (x)" + Repeat("[", d) + "()-[:T]->()" + Repeat("]{1,2}", d) +
           "(y)"},
  };
}

TEST(ParserNestingTest, EveryKindParsesAtTheCapAndFailsOneDeeper) {
  for (const auto& [kind, text] : NestedStatements(kMaxParseNesting)) {
    Result<MatchStatement> at_cap = ParseStatement(text);
    EXPECT_TRUE(at_cap.ok()) << kind << ": " << at_cap.status();
  }
  for (const auto& [kind, text] : NestedStatements(kMaxParseNesting + 1)) {
    Result<MatchStatement> deeper = ParseStatement(text);
    ASSERT_FALSE(deeper.ok()) << kind;
    EXPECT_EQ(deeper.status().code(), StatusCode::kSyntaxError) << kind;
    EXPECT_NE(deeper.status().message().find("nesting deeper than 256"),
              std::string::npos)
        << kind << ": " << deeper.status();
    EXPECT_NE(deeper.status().message().find("offset="), std::string::npos)
        << kind << ": " << deeper.status();
  }
}

TEST(ParserNestingTest, ErrorCarriesTheOffsetOfTheFirstLevelPastTheCap) {
  const std::string prefix = "MATCH (x WHERE ";
  const std::string text = prefix + Repeat("(", kMaxParseNesting + 5) +
                           "x.a = 1" + Repeat(")", kMaxParseNesting + 5) +
                           ")";
  Result<MatchStatement> r = ParseStatement(text);
  ASSERT_FALSE(r.ok());
  const size_t offset = prefix.size() + kMaxParseNesting;
  EXPECT_NE(r.status().message().find("offset=" + std::to_string(offset)),
            std::string::npos)
      << r.status();
}

TEST(ParserNestingTest, MegabyteOfNestingFailsCleanly) {
  // Far past any stack: the cap stops the descent at 256 levels.
  const size_t n = (1u << 20) / 2;
  for (const std::string& text :
       {"MATCH (x WHERE " + Repeat("(", n) + "x.a = 1" + Repeat(")", n) + ")",
        "MATCH " + Repeat("[", n) + "(x)" + Repeat("]", n),
        "MATCH (x WHERE " + Repeat("NOT ", n / 2) + "x.a = 1)",
        "MATCH (x:" + Repeat("!", n) + "A)"}) {
    Result<MatchStatement> r = ParseStatement(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError) << r.status();
  }
  EXPECT_FALSE(ParseExpression(Repeat("(", n) + "1" + Repeat(")", n)).ok());
  EXPECT_FALSE(ParseColumns(Repeat("- ", n / 2) + "1").ok());
}

// --- numeric literal range ---------------------------------------------------

TEST(ParserNumericLiteralTest, OutOfRangeLiteralsAreSyntaxErrors) {
  const std::string prefix = "MATCH (x WHERE x.w > ";
  const std::pair<std::string, std::string> cases[] = {
      {"int64 overflow", "99999999999999999999"},
      {"one past INT64_MAX", "9223372036854775808"},
      {"magnitude suffix overflow", "99999999999999M"},
      {"double underflow", "0." + Repeat("0", 400) + "1"},
      {"double overflow", "1" + Repeat("0", 400) + ".5"},
      {"double suffix overflow", "1" + Repeat("0", 305) + ".5M"},
  };
  for (const auto& [kind, literal] : cases) {
    Result<MatchStatement> r = ParseStatement(prefix + literal + ")");
    ASSERT_FALSE(r.ok()) << kind;
    EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError) << kind;
    EXPECT_NE(r.status().message().find("numeric literal out of range "
                                        "(offset=" +
                                        std::to_string(prefix.size()) + ")"),
              std::string::npos)
        << kind << ": " << r.status();
  }
  // The quantifier's bounds are the same literals.
  Result<MatchStatement> q =
      ParseStatement("MATCH (x)-[]->{99999999999999999999}(y)");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kSyntaxError) << q.status();
  EXPECT_NE(q.status().message().find("offset=15"), std::string::npos)
      << q.status();
}

TEST(ParserNumericLiteralTest, LiteralsAtTheLimitsParse) {
  for (const std::string& literal :
       {std::string("9223372036854775807"), std::string("9223372036854M"),
        std::string("1.5M"), "0." + Repeat("0", 300) + "1"}) {
    Result<MatchStatement> r =
        ParseStatement("MATCH (x WHERE x.w > " + literal + ")");
    EXPECT_TRUE(r.ok()) << literal << ": " << r.status();
  }
}

}  // namespace
}  // namespace gpml
