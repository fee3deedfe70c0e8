#include "pgq/graph_table.h"

#include <gtest/gtest.h>

#include "pgq/graph_view.h"

namespace gpml {
namespace {

// E20 (PGQ side): GRAPH_TABLE projects reduced path bindings into tables.

class GraphTableTest : public ::testing::Test {
 protected:
  GraphTableTest() {
    Result<GraphViewDef> def = InstallPaperTables(catalog_);
    EXPECT_TRUE(def.ok());
    EXPECT_TRUE(CreatePropertyGraph(catalog_, *def).ok());
  }
  Catalog catalog_;
};

TEST_F(GraphTableTest, PgqlStyleFigure4Query) {
  // The PGQL rendition of Figure 4 (§3), as GRAPH_TABLE.
  GraphTableQuery q;
  q.graph = "paper_graph";
  q.match =
      "MATCH (x:Account)-[:isLocatedIn]->(g:City)<-[:isLocatedIn]-"
      "(y:Account), ANY (x)-[e:Transfer]->+(y) "
      "WHERE x.isBlocked='no' AND y.isBlocked='yes' "
      "AND g.name='Ankh-Morpork'";
  q.columns = "x.owner AS A, y.owner AS B";
  Result<Table> t = GraphTable(catalog_, q);
  ASSERT_TRUE(t.ok()) << t.status();
  Table table = *t;
  table.SortRows();
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(*table.At(0, "A"), Value::String("Aretha"));
  EXPECT_EQ(*table.At(0, "B"), Value::String("Jay"));
  EXPECT_EQ(*table.At(1, "A"), Value::String("Dave"));
}

TEST_F(GraphTableTest, ListAggAlongPath) {
  // §3 PGQL: LISTAGG over the group edge variable.
  GraphTableQuery q;
  q.graph = "paper_graph";
  q.match =
      "MATCH ANY SHORTEST (x:Account WHERE x.owner='Dave')"
      "-[e:Transfer]->+(y:Account WHERE y.owner='Aretha')";
  q.columns =
      "x.owner AS A, y.owner AS B, LISTAGG(e, ', ') AS edges, "
      "COUNT(e) AS hops";
  Result<Table> t = GraphTable(catalog_, q);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(*t->At(0, "edges"), Value::String("t5, t2"));
  EXPECT_EQ(*t->At(0, "hops"), Value::Int(2));
}

TEST_F(GraphTableTest, CountVersusCountDistinctRepeatedEdges) {
  // §3: WHERE COUNT(e) = COUNT(DISTINCT e) filters out edge-repeating
  // walks.
  GraphTableQuery q;
  q.graph = "paper_graph";
  q.match =
      "MATCH (x:Account WHERE x.owner='Charles')-[e:Transfer]->{4}"
      "(y:Account WHERE y.owner='Scott') "
      "WHERE COUNT(e) = COUNT(DISTINCT e)";
  q.columns = "x.owner AS A, COUNT(e) AS n";
  Result<Table> t = GraphTable(catalog_, q);
  ASSERT_TRUE(t.ok()) << t.status();
  // The only 4-walk a5->a1 repeats t8 (a5,t8,a1,t1,a3,t7,a5,t8,a1): dropped.
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(GraphTableTest, UnknownGraphIsError) {
  GraphTableQuery q{"ghost", "MATCH (x)", "x"};
  EXPECT_EQ(GraphTable(catalog_, q).status().code(), StatusCode::kNotFound);
}

TEST_F(GraphTableTest, SurfaceSyntaxParser) {
  Result<GraphTableQuery> q = ParseGraphTableCall(
      "GRAPH_TABLE(paper_graph, "
      "MATCH (x:Account WHERE x.isBlocked='yes') "
      "COLUMNS (x.owner AS owner))");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->graph, "paper_graph");
  EXPECT_NE(q->match.find("MATCH"), std::string::npos);
  EXPECT_EQ(q->columns, "x.owner AS owner");

  Result<Table> t = GraphTable(catalog_, *q);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(*t->At(0, "owner"), Value::String("Jay"));

  // COLUMNS inside a string literal or as a property name is not the
  // keyword.
  for (const char* where : {"x.owner='Columns'", "x.columns=1"}) {
    const std::string match =
        std::string("MATCH (x:Account WHERE ") + where + ") ";
    q = ParseGraphTableCall("GRAPH_TABLE(paper_graph, " + match +
                            "COLUMNS (x.owner AS o))");
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->match, " " + match);
    EXPECT_EQ(q->columns, "x.owner AS o");
    t = GraphTable(catalog_, *q);
    ASSERT_TRUE(t.ok()) << where << ": " << t.status();
    EXPECT_EQ(t->num_rows(), 0u);
  }
}

TEST_F(GraphTableTest, SurfaceSyntaxErrors) {
  EXPECT_FALSE(ParseGraphTableCall("SELECT 1").ok());
  EXPECT_FALSE(ParseGraphTableCall("GRAPH_TABLE(g MATCH (x))").ok());
  EXPECT_FALSE(
      ParseGraphTableCall("GRAPH_TABLE(g, MATCH (x) COLUMNS (x").ok());
}

TEST_F(GraphTableTest, ExplainAnalyzeThroughSqlHost) {
  GraphTableQuery q;
  q.graph = "paper_graph";
  q.match = "EXPLAIN ANALYZE MATCH (a:Account)-[t:Transfer]->(b:Account)";
  q.columns = "a AS ignored";
  Result<Table> t = GraphTable(catalog_, q);
  ASSERT_TRUE(t.ok()) << t.status();
  std::string text;
  for (const Row& row : t->rows()) text += row[0].ToString() + "\n";
  EXPECT_NE(text.find("actual_seeds="), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;

  // A COLUMNS-only parameter binding is accepted (and dropped — ANALYZE
  // does not evaluate COLUMNS), exactly like the executing call would be.
  q.columns = "$tag AS tag";
  q.params = {{"tag", Value::Int(1)}};
  EXPECT_TRUE(GraphTable(catalog_, q).ok());

  // A name neither the pattern nor COLUMNS references stays an error.
  q.params = {{"nope", Value::Int(1)}};
  Result<Table> bad = GraphTable(catalog_, q);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown parameter $nope"),
            std::string::npos);
}

TEST_F(GraphTableTest, BagSemanticsNoImplicitDistinct) {
  GraphTableQuery q;
  q.graph = "paper_graph";
  // Two different phones project the same owner rows.
  q.match = "MATCH (a:Account)~[:hasPhone]~(p:Phone)";
  q.columns = "p AS phone";
  Result<Table> t = GraphTable(catalog_, q);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 6u);  // One row per hasPhone edge: a bag.
}

}  // namespace
}  // namespace gpml
