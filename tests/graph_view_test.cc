#include "pgq/graph_view.h"

#include <gtest/gtest.h>

#include "graph/sample_graph.h"

namespace gpml {
namespace {

// E2: the Figure 2 tabular representation materializes into the Figure 1
// graph.

class GraphViewTest : public ::testing::Test {
 protected:
  GraphViewTest() {
    Result<GraphViewDef> def = InstallPaperTables(catalog_);
    EXPECT_TRUE(def.ok()) << def.status();
    def_ = *def;
  }
  Catalog catalog_;
  GraphViewDef def_;
};

TEST_F(GraphViewTest, TablesInstalled) {
  for (const char* t : {"Account", "Transfer", "Country", "CityCountry",
                        "Phone", "IP", "isLocatedIn", "hasPhone",
                        "signInWithIP"}) {
    EXPECT_TRUE(catalog_.HasTable(t)) << t;
  }
  EXPECT_EQ((*catalog_.GetTable("Account"))->num_rows(), 6u);
  EXPECT_EQ((*catalog_.GetTable("Transfer"))->num_rows(), 8u);
}

TEST_F(GraphViewTest, MaterializedViewEqualsFigureOneGraph) {
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def_);
  ASSERT_TRUE(view.ok()) << view.status();
  PropertyGraph direct = BuildPaperGraph();

  ASSERT_EQ(view->num_nodes(), direct.num_nodes());
  ASSERT_EQ(view->num_edges(), direct.num_edges());

  // Element-by-element comparison through external names.
  auto same_labels_and_properties = [&](ElementRef want, ElementRef got) {
    std::string_view name = direct.name(want);
    EXPECT_EQ(view->LabelNames(got), direct.LabelNames(want)) << name;
    for (Symbol key : direct.property_keys(want)) {
      const std::string& prop = direct.property_symbols().name(key);
      EXPECT_EQ(view->GetPropertyFast(got, prop), direct.ColumnValue(want, key))
          << name << "." << prop;
    }
  };
  for (NodeId n = 0; n < direct.num_nodes(); ++n) {
    std::string_view name = direct.node_name(n);
    NodeId m = view->FindNode(name);
    ASSERT_NE(m, kInvalidId) << name;
    same_labels_and_properties(ElementRef::Node(n), ElementRef::Node(m));
  }
  for (EdgeId e = 0; e < direct.num_edges(); ++e) {
    const EdgeData& want = direct.edge(e);
    std::string_view name = direct.edge_name(e);
    EdgeId f = view->FindEdge(name);
    ASSERT_NE(f, kInvalidId) << name;
    const EdgeData& got = view->edge(f);
    EXPECT_EQ(got.directed, want.directed) << name;
    EXPECT_EQ(view->node_name(got.u), direct.node_name(want.u));
    EXPECT_EQ(view->node_name(got.v), direct.node_name(want.v));
    same_labels_and_properties(ElementRef::Edge(e), ElementRef::Edge(f));
  }
}

TEST_F(GraphViewTest, CityCountryTableYieldsBothLabels) {
  // Figure 2: one relation per label combination; CityCountry holds c2.
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def_);
  ASSERT_TRUE(view.ok());
  ElementRef c2 = ElementRef::Node(view->FindNode("c2"));
  EXPECT_TRUE(view->HasLabel(c2, "City"));
  EXPECT_TRUE(view->HasLabel(c2, "Country"));
}

TEST_F(GraphViewTest, CreatePropertyGraphRegisters) {
  EXPECT_TRUE(CreatePropertyGraph(catalog_, def_).ok());
  EXPECT_TRUE(catalog_.HasGraph("paper_graph"));
  // Re-creating collides.
  EXPECT_EQ(CreatePropertyGraph(catalog_, def_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GraphViewTest, MissingTableIsError) {
  GraphViewDef bad = def_;
  bad.nodes.push_back({"Ghost", "ID", {"G"}, {}});
  EXPECT_EQ(MaterializeGraphView(catalog_, bad).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, MissingColumnIsError) {
  GraphViewDef bad = def_;
  bad.nodes[0].key_column = "NoSuchColumn";
  EXPECT_EQ(MaterializeGraphView(catalog_, bad).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, DanglingEdgeKeyIsError) {
  Catalog catalog;
  Table nodes{Schema({{"ID", ValueType::kString, false}})};
  ASSERT_TRUE(nodes.Append({Value::String("n1")}).ok());
  ASSERT_TRUE(catalog.AddTable("N", std::move(nodes)).ok());
  Table edges{Schema({{"ID", ValueType::kString, false},
                      {"SRC", ValueType::kString, false},
                      {"DST", ValueType::kString, false}})};
  ASSERT_TRUE(edges
                  .Append({Value::String("e1"), Value::String("n1"),
                           Value::String("ghost")})
                  .ok());
  ASSERT_TRUE(catalog.AddTable("E", std::move(edges)).ok());
  GraphViewDef def;
  def.name = "g";
  def.nodes = {{"N", "ID", {"N"}, {}}};
  def.edges = {{"E", "ID", "SRC", "DST", true, {"E"}, {}}};
  EXPECT_EQ(MaterializeGraphView(catalog, def).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, ExplicitPropertyColumnSelection) {
  GraphViewDef def = def_;
  def.nodes[0].property_columns = {"owner"};  // Drop isBlocked.
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def);
  ASSERT_TRUE(view.ok());
  ElementRef a1 = ElementRef::Node(view->FindNode("a1"));
  EXPECT_FALSE(view->GetPropertyFast(a1, "owner").is_null());
  EXPECT_TRUE(view->GetPropertyFast(a1, "isBlocked").is_null());
}

}  // namespace
}  // namespace gpml
