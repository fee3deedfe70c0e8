#include "pgq/graph_view.h"

#include "graph/graph_builder.h"

namespace gpml {

namespace {

Result<std::vector<int>> ResolveColumns(const Table& table,
                                        const std::vector<std::string>& cols,
                                        int key_col, int skip1 = -1,
                                        int skip2 = -1) {
  std::vector<int> out;
  if (cols.empty()) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      int ci = static_cast<int>(c);
      if (ci == key_col || ci == skip1 || ci == skip2) continue;
      out.push_back(ci);
    }
    return out;
  }
  for (const std::string& name : cols) {
    int ci = table.schema().FindColumn(name);
    if (ci < 0) return Status::NotFound("no column named " + name);
    out.push_back(ci);
  }
  return out;
}

/// Fills `props` with views of the row's non-NULL property columns.
void RowProperties(const Table& table, const Row& row,
                   const std::vector<int>& property_cols,
                   std::vector<PropertyArg>* props) {
  props->clear();
  for (int c : property_cols) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_null()) continue;  // Absent property, not a NULL-valued one.
    props->push_back({table.schema().column(static_cast<size_t>(c)).name, v});
  }
}

}  // namespace

Result<PropertyGraph> MaterializeGraphView(const Catalog& catalog,
                                           const GraphViewDef& def) {
  GraphBuilder builder;
  std::vector<PropertyArg> row_props;

  for (const NodeTableMapping& m : def.nodes) {
    GPML_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(m.table));
    int key = table->schema().FindColumn(m.key_column);
    if (key < 0) {
      return Status::NotFound("node table " + m.table + " has no key column " +
                              m.key_column);
    }
    GPML_ASSIGN_OR_RETURN(std::vector<int> props,
                          ResolveColumns(*table, m.property_columns, key));
    std::vector<std::string_view> labels(m.labels.begin(), m.labels.end());
    for (const Row& row : table->rows()) {
      const Value& k = row[static_cast<size_t>(key)];
      if (k.is_null()) {
        return Status::InvalidArgument("NULL node key in table " + m.table);
      }
      RowProperties(*table, row, props, &row_props);
      builder.AddNode(k.ToString(), labels, row_props);
    }
  }

  for (const EdgeTableMapping& m : def.edges) {
    GPML_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(m.table));
    int key = table->schema().FindColumn(m.key_column);
    int src = table->schema().FindColumn(m.source_column);
    int dst = table->schema().FindColumn(m.target_column);
    if (key < 0 || src < 0 || dst < 0) {
      return Status::NotFound("edge table " + m.table +
                              " is missing key/source/target columns");
    }
    GPML_ASSIGN_OR_RETURN(
        std::vector<int> props,
        ResolveColumns(*table, m.property_columns, key, src, dst));
    std::vector<std::string_view> labels(m.labels.begin(), m.labels.end());
    for (const Row& row : table->rows()) {
      const Value& k = row[static_cast<size_t>(key)];
      const Value& s = row[static_cast<size_t>(src)];
      const Value& d = row[static_cast<size_t>(dst)];
      if (k.is_null() || s.is_null() || d.is_null()) {
        return Status::InvalidArgument("NULL key/endpoint in edge table " +
                                       m.table);
      }
      RowProperties(*table, row, props, &row_props);
      if (m.directed) {
        builder.AddDirectedEdge(k.ToString(), s.ToString(), d.ToString(),
                                labels, row_props);
      } else {
        builder.AddUndirectedEdge(k.ToString(), s.ToString(), d.ToString(),
                                  labels, row_props);
      }
    }
  }

  return std::move(builder).Build();
}

Status CreatePropertyGraph(Catalog& catalog, const GraphViewDef& def) {
  GPML_ASSIGN_OR_RETURN(PropertyGraph g, MaterializeGraphView(catalog, def));
  return catalog.AddGraph(def.name, std::move(g));
}

namespace {

Schema MakeSchema(std::vector<ColumnDef> cols) { return Schema(std::move(cols)); }

Status AddNodeTable(Catalog& catalog, const std::string& name,
                    std::vector<ColumnDef> cols,
                    std::vector<Row> rows) {
  Table t{MakeSchema(std::move(cols))};
  for (Row& r : rows) {
    GPML_RETURN_IF_ERROR(t.Append(std::move(r)));
  }
  return catalog.AddTable(name, std::move(t));
}

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

}  // namespace

Result<GraphViewDef> InstallPaperTables(Catalog& catalog) {
  constexpr int64_t M = 1'000'000;

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "Account",
      {{"ID", ValueType::kString, false},
       {"owner", ValueType::kString, true},
       {"isBlocked", ValueType::kString, true}},
      {{S("a1"), S("Scott"), S("no")},
       {S("a2"), S("Aretha"), S("no")},
       {S("a3"), S("Mike"), S("no")},
       {S("a4"), S("Jay"), S("yes")},
       {S("a5"), S("Charles"), S("no")},
       {S("a6"), S("Dave"), S("no")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(catalog, "Country",
                                    {{"ID", ValueType::kString, false},
                                     {"name", ValueType::kString, true}},
                                    {{S("c1"), S("Zembla")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(catalog, "CityCountry",
                                    {{"ID", ValueType::kString, false},
                                     {"name", ValueType::kString, true}},
                                    {{S("c2"), S("Ankh-Morpork")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "Phone",
      {{"ID", ValueType::kString, false},
       {"number", ValueType::kInt, true},
       {"isBlocked", ValueType::kString, true}},
      {{S("p1"), I(111), S("no")},
       {S("p2"), I(222), S("no")},
       {S("p3"), I(333), S("no")},
       {S("p4"), I(444), S("no")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "IP",
      {{"ID", ValueType::kString, false},
       {"number", ValueType::kString, true},
       {"isBlocked", ValueType::kString, true}},
      {{S("ip1"), S("123.111"), S("no")}, {S("ip2"), S("123.222"), S("no")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "Transfer",
      {{"ID", ValueType::kString, false},
       {"A_ID1", ValueType::kString, false},
       {"A_ID2", ValueType::kString, false},
       {"date", ValueType::kString, true},
       {"amount", ValueType::kInt, true}},
      {{S("t1"), S("a1"), S("a3"), S("1/1/2020"), I(8 * M)},
       {S("t2"), S("a3"), S("a2"), S("2/1/2020"), I(10 * M)},
       {S("t3"), S("a2"), S("a4"), S("3/1/2020"), I(10 * M)},
       {S("t4"), S("a4"), S("a6"), S("4/1/2020"), I(10 * M)},
       {S("t5"), S("a6"), S("a3"), S("6/1/2020"), I(10 * M)},
       {S("t6"), S("a6"), S("a5"), S("7/1/2020"), I(4 * M)},
       {S("t7"), S("a3"), S("a5"), S("8/1/2020"), I(6 * M)},
       {S("t8"), S("a5"), S("a1"), S("9/1/2020"), I(9 * M)}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "isLocatedIn",
      {{"ID", ValueType::kString, false},
       {"A_ID", ValueType::kString, false},
       {"C_ID", ValueType::kString, false}},
      {{S("li1"), S("a1"), S("c1")},
       {S("li2"), S("a2"), S("c2")},
       {S("li3"), S("a3"), S("c1")},
       {S("li4"), S("a4"), S("c2")},
       {S("li5"), S("a5"), S("c1")},
       {S("li6"), S("a6"), S("c2")}}));

  GPML_RETURN_IF_ERROR(AddNodeTable(
      catalog, "hasPhone",
      {{"ID", ValueType::kString, false},
       {"A_ID", ValueType::kString, false},
       {"P_ID", ValueType::kString, false}},
      {{S("hp1"), S("a1"), S("p1")},
       {S("hp2"), S("a2"), S("p2")},
       {S("hp3"), S("a3"), S("p2")},
       {S("hp4"), S("a4"), S("p3")},
       {S("hp5"), S("a5"), S("p1")},
       {S("hp6"), S("a6"), S("p4")}}));

  GPML_RETURN_IF_ERROR(
      AddNodeTable(catalog, "signInWithIP",
                   {{"ID", ValueType::kString, false},
                    {"A_ID", ValueType::kString, false},
                    {"s_ID", ValueType::kString, false}},
                   {{S("sip1"), S("a1"), S("ip1")},
                    {S("sip2"), S("a5"), S("ip2")}}));

  GraphViewDef def;
  def.name = "paper_graph";
  def.nodes = {
      {"Account", "ID", {"Account"}, {}},
      {"Country", "ID", {"Country"}, {}},
      {"CityCountry", "ID", {"City", "Country"}, {}},
      {"Phone", "ID", {"Phone"}, {}},
      {"IP", "ID", {"IP"}, {}},
  };
  def.edges = {
      {"Transfer", "ID", "A_ID1", "A_ID2", true, {"Transfer"}, {}},
      {"isLocatedIn", "ID", "A_ID", "C_ID", true, {"isLocatedIn"}, {}},
      {"hasPhone", "ID", "A_ID", "P_ID", false, {"hasPhone"}, {}},
      {"signInWithIP", "ID", "A_ID", "s_ID", true, {"signInWithIP"}, {}},
  };
  return def;
}

}  // namespace gpml
