#include "graph/property_graph.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "gql/json_export.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

Result<PropertyGraph> SmallGraph() {
  GraphBuilder b;
  b.AddNode("n1", {"A"}, {{"k", Value::Int(1)}});
  b.AddNode("n2", {"A", "B"});
  b.AddNode("n3", {});
  b.AddDirectedEdge("e1", "n1", "n2", {"X"}, {{"w", Value::Int(7)}});
  b.AddUndirectedEdge("e2", "n2", "n3", {"Y"});
  b.AddDirectedEdge("e3", "n3", "n3", {"X"});   // Directed self-loop.
  b.AddUndirectedEdge("e4", "n1", "n1", {"Y"}); // Undirected self-loop.
  return std::move(b).Build();
}

TEST(PropertyGraphTest, BasicCounts) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.Summary(), "3 nodes, 4 edges");
}

TEST(PropertyGraphTest, LookupByName) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_NE(g.FindNode("n1"), kInvalidId);
  EXPECT_EQ(g.FindNode("nope"), kInvalidId);
  EXPECT_NE(g.FindEdge("e2"), kInvalidId);
  EXPECT_EQ(g.FindEdge("zzz"), kInvalidId);
}

TEST(PropertyGraphTest, LabelsAreSortedAndSearchable) {
  PropertyGraph g = std::move(SmallGraph()).value();
  ElementRef n2 = ElementRef::Node(g.FindNode("n2"));
  EXPECT_TRUE(g.HasLabel(n2, "A"));
  EXPECT_TRUE(g.HasLabel(n2, "B"));
  EXPECT_FALSE(g.HasLabel(n2, "C"));
  EXPECT_EQ(g.LabelNames(n2), (std::vector<std::string>{"A", "B"}));
  ElementRef n3 = ElementRef::Node(g.FindNode("n3"));
  EXPECT_EQ(g.label_syms(n3).count, 0u);
}

TEST(PropertyGraphTest, LabelIndex) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_EQ(g.NodesWithLabel("A").size(), 2u);
  EXPECT_EQ(g.NodesWithLabel("B").size(), 1u);
  EXPECT_TRUE(g.NodesWithLabel("Z").empty());
  EXPECT_EQ(g.EdgesWithLabel("X").size(), 2u);
  EXPECT_EQ(g.EdgesWithLabel("Y").size(), 2u);
}

TEST(PropertyGraphTest, PropertiesAndMissingProperty) {
  PropertyGraph g = std::move(SmallGraph()).value();
  ElementRef n1 = ElementRef::Node(g.FindNode("n1"));
  EXPECT_EQ(g.GetPropertyFast(n1, "k"), Value::Int(1));
  EXPECT_TRUE(g.GetPropertyFast(n1, "missing").is_null());
  ElementRef e1 = ElementRef::Edge(g.FindEdge("e1"));
  EXPECT_EQ(g.GetPropertyFast(e1, "w"), Value::Int(7));
}

TEST(PropertyGraphTest, DirectedAdjacency) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n1 = g.FindNode("n1");
  NodeId n2 = g.FindNode("n2");
  // n1: forward e1, plus the undirected self-loop e4 (one record).
  int fwd = 0, bwd = 0, und = 0;
  for (const Adjacency& a : g.adjacencies(n1)) {
    if (a.traversal == Traversal::kForward) ++fwd;
    if (a.traversal == Traversal::kBackward) ++bwd;
    if (a.traversal == Traversal::kUndirected) ++und;
  }
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(bwd, 0);
  EXPECT_EQ(und, 1);
  // n2 sees e1 backward and e2 undirected.
  fwd = bwd = und = 0;
  for (const Adjacency& a : g.adjacencies(n2)) {
    if (a.traversal == Traversal::kForward) ++fwd;
    if (a.traversal == Traversal::kBackward) ++bwd;
    if (a.traversal == Traversal::kUndirected) ++und;
  }
  EXPECT_EQ(fwd, 0);
  EXPECT_EQ(bwd, 1);
  EXPECT_EQ(und, 1);
}

TEST(PropertyGraphTest, DirectedSelfLoopHasBothTraversals) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n3 = g.FindNode("n3");
  int fwd = 0, bwd = 0;
  for (const Adjacency& a : g.adjacencies(n3)) {
    if (a.edge == g.FindEdge("e3")) {
      if (a.traversal == Traversal::kForward) ++fwd;
      if (a.traversal == Traversal::kBackward) ++bwd;
      EXPECT_EQ(a.neighbor, n3);
    }
  }
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(bwd, 1);
}

TEST(PropertyGraphTest, CrossSemantics) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n1 = g.FindNode("n1");
  NodeId n2 = g.FindNode("n2");
  NodeId n3 = g.FindNode("n3");
  EdgeId e1 = g.FindEdge("e1");
  EdgeId e2 = g.FindEdge("e2");
  EXPECT_EQ(g.Cross(e1, n1, Traversal::kForward), n2);
  EXPECT_EQ(g.Cross(e1, n2, Traversal::kForward), kInvalidId);
  EXPECT_EQ(g.Cross(e1, n2, Traversal::kBackward), n1);
  EXPECT_EQ(g.Cross(e2, n2, Traversal::kUndirected), n3);
  EXPECT_EQ(g.Cross(e2, n3, Traversal::kUndirected), n2);
  EXPECT_EQ(g.Cross(e2, n2, Traversal::kForward), kInvalidId);
}

TEST(GraphBuilderTest, DuplicateNodeNameRejected) {
  GraphBuilder b;
  b.AddNode("x");
  b.AddNode("x");
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kAlreadyExists);
}

TEST(GraphBuilderTest, DanglingEdgeRejected) {
  GraphBuilder b;
  b.AddNode("x");
  b.AddDirectedEdge("e", "x", "ghost");
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST(GraphBuilderTest, DuplicateLabelsDeduplicated) {
  GraphBuilder b;
  b.AddNode("x", {"A", "A", "B"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(g.label_syms(ElementRef::Node(0)).count, 2u);
}

TEST(PropertyGraphTest, ParallelEdgesAllowed) {
  GraphBuilder b;
  b.AddNode("u");
  b.AddNode("v");
  b.AddDirectedEdge("p1", "u", "v", {"T"});
  b.AddDirectedEdge("p2", "u", "v", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.adjacencies(g.FindNode("u")).size(), 2u);
}

/// The element's name as its export writes it.
std::string ExportedName(const PropertyGraph& g, const ElementRef& ref) {
  std::string json = ElementToJson(g, ref);
  const size_t begin = json.find("\"name\":\"") + 8;
  return json.substr(begin, json.find('"', begin) - begin);
}

TEST(PropertyGraphTest, FindByEveryName) {
  // Enough names to grow the name tables several times, unnamed elements
  // (never found, never duplicates), and a node and an edge sharing a name.
  GraphBuilder b;
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i) {
    names.push_back("node-" + std::to_string(i * 7919 % 1000));
    b.AddNode(names.back());
    if (i % 100 == 0) b.AddNode("");
  }
  b.AddNode("shared");
  for (int i = 0; i < 500; ++i) {
    b.AddDirectedEdge("edge-" + std::to_string(i), names[i], names[i + 1]);
    if (i % 100 == 0) b.AddUndirectedEdge("", names[i], names[i]);
  }
  b.AddDirectedEdge("shared", "shared", "shared");
  PropertyGraph g = std::move(std::move(b).Build()).value();
  ASSERT_EQ(g.num_nodes(), 1011u);
  ASSERT_EQ(g.num_edges(), 506u);

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    std::string name = ExportedName(g, ElementRef::Node(n));
    EXPECT_EQ(g.FindNode(name), name.empty() ? kInvalidId : n) << name;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::string name = ExportedName(g, ElementRef::Edge(e));
    EXPECT_EQ(g.FindEdge(name), name.empty() ? kInvalidId : e) << name;
  }
  NodeId expected = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(g.FindNode(names[i]), expected) << names[i];
    expected += i % 100 == 0 ? 2 : 1;
  }
  EdgeId edge = 0;
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(g.FindEdge("edge-" + std::to_string(i)), edge) << i;
    edge += i % 100 == 0 ? 2 : 1;
  }
  EXPECT_EQ(g.FindNode("shared"), 1010u);
  EXPECT_EQ(g.FindEdge("shared"), 505u);
  EXPECT_EQ(g.FindNode(""), kInvalidId);
  EXPECT_EQ(g.FindEdge(""), kInvalidId);
  EXPECT_EQ(g.FindNode("node-1000"), kInvalidId);
  EXPECT_EQ(g.FindNode("node-"), kInvalidId);
  EXPECT_EQ(g.FindNode("edge-0"), kInvalidId);
  EXPECT_EQ(g.FindEdge("node-0"), kInvalidId);
  EXPECT_EQ(g.FindEdge("edge-500"), kInvalidId);
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(1)),
            "{\"kind\":\"node\",\"name\":\"\",\"labels\":[],"
            "\"properties\":{}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(1)),
            "{\"kind\":\"edge\",\"name\":\"\",\"directed\":false,"
            "\"endpoints\":[\"node-0\",\"node-0\"],\"labels\":[],"
            "\"properties\":{}}");
}

TEST(PropertyGraphTest, SeedIndexNumericEqualityAndOrder) {
  GraphBuilder b;
  b.AddNode("a", {"L"}, {{"k", Value::Int(1)}});
  b.AddNode("b", {"L"}, {{"k", Value::Double(1.0)}});
  b.AddNode("c", {"L"}, {{"k", Value::Int(2)}});
  b.AddNode("d", {"M"}, {{"k", Value::Int(1)}});
  b.AddNode("e", {"L", "M"}, {{"k", Value::Int(1)}});
  b.AddNode("f", {"L"}, {{"k", Value::String("1")}});
  b.AddNode("g", {"L"},
            {{"k", Value::Double(std::numeric_limits<double>::quiet_NaN())}});
  b.AddNode("h", {"L"}, {{"k", Value::Null()}});
  b.AddNode("i", {"L"}, {{"k", Value::Double(-0.0)}});
  b.AddNode("j", {"L"}, {{"k", Value::Int(0)}});
  b.AddNode("k", {"L"}, {{"k", Value::Double(1.0)}, {"z", Value::Bool(true)}});
  b.AddNode("l", {"L"}, {{"z", Value::Bool(true)}});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  auto ids = [&g](const std::string& label, const std::string& key,
                  const Value& value) {
    auto found = g.IndexedNodes(label, key, value);
    std::vector<std::string> names;
    NodeId prev = kInvalidId;
    for (NodeId n : found) {
      EXPECT_TRUE(prev == kInvalidId || prev < n) << "not ascending";
      prev = n;
      names.push_back(ExportedName(g, ElementRef::Node(n)));
    }
    return names;
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(ids("L", "k", Value::Double(1.0)), (Names{"a", "b", "e", "k"}));
  EXPECT_EQ(ids("L", "k", Value::Int(1)), (Names{"a", "b", "e", "k"}));
  EXPECT_EQ(ids("M", "k", Value::Double(1.0)), (Names{"d", "e"}));
  EXPECT_EQ(ids("L", "k", Value::Int(2)), (Names{"c"}));
  EXPECT_EQ(ids("L", "k", Value::Double(2.0)), (Names{"c"}));
  EXPECT_EQ(ids("L", "k", Value::String("1")), (Names{"f"}));
  EXPECT_EQ(ids("L", "k", Value::Double(0.0)), (Names{"i", "j"}));
  EXPECT_EQ(ids("L", "k", Value::Int(0)), (Names{"i", "j"}));
  EXPECT_EQ(ids("L", "z", Value::Bool(true)), (Names{"k", "l"}));
  // Absent values, NaN and NULL select nothing.
  EXPECT_TRUE(g.IndexedNodes("L", "k", Value::Int(3)).empty());
  EXPECT_TRUE(g.IndexedNodes("L", "k", Value::String("2")).empty());
  EXPECT_TRUE(g.IndexedNodes("L", "z", Value::Bool(false)).empty());
  EXPECT_TRUE(g.IndexedNodes("L", "k", Value::Bool(true)).empty());
  EXPECT_TRUE(
      g.IndexedNodes("L", "k",
                     Value::Double(std::numeric_limits<double>::quiet_NaN()))
          .empty());
  EXPECT_TRUE(g.IndexedNodes("L", "k", Value::Null()).empty());
  EXPECT_TRUE(g.IndexedNodes("M", "z", Value::Bool(true)).empty());
  EXPECT_TRUE(g.IndexedNodes("L", "nope", Value::Int(1)).empty());
  EXPECT_TRUE(g.IndexedNodes("Nope", "k", Value::Int(1)).empty());
  EXPECT_EQ(g.IndexedNodes("L", "k", Value::Int(1)).size(), 4u);
}

TEST(GraphBuilderTest, ErrorsReportInEdgeOrder) {
  // An edge may name a node added after it; it resolves at Build().
  GraphBuilder late;
  late.AddDirectedEdge("e", "x", "y");
  late.AddNode("x");
  late.AddNode("y");
  Result<PropertyGraph> g = std::move(late).Build();
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->edge(0).u, g->FindNode("x"));
  EXPECT_EQ(g->edge(0).v, g->FindNode("y"));

  // A repeated name before an unknown endpoint on a later edge...
  GraphBuilder dup_first;
  dup_first.AddNode("x");
  dup_first.AddDirectedEdge("e", "x", "x");
  dup_first.AddDirectedEdge("e", "x", "x");
  dup_first.AddDirectedEdge("f", "x", "ghost");
  EXPECT_EQ(std::move(dup_first).Build().status().ToString(),
            Status::AlreadyExists("duplicate edge name: e").ToString());
  // ...and an unknown endpoint before a later repeated name.
  GraphBuilder ghost_first;
  ghost_first.AddNode("x");
  ghost_first.AddDirectedEdge("f", "x", "ghost");
  ghost_first.AddDirectedEdge("e", "x", "x");
  ghost_first.AddDirectedEdge("e", "x", "x");
  EXPECT_EQ(std::move(ghost_first).Build().status().ToString(),
            Status::NotFound("edge f references unknown node: ghost")
                .ToString());
  // A repeated node name wins over every edge error.
  GraphBuilder dup_node;
  dup_node.AddDirectedEdge("f", "x", "ghost");
  dup_node.AddNode("x");
  dup_node.AddNode("x");
  EXPECT_EQ(std::move(dup_node).Build().status().code(),
            StatusCode::kAlreadyExists);
}

// --- storage round trip: every accessor against the builder input, and the
// element export bytes the string-map store produced for the same input.

/// Explicit NULL, a repeated key (the last value wins), repeated labels, an
/// element with no labels or properties, and 70 distinct labels on one node
/// (past the 64-bit label masks).
testing_util::GraphInput EdgeCaseInput() {
  testing_util::GraphInput input;
  std::vector<std::string> many;
  for (int i = 69; i >= 0; --i) many.push_back("M" + std::to_string(i));
  input.nodes = {
      {"n0",
       {"B", "A", "B"},
       {{"z", Value::Int(1)},
        {"k", Value::Null()},
        {"a", Value::String("x\"y")},
        {"z", Value::Int(2)}}},
      {"n1", {}, {}},
      {"n2", many, {{"d", Value::Double(0.5)}, {"b", Value::Bool(true)}}},
  };
  input.edges = {
      {"e0", {"T"}, {{"w", Value::Double(2.5)}, {"w", Value::Null()}}, "n0",
       "n1", true},
      {"e1", {}, {}, "n1", "n2", false},
      {"e2", {"T", "S", "T"}, {{"k", Value::String("")}}, "n2", "n2", true},
  };
  return input;
}

/// FNV-1a over every element's export, nodes then edges.
struct ExportDigest {
  size_t bytes = 0;
  uint64_t fnv = 0xcbf29ce484222325ULL;
};

ExportDigest DigestExport(const PropertyGraph& g) {
  ExportDigest d;
  auto add = [&d](const std::string& s) {
    d.bytes += s.size();
    for (unsigned char c : s) {
      d.fnv ^= c;
      d.fnv *= 0x100000001b3ULL;
    }
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    add(ElementToJson(g, ElementRef::Node(n)));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    add(ElementToJson(g, ElementRef::Edge(e)));
  }
  return d;
}

TEST(StorageRoundTripTest, EdgeCasesMatchInputAndExport) {
  testing_util::GraphInput input = EdgeCaseInput();
  PropertyGraph g = input.Build();
  ASSERT_FALSE(g.label_bits_usable());
  testing_util::ExpectStoreMatchesInput(g, input);

  // Pinned from the export of the string-keyed per-element maps.
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(0)),
            "{\"kind\":\"node\",\"name\":\"n0\",\"labels\":[\"A\",\"B\"],"
            "\"properties\":{\"a\":\"x\\\"y\",\"k\":null,\"z\":2}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(1)),
            "{\"kind\":\"node\",\"name\":\"n1\",\"labels\":[],"
            "\"properties\":{}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(0)),
            "{\"kind\":\"edge\",\"name\":\"e0\",\"directed\":true,"
            "\"endpoints\":[\"n0\",\"n1\"],\"labels\":[\"T\"],"
            "\"properties\":{\"w\":null}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(1)),
            "{\"kind\":\"edge\",\"name\":\"e1\",\"directed\":false,"
            "\"endpoints\":[\"n1\",\"n2\"],\"labels\":[],\"properties\":{}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(2)),
            "{\"kind\":\"edge\",\"name\":\"e2\",\"directed\":true,"
            "\"endpoints\":[\"n2\",\"n2\"],\"labels\":[\"S\",\"T\"],"
            "\"properties\":{\"k\":\"\"}}");
  // n2's 70 labels export in string order: M0, M1, M10, ..., M69, M7, ...
  std::string n2 = ElementToJson(g, ElementRef::Node(2));
  const std::string n2_head =
      "{\"kind\":\"node\",\"name\":\"n2\",\"labels\":[\"M0\",\"M1\","
      "\"M10\",\"M11\",";
  EXPECT_EQ(n2.substr(0, n2_head.size()), n2_head);
  EXPECT_NE(n2.find("\"M69\",\"M7\",\"M8\",\"M9\"],\"properties\":"
                    "{\"b\":true,\"d\":0.5}}"),
            std::string::npos);
  ExportDigest d = DigestExport(g);
  EXPECT_EQ(d.bytes, 932u);
  EXPECT_EQ(d.fnv, 0x33d9eb74bf20a0c7ULL);
}

/// One key, "v", whose values differ in type from element to element, and
/// the edge values of each type: int64 limits, -0.0, NaN, the empty string,
/// strings around the 8-byte payload width and long ones, non-ASCII and
/// invalid UTF-8 bytes, an embedded NUL.
struct MixedValue {
  std::string name;
  Value value;
  bool present = true;
};

std::vector<MixedValue> MixedValues() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      {"int", Value::Int(42)},
      {"double", Value::Double(2.5)},
      {"bool", Value::Bool(true)},
      {"false", Value::Bool(false)},
      {"string", Value::String("forty-two")},
      {"null", Value::Null()},
      {"absent", Value::Null(), false},
      {"min", Value::Int(std::numeric_limits<int64_t>::min())},
      {"max", Value::Int(std::numeric_limits<int64_t>::max())},
      {"negzero", Value::Double(-0.0)},
      {"nan", Value::Double(nan)},
      {"tiny", Value::Double(5e-324)},
      {"empty", Value::String("")},
      {"s7", Value::String("abcdefg")},
      {"s8", Value::String("abcdefgh")},
      {"s9", Value::String("abcdefghi")},
      {"s16", Value::String("0123456789abcdef")},
      {"s300", Value::String(std::string(300, 'x'))},
      {"utf8", Value::String("na\xc3\xafve caf\xc3\xa9 \xe2\x80\x94 \xf0\x9f\x98\x80")},
      {"bytes", Value::String(std::string("\xff\x00\x80z", 4))},
  };
}

/// An owned copy of a property read.
template <typename Read>
Value Owned(const Read& read) {
  if constexpr (std::is_same_v<Read, Value>) {
    return read;
  } else {
    return read.ToValue();
  }
}

void ExpectSameValue(ValueType type, const Value& want, const Value& got,
                     const std::string& what) {
  ASSERT_EQ(got.type(), type) << what;
  switch (type) {
    case ValueType::kDouble:
      if (std::isnan(want.double_value())) {
        EXPECT_TRUE(std::isnan(got.double_value())) << what;
      } else {
        EXPECT_EQ(got.double_value(), want.double_value()) << what;
        EXPECT_EQ(std::signbit(got.double_value()),
                  std::signbit(want.double_value()))
            << what;
      }
      break;
    case ValueType::kString:
      EXPECT_EQ(std::string(got.string_value()), want.string_value()) << what;
      break;
    default:
      EXPECT_EQ(got, want) << what;
  }
}

TEST(StorageRoundTripTest, OneKeyHoldsEveryTypeOnNodesAndEdges) {
  std::vector<MixedValue> values = MixedValues();
  GraphBuilder b;
  b.AddNode("hub");
  for (const MixedValue& m : values) {
    if (m.present) {
      b.AddNode(m.name, {"N"}, {{"v", m.value}});
      b.AddDirectedEdge("e-" + m.name, "hub", m.name, {"E"}, {{"v", m.value}});
    } else {
      b.AddNode(m.name, {"N"});
      b.AddDirectedEdge("e-" + m.name, "hub", m.name, {"E"});
    }
  }
  PropertyGraph g = std::move(std::move(b).Build()).value();
  for (const MixedValue& m : values) {
    for (ElementRef ref : {ElementRef::Node(g.FindNode(m.name)),
                           ElementRef::Edge(g.FindEdge("e-" + m.name))}) {
      ExpectSameValue(m.value.type(), m.value,
                      Owned(g.GetPropertyFast(ref, "v")), m.name);
      EXPECT_EQ(g.property_keys(ref).count, m.present ? 1u : 0u) << m.name;
    }
  }
  // Every element's export, pinned from the store of one Value per slot.
  ExportDigest d = DigestExport(g);
  EXPECT_EQ(d.bytes, 4489u);
  EXPECT_EQ(d.fnv, 0x824273a194b38b1eULL);
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("min"))),
            "{\"kind\":\"node\",\"name\":\"min\",\"labels\":[\"N\"],"
            "\"properties\":{\"v\":-9223372036854775808}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(g.FindEdge("e-negzero"))),
            "{\"kind\":\"edge\",\"name\":\"e-negzero\",\"directed\":true,"
            "\"endpoints\":[\"hub\",\"negzero\"],\"labels\":[\"E\"],"
            "\"properties\":{\"v\":-0.0}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("nan"))),
            "{\"kind\":\"node\",\"name\":\"nan\",\"labels\":[\"N\"],"
            "\"properties\":{\"v\":null}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("bytes"))),
            "{\"kind\":\"node\",\"name\":\"bytes\",\"labels\":[\"N\"],"
            "\"properties\":{\"v\":\"\xEF\xBF\xBD\\u0000\xEF\xBF\xBD"
            "z\"}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(g.FindNode("utf8"))),
            "{\"kind\":\"node\",\"name\":\"utf8\",\"labels\":[\"N\"],"
            "\"properties\":{\"v\":\"na\xC3\xAFve caf\xC3\xA9 \xE2\x80\x94 "
            "\xF0\x9F\x98\x80\"}}");
}

TEST(StorageRoundTripTest, RandomInputsMatchInput) {
  for (uint64_t seed : {1u, 2u, 3u, 7u, 11u}) {
    testing_util::GraphInput input =
        testing_util::RandomGraphInput(/*num_nodes=*/12, /*num_edges=*/50,
                                       /*num_labels=*/4, seed);
    testing_util::ExpectStoreMatchesInput(input.Build(), input);
  }
}

TEST(StorageRoundTripTest, GeneratedGraphsExportAsBefore) {
  // Digests of the element exports of the string-keyed per-element maps on
  // the same generated graphs.
  struct Pin {
    uint64_t seed;
    size_t bytes;
    uint64_t fnv;
  };
  for (const Pin& pin : {Pin{1, 4756, 0x88efd359f78c2af5ULL},
                         Pin{2, 4769, 0x1a10c6bef599b760ULL},
                         Pin{3, 4763, 0xbc1ebd82ca048317ULL},
                         Pin{7, 4759, 0x03cf52636c07ceabULL}}) {
    ExportDigest d = DigestExport(MakeRandomGraph(8, 40, 3, 0.4, pin.seed));
    EXPECT_EQ(d.bytes, pin.bytes) << "seed " << pin.seed;
    EXPECT_EQ(d.fnv, pin.fnv) << "seed " << pin.seed;
  }
  FraudGraphOptions options;
  options.num_accounts = 300;
  ExportDigest d = DigestExport(MakeFraudGraph(options));
  EXPECT_EQ(d.bytes, 311722u);
  EXPECT_EQ(d.fnv, 0x67b458e96e1cdfe9ULL);
}

}  // namespace
}  // namespace gpml
