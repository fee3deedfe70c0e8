#ifndef GPML_GRAPH_ADJACENCY_H_
#define GPML_GRAPH_ADJACENCY_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace gpml {

/// Dense integer handle of a node within one PropertyGraph.
using NodeId = uint32_t;
/// Dense integer handle of an edge within one PropertyGraph.
using EdgeId = uint32_t;

inline constexpr uint32_t kInvalidId = 0xffffffffu;

/// How an edge is traversed within a path: a directed edge can be walked
/// along its direction (forward) or against it (backward); an undirected
/// edge has no orientation. Edge patterns of Figure 5 constrain which
/// traversals are admissible.
enum class Traversal : uint8_t { kForward, kBackward, kUndirected };

/// An incident-edge record in a node's adjacency list (and in the
/// label-partitioned buckets of CsrIndex, which store the same records
/// grouped by edge-label symbol).
struct Adjacency {
  EdgeId edge;
  NodeId neighbor;       // The endpoint reached by this traversal.
  Traversal traversal;   // How `edge` is crossed when leaving this node.
};

/// A borrowed run of `T`: a stored array of the graph (adjacency records,
/// node ids, symbols) or a call's argument list. A span of a brace list is
/// valid until the end of the full expression, as the list is.
template <typename T>
struct Span {
  const T* data = nullptr;
  size_t count = 0;

  Span() = default;
  Span(const T* d, size_t n) : data(d), count(n) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
// The span does not extend the list's lifetime, and need not: a brace list
// argument lives until the call returns.
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  Span(std::initializer_list<T> list)  // NOLINT: implicit, a brace list.
      : data(list.begin()), count(list.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  Span(const std::vector<T>& v)  // NOLINT: implicit, a vector's elements.
      : data(v.data()), count(v.size()) {}

  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const T* begin() const { return data; }
  const T* end() const { return data + count; }
  const T& operator[](size_t i) const { return data[i]; }
};

/// A node's incident-edge records: the full adjacency or one of
/// CsrIndex's label partitions.
using AdjSpan = Span<Adjacency>;

/// Element ids in ascending order: a label index entry or a seed-index
/// bucket.
using IdSpan = Span<uint32_t>;

}  // namespace gpml

#endif  // GPML_GRAPH_ADJACENCY_H_
