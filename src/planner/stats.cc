#include "planner/stats.h"

#include <sstream>
#include <vector>

namespace gpml {
namespace planner {

namespace {

/// One shared "no label" key so unlabeled elements still participate in the
/// label-path frequency table.
const std::string kNoLabel = "";

/// The label-symbol stand-in for an unlabeled element.
const Symbol kNone = kInvalidSymbol;

/// An element's label run, or the one-element run {kNone} when it has none.
SymSpan LabelsOrNone(SymSpan labels) {
  return labels.count == 0 ? SymSpan(&kNone, 1) : labels;
}

/// Counts per (source-node label, edge label, target-node label) symbols.
using LabelPathCounts = std::map<std::tuple<Symbol, Symbol, Symbol>, size_t>;

}  // namespace

size_t GraphStats::NodeLabelCount(const std::string& label) const {
  auto it = node_label_counts.find(label);
  return it == node_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::EdgeLabelCount(const std::string& label) const {
  auto it = edge_label_counts.find(label);
  return it == edge_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::LabelPathCount(const std::string& src_label,
                                  const std::string& edge_label,
                                  const std::string& dst_label) const {
  auto it =
      label_path_counts.find(std::make_tuple(src_label, edge_label, dst_label));
  return it == label_path_counts.end() ? 0 : it->second;
}

size_t GraphStats::UndirectedLabelPathCount(const std::string& src_label,
                                            const std::string& edge_label,
                                            const std::string& dst_label) const {
  auto it = undirected_label_path_counts.find(
      std::make_tuple(src_label, edge_label, dst_label));
  return it == undirected_label_path_counts.end() ? 0 : it->second;
}

double GraphStats::AvgDegree(const std::string& label) const {
  auto it = degree_by_label.find(label);
  if (it == degree_by_label.end()) return AvgDegreeOverall();
  return it->second.avg_out + it->second.avg_in + it->second.avg_undirected;
}

double GraphStats::AvgDegreeOverall() const {
  if (num_nodes == 0) return 0;
  // Every edge produces two adjacency entries (forward+backward or the two
  // undirected endpoints).
  return 2.0 * static_cast<double>(num_edges) /
         static_cast<double>(num_nodes);
}

std::string GraphStats::ToString() const {
  std::ostringstream os;
  os << "graph stats: " << num_nodes << " nodes (" << num_labeled_nodes
     << " labeled), " << num_edges << " edges (" << num_labeled_edges
     << " labeled)\n";
  for (const auto& [label, count] : node_label_counts) {
    os << "  node label " << label << ": " << count;
    auto it = degree_by_label.find(label);
    if (it != degree_by_label.end()) {
      os << " (avg deg out=" << it->second.avg_out
         << " in=" << it->second.avg_in
         << " undir=" << it->second.avg_undirected << ")";
    }
    os << "\n";
  }
  for (const auto& [label, count] : edge_label_counts) {
    os << "  edge label " << label << ": " << count << "\n";
  }
  for (const auto& [key, count] : label_path_counts) {
    os << "  path (" << (std::get<0>(key).empty() ? "*" : std::get<0>(key))
       << ")-[" << (std::get<1>(key).empty() ? "*" : std::get<1>(key)) << "]->("
       << (std::get<2>(key).empty() ? "*" : std::get<2>(key))
       << "): " << count << "\n";
  }
  return os.str();
}

GraphStats ComputeStats(const PropertyGraph& g) {
  GraphStats s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();

  // Count by label symbol, then name the counts once at the end.
  const SymbolTable& labels = g.label_symbols();
  std::vector<size_t> node_counts(labels.size(), 0);
  std::vector<size_t> edge_counts(labels.size(), 0);
  std::vector<LabelDegree> degree_sums(labels.size());
  LabelPathCounts paths;
  LabelPathCounts undirected_paths;

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    SymSpan ls = g.node_label_syms(n);
    if (ls.count != 0) ++s.num_labeled_nodes;
    for (Symbol l : ls) ++node_counts[l];
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeData& ed = g.edge(e);
    SymSpan edge_labels = g.edge_label_syms(e);
    if (edge_labels.count != 0) ++s.num_labeled_edges;
    for (Symbol l : edge_labels) ++edge_counts[l];

    SymSpan u_labels = LabelsOrNone(g.node_label_syms(ed.u));
    SymSpan v_labels = LabelsOrNone(g.node_label_syms(ed.v));
    for (Symbol el : LabelsOrNone(edge_labels)) {
      for (Symbol ul : u_labels) {
        for (Symbol vl : v_labels) {
          ++paths[{ul, el, vl}];
          if (!ed.directed) {
            ++paths[{vl, el, ul}];
            ++undirected_paths[{ul, el, vl}];
            ++undirected_paths[{vl, el, ul}];
          }
        }
      }
    }

    for (Symbol ul : u_labels) {
      if (ul == kNone) continue;
      if (ed.directed) {
        degree_sums[ul].avg_out += 1;
      } else {
        degree_sums[ul].avg_undirected += 1;
      }
    }
    for (Symbol vl : v_labels) {
      if (vl == kNone) continue;
      if (ed.directed) {
        degree_sums[vl].avg_in += 1;
      } else {
        degree_sums[vl].avg_undirected += 1;
      }
    }
  }

  auto name = [&labels](Symbol l) -> const std::string& {
    return l == kNone ? kNoLabel : labels.name(l);
  };
  for (Symbol l = 0; l < labels.size(); ++l) {
    if (node_counts[l] != 0) s.node_label_counts[name(l)] = node_counts[l];
    if (edge_counts[l] != 0) s.edge_label_counts[name(l)] = edge_counts[l];
  }
  // A label named "" shares its key with the unlabeled stand-in, so the
  // named counts add up.
  auto named = [&name](const std::tuple<Symbol, Symbol, Symbol>& p) {
    return std::make_tuple(name(std::get<0>(p)), name(std::get<1>(p)),
                           name(std::get<2>(p)));
  };
  for (const auto& [p, count] : paths) s.label_path_counts[named(p)] += count;
  for (const auto& [p, count] : undirected_paths) {
    s.undirected_label_path_counts[named(p)] += count;
  }
  for (Symbol l = 0; l < labels.size(); ++l) {
    const LabelDegree& sums = degree_sums[l];
    if (name(l) == kNoLabel || node_counts[l] == 0) continue;
    if (sums.avg_out == 0 && sums.avg_in == 0 && sums.avg_undirected == 0) {
      continue;  // No incident edge.
    }
    double n = static_cast<double>(node_counts[l]);
    LabelDegree d;
    d.avg_out = sums.avg_out / n;
    d.avg_in = sums.avg_in / n;
    d.avg_undirected = sums.avg_undirected / n;
    s.degree_by_label[name(l)] = d;
  }
  return s;
}

std::shared_ptr<const GraphStats> GetStats(const PropertyGraph& g) {
  if (std::shared_ptr<const GraphStats> cached = g.stats_cache()) {
    return cached;
  }
  auto stats = std::make_shared<const GraphStats>(ComputeStats(g));
  g.set_stats_cache(stats);
  return stats;
}

}  // namespace planner
}  // namespace gpml
