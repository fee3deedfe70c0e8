#include "gql/json_export.h"

namespace gpml {

namespace {

void AppendPathJson(std::string* out, const PropertyGraph& g, const Path& p) {
  out->append("{\"kind\":\"path\",\"length\":");
  AppendJsonInt(out, p.Length());
  out->append(",\"elements\":[");
  for (size_t i = 0; i < p.nodes().size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, g.node_name(p.nodes()[i]));
    if (i < p.edges().size()) {
      out->push_back(',');
      AppendJsonString(out, g.edge_name(p.edges()[i]));
    }
  }
  out->append("]}");
}

}  // namespace

void AppendElementJson(std::string* out, const PropertyGraph& g,
                       const ElementRef& ref) {
  out->append(ref.is_node() ? "{\"kind\":\"node\",\"name\":"
                            : "{\"kind\":\"edge\",\"name\":");
  AppendJsonString(out, g.name(ref));
  if (ref.is_edge()) {
    const EdgeData& e = g.edge(ref.id);
    out->append(e.directed ? ",\"directed\":true,\"endpoints\":["
                           : ",\"directed\":false,\"endpoints\":[");
    AppendJsonString(out, g.node_name(e.u));
    out->push_back(',');
    AppendJsonString(out, g.node_name(e.v));
    out->push_back(']');
  }
  out->append(",\"labels\":[");
  // The run is in symbol order and labels are written in name order. Runs
  // are a label or two, so each next name is picked in place.
  const SymbolTable& label_names = g.label_symbols();
  SymSpan labels = g.label_syms(ref);
  const std::string* prev = nullptr;
  for (size_t i = 0; i < labels.count; ++i) {
    const std::string* next = nullptr;
    for (Symbol s : labels) {
      const std::string& name = label_names.name(s);
      if ((prev == nullptr || *prev < name) &&
          (next == nullptr || name < *next)) {
        next = &name;
      }
    }
    if (i > 0) out->push_back(',');
    AppendJsonString(out, *next);
    prev = next;
  }
  out->append("],\"properties\":{");
  const SymbolTable& keys = g.property_symbols();
  bool first = true;
  for (Symbol key : g.property_keys(ref)) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(out, keys.name(key));
    out->push_back(':');
    AppendJsonValue(out, g.ColumnValue(ref, key));
  }
  out->append("}}");
}

void AppendRowJson(std::string* out, const MatchOutput& output,
                   const ResultRow& row, const PropertyGraph& g) {
  out->push_back('{');
  RowScope scope(output, row);
  // In a large graph the row's elements sit far apart, and their cache
  // misses taken one by one cost more than the writing (perfbench
  // `remote`). Start them together, one dependent level per pass: the
  // offsets, the names and runs, the column slots, then the string bytes.
  constexpr size_t kMaxPrefetched = 8;
  ElementRef elements[kMaxPrefetched];
  size_t num_elements = 0;
  for (int v = 0; v < output.vars->size() && num_elements < kMaxPrefetched;
       ++v) {
    if (output.vars->info(v).anonymous) continue;
    if (std::optional<ElementRef> el = scope.LookupSingleton(v)) {
      elements[num_elements++] = *el;
    }
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (size_t i = 0; i < num_elements; ++i) {
      g.PrefetchElement(elements[i], pass);
    }
  }
  bool first_var = true;
  for (int v = 0; v < output.vars->size(); ++v) {
    const VarInfo& info = output.vars->info(v);
    if (info.anonymous) continue;
    if (!first_var) out->push_back(',');
    first_var = false;
    AppendJsonString(out, info.name);
    out->push_back(':');
    if (info.kind == VarInfo::Kind::kPath) {
      if (const Path* p = scope.LookupPath(v)) {
        AppendPathJson(out, g, *p);
        continue;
      }
    } else if (info.group) {
      out->push_back('[');
      std::vector<ElementRef> elems = scope.CollectGroup(v);
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendElementJson(out, g, elems[i]);
      }
      out->push_back(']');
      continue;
    } else if (std::optional<ElementRef> el = scope.LookupSingleton(v)) {
      AppendElementJson(out, g, *el);
      continue;
    }
    out->append("null");  // Unbound path or conditional singleton.
  }
  out->push_back('}');
}

std::string ExportJson(const MatchOutput& output, const PropertyGraph& g) {
  std::string out = "{\"rows\":[";
  for (size_t i = 0; i < output.rows.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendRowJson(&out, output, output.rows[i], g);
  }
  out.append("]}");
  return out;
}

std::string RowToJson(const MatchOutput& output, const ResultRow& row,
                      const PropertyGraph& g) {
  std::string out;
  AppendRowJson(&out, output, row, g);
  return out;
}

std::string ElementToJson(const PropertyGraph& g, const ElementRef& ref) {
  std::string out;
  AppendElementJson(&out, g, ref);
  return out;
}

}  // namespace gpml
