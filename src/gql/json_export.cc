#include "gql/json_export.h"

namespace gpml {

namespace {

void AppendPathJson(std::string* out, const PropertyGraph& g, const Path& p) {
  out->append("{\"kind\":\"path\",\"length\":");
  AppendJsonInt(out, p.Length());
  out->append(",\"elements\":[");
  for (size_t i = 0; i < p.nodes().size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, g.node(p.nodes()[i]).name);
    if (i < p.edges().size()) {
      out->push_back(',');
      AppendJsonString(out, g.edge(p.edges()[i]).name);
    }
  }
  out->append("]}");
}

}  // namespace

void AppendElementJson(std::string* out, const PropertyGraph& g,
                       const ElementRef& ref) {
  const ElementData& d = g.element(ref);
  out->append(ref.is_node() ? "{\"kind\":\"node\",\"name\":"
                            : "{\"kind\":\"edge\",\"name\":");
  AppendJsonString(out, d.name);
  if (ref.is_edge()) {
    const EdgeData& e = g.edge(ref.id);
    out->append(e.directed ? ",\"directed\":true,\"endpoints\":["
                           : ",\"directed\":false,\"endpoints\":[");
    AppendJsonString(out, g.node(e.u).name);
    out->push_back(',');
    AppendJsonString(out, g.node(e.v).name);
    out->push_back(']');
  }
  out->append(",\"labels\":[");
  for (size_t i = 0; i < d.labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, d.labels[i]);
  }
  out->append("],\"properties\":{");
  bool first = true;
  for (const auto& [k, v] : d.properties) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(out, k);
    out->push_back(':');
    AppendJsonValue(out, v);
  }
  out->append("}}");
}

void AppendRowJson(std::string* out, const MatchOutput& output,
                   const ResultRow& row, const PropertyGraph& g) {
  out->push_back('{');
  RowScope scope(output, row);
  // In a large graph the row's element records sit far apart, and their
  // cache misses taken one by one cost more than the writing (perfbench
  // `remote`). Start them together: the records, then what they point to.
  for (int pass = 0; pass < 2; ++pass) {
    for (int v = 0; v < output.vars->size(); ++v) {
      std::optional<ElementRef> el = scope.LookupSingleton(v);
      if (output.vars->info(v).anonymous || !el.has_value()) continue;
      const ElementData& d = g.element(*el);
      if (pass == 0) {
        __builtin_prefetch(&d);
        __builtin_prefetch(&d.properties);
      } else if (!d.properties.empty()) {
        __builtin_prefetch(d.labels.data());
        __builtin_prefetch(&*d.properties.begin());
        __builtin_prefetch(&d.properties.begin()->second);
      }
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
