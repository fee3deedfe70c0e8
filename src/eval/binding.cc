#include "eval/binding.h"

#include <algorithm>

namespace gpml {

VarTable::VarTable(const Analysis& analysis) {
  for (const auto& [name, info] : analysis.variables()) {
    by_name_[name] = static_cast<int>(infos_.size());
    infos_.push_back(info);
  }
  // Reduced anonymous variables (§6.5): one node, one edge.
  {
    VarInfo anon_node;
    anon_node.name = "_";
    anon_node.kind = VarInfo::Kind::kNode;
    anon_node.anonymous = true;
    anon_node_id_ = static_cast<int>(infos_.size());
    infos_.push_back(std::move(anon_node));

    VarInfo anon_edge;
    anon_edge.name = "-";
    anon_edge.kind = VarInfo::Kind::kEdge;
    anon_edge.anonymous = true;
    anon_edge_id_ = static_cast<int>(infos_.size());
    infos_.push_back(std::move(anon_edge));
  }
}

int VarTable::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

std::vector<ElementRef> PathBinding::ElementsOf(int var) const {
  std::vector<ElementRef> out;
  for (const ElementaryBinding& b : reduced) {
    if (b.var == var) out.push_back(b.element);
  }
  return out;
}

const ElementRef* PathBinding::LastOf(int var) const {
  for (size_t i = reduced.size(); i-- > 0;) {
    if (reduced[i].var == var) return &reduced[i].element;
  }
  return nullptr;
}

size_t PathBinding::ReducedHash() const {
  size_t h = 0xcbf29ce484222325ULL;
  for (const ElementaryBinding& b : reduced) {
    h = HashCombine(h, static_cast<size_t>(b.var));
    h = HashCombine(h, ElementRefHash()(b.element));
  }
  for (int32_t t : tags) h = HashCombine(h, 0x1000 + static_cast<size_t>(t));
  return h;
}

std::string PathBinding::ToString(const PropertyGraph& g,
                                  const VarTable& vars) const {
  std::vector<std::string> parts;
  parts.reserve(reduced.size());
  for (const ElementaryBinding& b : reduced) {
    parts.push_back(vars.name(b.var) + "=" + std::string(g.name(b.element)));
  }
  return Join(parts, " ");
}

void ReduceBindings(const std::vector<WitnessLink>& raw, const VarTable& vars,
                    const std::vector<int32_t>& tags, PathBinding* out) {
  out->tags.assign(tags.begin(), tags.end());
  out->reduced.clear();
  out->reduced.reserve(raw.size());

  // Reconstruct the path: first node entry starts it; every edge entry is
  // followed by (a run of) node entries for the node it reaches.
  bool started = false;
  for (size_t i = 0; i < raw.size(); ++i) {
    const WitnessLink& l = raw[i];
    if (l.binding.element.is_node()) {
      if (!started) {
        out->path.Reset(l.binding.element.id);
        out->path.Reserve(static_cast<size_t>(std::count_if(
            raw.begin() + static_cast<long>(i), raw.end(),
            [](const WitnessLink& b) { return b.binding.element.is_edge(); })));
        started = true;
      }
    } else {
      // Edge entry: the next node entry provides the endpoint reached.
      NodeId next = kInvalidId;
      for (size_t j = i + 1; j < raw.size(); ++j) {
        if (raw[j].binding.element.is_node()) {
          next = raw[j].binding.element.id;
          break;
        }
      }
      out->path.Append(l.binding.element.id, l.traversal, next);
    }
  }
  if (!started) out->path = Path();

  // Reduction with adjacency cleanup (§6.3, §6.5): within each run of
  // consecutive node entries keep the named bindings; if the run is all
  // anonymous keep a single reduced anonymous binding. Edge entries are
  // kept, anonymous ones renamed to the shared anonymous edge variable.
  size_t i = 0;
  while (i < raw.size()) {
    const WitnessLink& l = raw[i];
    if (l.binding.element.is_edge()) {
      out->reduced.push_back(
          {vars.Reduced(l.binding.var), l.binding.element});
      ++i;
      continue;
    }
    size_t run_end = i;
    while (run_end < raw.size() &&
           raw[run_end].binding.element.is_node()) {
      ++run_end;
    }
    bool any_named = false;
    for (size_t j = i; j < run_end; ++j) {
      if (!vars.info(raw[j].binding.var).anonymous) {
        any_named = true;
        out->reduced.push_back(raw[j].binding);
      }
    }
    if (!any_named) {
      out->reduced.push_back(
          {vars.anon_node_id(), raw[i].binding.element});
    }
    i = run_end;
  }
}

}  // namespace gpml
