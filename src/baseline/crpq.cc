#include "baseline/crpq.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "baseline/rpq_nfa.h"

namespace gpml {
namespace baseline {

namespace {

/// A relation over a subset of variables: column names + node tuples.
struct Relation {
  std::vector<std::string> vars;
  std::vector<std::vector<NodeId>> tuples;
};

int FindVar(const Relation& r, const std::string& var) {
  for (size_t i = 0; i < r.vars.size(); ++i) {
    if (r.vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

/// Natural join on the shared variables.
Relation Join(const Relation& a, const Relation& b) {
  std::vector<std::pair<int, int>> shared;
  std::vector<int> b_new_cols;
  for (size_t j = 0; j < b.vars.size(); ++j) {
    int i = FindVar(a, b.vars[j]);
    if (i >= 0) {
      shared.push_back({i, static_cast<int>(j)});
    } else {
      b_new_cols.push_back(static_cast<int>(j));
    }
  }

  Relation out;
  out.vars = a.vars;
  for (int j : b_new_cols) out.vars.push_back(b.vars[static_cast<size_t>(j)]);

  // Hash b on shared columns.
  auto key_of = [&](const std::vector<NodeId>& tuple,
                    bool from_a) -> uint64_t {
    uint64_t h = 1469598103934665603ULL;
    for (auto& [ai, bj] : shared) {
      NodeId v = from_a ? tuple[static_cast<size_t>(ai)]
                        : tuple[static_cast<size_t>(bj)];
      h = (h ^ v) * 1099511628211ULL;
    }
    return h;
  };
  std::unordered_map<uint64_t, std::vector<size_t>> index;
  for (size_t t = 0; t < b.tuples.size(); ++t) {
    index[key_of(b.tuples[t], false)].push_back(t);
  }

  for (const auto& ta : a.tuples) {
    auto it = index.find(key_of(ta, true));
    if (it == index.end()) continue;
    for (size_t t : it->second) {
      const auto& tb = b.tuples[t];
      bool ok = true;
      for (auto& [ai, bj] : shared) {
        if (ta[static_cast<size_t>(ai)] != tb[static_cast<size_t>(bj)]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      std::vector<NodeId> merged = ta;
      for (int j : b_new_cols) merged.push_back(tb[static_cast<size_t>(j)]);
      out.tuples.push_back(std::move(merged));
    }
  }
  return out;
}

bool PassesFilters(const PropertyGraph& g, NodeId n,
                   const std::vector<const CrpqFilter*>& filters) {
  for (const CrpqFilter* f : filters) {
    ElementRef ref = ElementRef::Node(n);
    if (!f->label.empty() && !g.HasLabel(ref, f->label)) return false;
    if (!f->property.empty() &&
        !(g.GetPropertyFast(ref, f->property) == f->value)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Table> EvalCrpq(const PropertyGraph& g, const CrpqQuery& query) {
  // Group filters by variable.
  std::unordered_map<std::string, std::vector<const CrpqFilter*>> filters;
  for (const CrpqFilter& f : query.filters) {
    filters[f.var].push_back(&f);
  }
  auto var_ok = [&](const std::string& var, NodeId n) {
    auto it = filters.find(var);
    return it == filters.end() || PassesFilters(g, n, it->second);
  };

  Relation acc;
  bool first = true;
  for (const CrpqAtom& atom : query.atoms) {
    GPML_ASSIGN_OR_RETURN(RegexPtr regex, ParseRegex(atom.regex));
    RpqNfa nfa = BuildNfa(*regex);

    Relation rel;
    rel.vars = {atom.from_var, atom.to_var};
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (!var_ok(atom.from_var, n)) continue;
      for (NodeId m : EvalReachableFrom(g, nfa, n)) {
        if (!var_ok(atom.to_var, m)) continue;
        if (atom.from_var == atom.to_var && n != m) continue;
        rel.tuples.push_back({n, m});
      }
    }
    acc = first ? std::move(rel) : Join(acc, rel);
    first = false;
  }

  // Project output variables.
  std::vector<ColumnDef> cols;
  std::vector<int> indices;
  for (const std::string& v : query.output_vars) {
    cols.push_back({v, ValueType::kString, true});
    int i = FindVar(acc, v);
    if (i < 0) {
      return Status::SemanticError("output variable " + v +
                                   " not bound by any atom");
    }
    indices.push_back(i);
  }
  Table table{Schema(std::move(cols))};
  std::set<Row> dedup;
  for (const auto& tuple : acc.tuples) {
    Row row;
    row.reserve(indices.size());
    for (int i : indices) {
      row.push_back(Value::String(g.node(tuple[static_cast<size_t>(i)]).name));
    }
    if (dedup.insert(row).second) table.AppendUnchecked(std::move(row));
  }
  return table;
}

}  // namespace baseline
}  // namespace gpml
