#include "gql/result_table.h"

#include <set>

#include "eval/expr_eval.h"

namespace gpml {

namespace {

/// One projected output row of a RETURN/COLUMNS list over one result row.
Result<Row> ProjectOne(const MatchOutput& context, const ResultRow& row,
                       const PropertyGraph& g,
                       const std::vector<ReturnItem>& items) {
  RowScope scope(context, row);
  Row out_row;
  out_row.reserve(items.size());
  for (const ReturnItem& item : items) {
    GPML_ASSIGN_OR_RETURN(EvalValue v,
                          EvalExpr(*item.expr, g, *context.vars, scope));
    out_row.push_back(ToOutputValue(v, g));
  }
  return out_row;
}

Schema ItemsSchema(const std::vector<ReturnItem>& items) {
  std::vector<ColumnDef> columns;
  columns.reserve(items.size());
  for (const ReturnItem& item : items) {
    ColumnDef c;
    c.name = item.alias.empty() ? item.expr->ToString() : item.alias;
    c.type = ValueType::kNull;  // Dynamic.
    columns.push_back(std::move(c));
  }
  return Schema(std::move(columns));
}

}  // namespace

Result<Table> ProjectRows(const MatchOutput& output, const PropertyGraph& g,
                          const std::vector<ReturnItem>& items,
                          bool distinct) {
  Table table{ItemsSchema(items)};
  for (const ResultRow& row : output.rows) {
    GPML_ASSIGN_OR_RETURN(Row out_row, ProjectOne(output, row, g, items));
    table.AppendUnchecked(std::move(out_row));
  }
  if (distinct) table.DeduplicateRows();
  return table;
}

Result<Table> ProjectCursor(Cursor& cursor, const PropertyGraph& g,
                            const std::vector<ReturnItem>& items,
                            bool distinct, std::optional<uint64_t> limit) {
  Table table{ItemsSchema(items)};
  std::set<Row> seen;  // DISTINCT: streamed set-semantics dedup.
  RowView view;
  // DISTINCT must match ProjectRows exactly: set semantics with a final
  // sort (Table::DeduplicateRows), so the limit selects from the *sorted*
  // distinct rows and the stream drains fully. Without DISTINCT the
  // projection is row-for-row and stops as soon as `limit` rows arrived.
  while (distinct || !limit.has_value() || table.num_rows() < *limit) {
    GPML_ASSIGN_OR_RETURN(bool more, cursor.Next(&view));
    if (!more) break;
    GPML_ASSIGN_OR_RETURN(Row out_row,
                          ProjectOne(*view.context, *view.row, g, items));
    if (distinct && !seen.insert(out_row).second) continue;
    table.AppendUnchecked(std::move(out_row));
  }
  if (distinct) {
    table.DeduplicateRows();
    if (limit.has_value()) table.TruncateRows(*limit);
  }
  return table;
}

Result<Table> ProjectAllVariables(const MatchOutput& output,
                                  const PropertyGraph& g) {
  // Named variables in id order; skip anonymous ones.
  std::vector<int> ids;
  std::vector<ColumnDef> columns;
  for (int v = 0; v < output.vars->size(); ++v) {
    const VarInfo& info = output.vars->info(v);
    if (info.anonymous) continue;
    ids.push_back(v);
    columns.push_back({info.name, ValueType::kNull, true});
  }
  Table table{Schema(std::move(columns))};

  for (const ResultRow& row : output.rows) {
    RowScope scope(output, row);
    Row out_row;
    out_row.reserve(ids.size());
    for (int v : ids) {
      const VarInfo& info = output.vars->info(v);
      if (info.kind == VarInfo::Kind::kPath) {
        const Path* p = scope.LookupPath(v);
        out_row.push_back(p == nullptr ? Value::Null()
                                       : Value::String(p->ToString(g)));
        continue;
      }
      if (info.group) {
        // Group variable: comma-joined element names in binding order.
        std::vector<ElementRef> elems = scope.CollectGroup(v);
        std::string joined;
        for (size_t i = 0; i < elems.size(); ++i) {
          if (i > 0) joined += ",";
          joined += g.name(elems[i]);
        }
        out_row.push_back(Value::String(joined));
        continue;
      }
      std::optional<ElementRef> el = scope.LookupSingleton(v);
      out_row.push_back(el.has_value()
                            ? Value::String(std::string(g.name(*el)))
                            : Value::Null());
    }
    table.AppendUnchecked(std::move(out_row));
  }
  return table;
}

}  // namespace gpml
