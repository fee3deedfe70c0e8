#include "planner/explain.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/strings.h"

namespace gpml {
namespace planner {

namespace {

std::string FormatEstimate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Wall-clock milliseconds: fixed-point so atof parses back exactly what
/// matters (sub-microsecond truncation is below timer resolution anyway).
std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string JoinVarNames(const std::vector<int>& vars_ids,
                         const VarTable& vars) {
  std::vector<std::string> names;
  names.reserve(vars_ids.size());
  // Escaping covers the comma, so the list stays unambiguous even for
  // adversarial variable names.
  for (int v : vars_ids) names.push_back(EscapeExplainValue(vars.name(v)));
  return Join(names, ",");
}

/// The value of a `key=` token in a step line; empty when absent.
std::string TokenValue(const std::string& line, const std::string& key) {
  size_t pos = line.find(" " + key);
  if (pos == std::string::npos) return "";
  pos += key.size() + 1;
  // `selector=` and `message=` extend to end of line (their values may
  // contain spaces; they are always the final token of their lines).
  if (key == "selector=" || key == "message=") return line.substr(pos);
  size_t end = line.find(' ', pos);
  if (end == std::string::npos) end = line.size();
  return line.substr(pos, end - pos);
}

}  // namespace

std::string EscapeExplainValue(const std::string& value, bool keep_spaces) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case ',': out += "\\c"; break;
      case ' ':
        if (keep_spaces) {
          out += ' ';
        } else {
          out += "\\s";
        }
        break;
      default: out += c; break;
    }
  }
  return out;
}

std::string UnescapeExplainValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\' || i + 1 == value.size()) {
      out += value[i];
      continue;
    }
    switch (value[++i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 'c': out += ','; break;
      case 's': out += ' '; break;
      default:
        out += '\\';
        out += value[i];
        break;
    }
  }
  return out;
}

std::string ExplainPlan(const Plan& plan, const VarTable& vars,
                        const GraphStats* stats, const ExplainExec* exec,
                        const std::vector<DeclActual>* actuals,
                        const analysis::DiagnosticList* warnings) {
  std::ostringstream os;
  os << "plan: " << plan.decls.size() << " declaration(s)\n";
  if (exec != nullptr) {
    os << "exec: threads=" << exec->threads
       << " cached=" << (exec->cached ? "true" : "false");
    if (exec->analyzed) {
      os << " rows=" << exec->rows
         << " truncated=" << (exec->truncated ? "true" : "false");
      // Measured wall-clock totals (monotonic): whole execution and the
      // compile cost it paid (0.000 when the plan came from the cache).
      if (exec->total_ms >= 0) os << " ms=" << FormatMs(exec->total_ms);
      if (exec->plan_ms >= 0) os << " plan_ms=" << FormatMs(exec->plan_ms);
    }
    os << "\n";
  }
  if (warnings != nullptr && !warnings->empty()) {
    os << "warnings: " << warnings->size() << "\n";
    size_t n = 0;
    for (const analysis::Diagnostic& d : *warnings) {
      // `message=` is the final token and extends to end of line, so its
      // escaping keeps spaces literal; `hint=` is space-delimited.
      os << "warning " << ++n << ": code=" << d.code
         << " severity=" << analysis::SeverityName(d.severity)
         << " begin=" << d.span.begin << " end=" << d.span.end
         << " hint=" << EscapeExplainValue(d.hint)
         << " message=" << EscapeExplainValue(d.message, /*keep_spaces=*/true)
         << "\n";
    }
  }
  for (size_t i = 0; i < plan.decls.size(); ++i) {
    const DeclPlan& dp = plan.decls[i];
    os << "step " << (i + 1) << ": decl=" << dp.decl_index
       << " dir=" << (dp.reversed ? "reversed" : "forward")
       << " anchor=" << (dp.reversed ? "right" : "left") << " var="
       << (dp.anchor_var >= 0 ? EscapeExplainValue(vars.name(dp.anchor_var))
                              : std::string("_"))
       // A bound step's seed count is the number of distinct join values,
       // known only at run time; printing the static estimate here would
       // read as if the restriction weren't applied.
       << " seeds~"
       << (dp.seed_bound_var >= 0 ? std::string("*")
                                  : FormatEstimate(dp.anchor.enumerated))
       << " source=";
    if (dp.seed_bound_var >= 0) {
      os << "bound:" << EscapeExplainValue(vars.name(dp.seed_bound_var));
    } else if (dp.anchor.has_index()) {
      // Index-backed seeding from the (label, prop) = value hash index.
      os << "index:" << EscapeExplainValue(dp.anchor.label) << "."
         << EscapeExplainValue(dp.anchor.index_prop);
    } else if (!dp.anchor.label.empty()) {
      os << "label:" << EscapeExplainValue(dp.anchor.label);
    } else {
      os << "all";
    }
    os << " fanout~" << FormatEstimate(dp.anchor.fanout)
       // Inline-predicate selectivity the seed estimate used — exact when
       // histogram estimates resolved it, else the System-R constants.
       << " sel~" << FormatEstimate(dp.anchor.selectivity) << " join=["
       << JoinVarNames(dp.join_vars, vars) << "]";
    if (dp.target_bound_var >= 0) {
      os << " target=bound:"
         << EscapeExplainValue(vars.name(dp.target_bound_var));
    }
    if (actuals != nullptr && i < actuals->size()) {
      // EXPLAIN ANALYZE: measured counterparts of the estimates above.
      const DeclActual& a = (*actuals)[i];
      os << " actual_seeds=" << a.seeds << " actual_steps=" << a.steps
         << " actual_rows=" << a.bindings;
      if (a.ms >= 0) os << " actual_ms=" << FormatMs(a.ms);
      os << " actual_source="
         << (a.index_seeded ? "index" : (a.seed_filtered ? "bound" : "scan"));
      if (a.target_filtered) os << " actual_targets=" << a.targets;
      if (!a.route.empty()) os << " actual_route=" << a.route;
      os << " actual_arena=" << a.arena_records;
    }
    std::string selector = dp.decl.selector.ToString();
    os << " selector="
       << (selector.empty()
               ? std::string("none")
               : EscapeExplainValue(selector, /*keep_spaces=*/true))
       << "\n";
  }
  if (stats != nullptr) {
    os << "-- graph stats --\n" << stats->ToString();
  }
  return os.str();
}

Result<ExplainedPlan> ParseExplain(const std::string& text) {
  ExplainedPlan out;
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  size_t declared = 0;
  size_t declared_warnings = 0;
  while (std::getline(is, line)) {
    if (line.rfind("plan: ", 0) == 0) {
      saw_header = true;
      declared = static_cast<size_t>(std::atoi(line.c_str() + 6));
      continue;
    }
    if (line.rfind("-- graph stats --", 0) == 0) break;
    if (line.rfind("warnings: ", 0) == 0) {
      declared_warnings = static_cast<size_t>(std::atoi(line.c_str() + 10));
      continue;
    }
    if (line.rfind("warning ", 0) == 0) {
      ExplainedWarning w;
      w.code = TokenValue(line, "code=");
      w.severity = TokenValue(line, "severity=");
      w.begin = static_cast<size_t>(
          std::atol(TokenValue(line, "begin=").c_str()));
      w.end = static_cast<size_t>(std::atol(TokenValue(line, "end=").c_str()));
      w.hint = UnescapeExplainValue(TokenValue(line, "hint="));
      w.message = UnescapeExplainValue(TokenValue(line, "message="));
      out.warnings.push_back(std::move(w));
      continue;
    }
    if (line.rfind("exec: ", 0) == 0) {
      out.has_exec = true;
      out.threads = static_cast<size_t>(
          std::atoi(TokenValue(line, "threads=").c_str()));
      out.cached = TokenValue(line, "cached=") == "true";
      std::string rows = TokenValue(line, "rows=");
      if (!rows.empty()) {
        out.analyzed = true;
        out.rows = static_cast<size_t>(std::atol(rows.c_str()));
        out.truncated = TokenValue(line, "truncated=") == "true";
        // " ms=" cannot collide with " plan_ms=" / " actual_ms=": TokenValue
        // requires a space before the key and those embed ms= after '_'.
        std::string ms = TokenValue(line, "ms=");
        if (!ms.empty()) out.total_ms = std::atof(ms.c_str());
        std::string plan_ms = TokenValue(line, "plan_ms=");
        if (!plan_ms.empty()) out.plan_ms = std::atof(plan_ms.c_str());
      }
      continue;
    }
    if (line.rfind("step ", 0) != 0) continue;
    ExplainedDecl d;
    d.step = std::atoi(line.c_str() + 5);
    std::string decl = TokenValue(line, "decl=");
    if (decl.empty()) {
      return Status::InvalidArgument("EXPLAIN step line missing decl=: " +
                                     line);
    }
    d.decl_index = std::atoi(decl.c_str());
    d.reversed = TokenValue(line, "dir=") == "reversed";
    d.anchor = TokenValue(line, "anchor=");
    d.var = UnescapeExplainValue(TokenValue(line, "var="));
    std::string seeds = TokenValue(line, "seeds~");
    d.seeds = seeds == "*" ? -1 : std::atof(seeds.c_str());
    std::string sel = TokenValue(line, "sel~");
    if (!sel.empty()) d.selectivity = std::atof(sel.c_str());
    // The source prefix ("all" / "label:" / "bound:") never contains escape
    // characters, so unescaping the whole token restores exactly the value
    // part.
    d.source = UnescapeExplainValue(TokenValue(line, "source="));
    std::string join = TokenValue(line, "join=");
    if (join.size() >= 2 && join.front() == '[' && join.back() == ']') {
      std::string inner = join.substr(1, join.size() - 2);
      if (!inner.empty()) {
        // Commas inside names are escaped (\c), so this split is exact.
        for (const std::string& name : Split(inner, ',')) {
          d.join_vars.push_back(UnescapeExplainValue(name));
        }
      }
    }
    d.target = UnescapeExplainValue(TokenValue(line, "target="));
    d.selector = UnescapeExplainValue(TokenValue(line, "selector="));
    std::string actual = TokenValue(line, "actual_seeds=");
    if (!actual.empty()) {
      d.actual_seeds = std::atol(actual.c_str());
      d.actual_steps = std::atol(TokenValue(line, "actual_steps=").c_str());
      d.actual_rows = std::atol(TokenValue(line, "actual_rows=").c_str());
      std::string actual_ms = TokenValue(line, "actual_ms=");
      if (!actual_ms.empty()) d.actual_ms = std::atof(actual_ms.c_str());
      d.actual_source = TokenValue(line, "actual_source=");
      std::string targets = TokenValue(line, "actual_targets=");
      if (!targets.empty()) d.actual_targets = std::atol(targets.c_str());
      d.actual_route = TokenValue(line, "actual_route=");
      std::string arena = TokenValue(line, "actual_arena=");
      if (!arena.empty()) d.actual_arena = std::atol(arena.c_str());
    }
    out.decls.push_back(std::move(d));
  }
  if (!saw_header) {
    return Status::InvalidArgument("EXPLAIN text has no plan: header");
  }
  if (out.decls.size() != declared) {
    return Status::InvalidArgument("EXPLAIN header declares " +
                                   std::to_string(declared) +
                                   " declaration(s) but " +
                                   std::to_string(out.decls.size()) +
                                   " step line(s) found");
  }
  if (out.warnings.size() != declared_warnings) {
    return Status::InvalidArgument(
        "EXPLAIN warnings header declares " +
        std::to_string(declared_warnings) + " warning(s) but " +
        std::to_string(out.warnings.size()) + " warning line(s) found");
  }
  return out;
}

Table ExplainTable(const std::string& text) {
  Table table(Schema({{"plan", ValueType::kString, false}}));
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    table.AppendUnchecked({Value::String(line)});
  }
  return table;
}

namespace {

/// Shared prefix-stripping for statement keywords: after leading
/// whitespace, `keyword` (case-insensitive) followed by whitespace or end.
bool StripKeywordPrefix(const std::string& statement, const char* keyword,
                        std::string* rest) {
  size_t i = 0;
  while (i < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[i]))) {
    ++i;
  }
  size_t len = std::strlen(keyword);
  size_t k = 0;
  while (k < len && i + k < statement.size() &&
         std::toupper(static_cast<unsigned char>(statement[i + k])) ==
             keyword[k]) {
    ++k;
  }
  if (k != len) return false;
  size_t after = i + len;
  if (after < statement.size() &&
      !std::isspace(static_cast<unsigned char>(statement[after]))) {
    return false;  // Identifier merely starting with the keyword.
  }
  *rest = statement.substr(after);
  return true;
}

}  // namespace

bool StripExplainPrefix(const std::string& statement, std::string* rest) {
  return StripKeywordPrefix(statement, "EXPLAIN", rest);
}

bool StripAnalyzePrefix(const std::string& statement, std::string* rest) {
  return StripKeywordPrefix(statement, "ANALYZE", rest);
}

}  // namespace planner
}  // namespace gpml
