#ifndef GPML_PARSER_PARSER_H_
#define GPML_PARSER_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/result.h"

namespace gpml {

/// The deepest nesting any parse accepts. One level is one parenthesized
/// or called expression, NOT, unary minus, binary operator of a chain
/// (`a + b + c` nests two deep), label-expression parenthesis, `!`, `&` or
/// `|`, or parenthesized / bracketed (possibly quantified) path pattern.
/// Deeper input fails with kSyntaxError at the offending token's offset,
/// before any recursion can exhaust the stack — query text arrives from the
/// network — and every pass over the parsed tree (normalize, analyze,
/// compile, evaluation) is bounded by it too.
inline constexpr size_t kMaxParseNesting = 256;

/// The most instructions one compiled path declaration may hold. Bounded
/// quantifiers compile to one body copy per iteration, so `{k}` multiplies
/// its body (and nested `[[...]{k}]{k}` multiply again); CompilePattern
/// counts the expanded size from the pattern, with saturating arithmetic,
/// before it emits anything, and refuses a larger program with
/// kResourceExhausted naming the quantifier's offset.
inline constexpr uint64_t kMaxProgramInstructions = uint64_t{1} << 16;

/// Parses a complete GPML statement:
///   MATCH <path decls> [WHERE <postfilter>] [RETURN [DISTINCT] <items>]
/// RETURN is the GQL host's projection (Figure 9); SQL/PGQ callers use
/// ParseGraphPattern + ParseColumns instead.
Result<MatchStatement> ParseStatement(const std::string& text);

/// Parses "MATCH ... [WHERE ...]" without a RETURN clause.
Result<GraphPattern> ParseGraphPattern(const std::string& text);

/// Parses a stand-alone expression (tests, COLUMNS items).
Result<ExprPtr> ParseExpression(const std::string& text);

/// Parses a COLUMNS list: "expr [AS alias] (',' expr [AS alias])*" — the
/// projection list of SQL/PGQ's GRAPH_TABLE.
Result<std::vector<ReturnItem>> ParseColumns(const std::string& text);

}  // namespace gpml

#endif  // GPML_PARSER_PARSER_H_
