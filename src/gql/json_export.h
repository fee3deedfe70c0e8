#ifndef GPML_GQL_JSON_EXPORT_H_
#define GPML_GQL_JSON_EXPORT_H_

#include <string>

#include "common/json_text.h"
#include "eval/engine.h"
#include "graph/property_graph.h"

namespace gpml {

/// JSON export of match results — the §7.1 Language Opportunity
/// ("Exporting a graph element or path binding to JSON", also floated in
/// §6.6 for raw multi-path bindings). Also the row encoding of the network
/// wire protocol (src/server/, docs/server.md), which is why the escaping
/// is hardened (AppendJsonString, common/json_text.h): every exported
/// string is valid UTF-8 and every exported document parses under a strict
/// JSON parser.
///
/// Shape:
/// {
///   "rows": [
///     {
///       "a":    {"kind":"node","name":"a4","labels":["Account"],
///                "properties":{"owner":"Jay","isBlocked":"yes"}},
///       "b":    [ {...}, {...} ],          // group variable: array
///       "p":    {"kind":"path","length":2,
///                "elements":["a6","t5","a3","t2","a2"]},
///       "miss": null                       // unbound conditional variable
///     }, ...
///   ]
/// }
/// Anonymous variables are omitted. Deterministic key order (variable id).
/// An element's labels and properties come from the graph's interned store:
/// label names in string order, and the element's present property keys
/// (an explicit NULL included) in key-string order, each value read from
/// its column. Property values are written by AppendJsonValue
/// (common/json_text.h): doubles as "%.17g" plus ".0" when integral, NaN
/// and ±inf as null.
/// The encoders append to a caller-owned buffer (the server appends each
/// row straight into its response line); the string forms wrap them.

/// Appends one result row as a JSON object — exactly the element
/// ExportJson emits into its "rows" array. `output` supplies the row's
/// interpretation context (variable table, parameter bindings); its own
/// `rows` vector is ignored, so a streaming Cursor's context() works
/// directly. The server serves these objects verbatim over the wire, which
/// is what makes remote rows byte-identical to an in-process export.
void AppendRowJson(std::string* out, const MatchOutput& output,
                   const ResultRow& row, const PropertyGraph& g);

/// Appends one element as a JSON object.
void AppendElementJson(std::string* out, const PropertyGraph& g,
                       const ElementRef& ref);

std::string ExportJson(const MatchOutput& output, const PropertyGraph& g);

std::string RowToJson(const MatchOutput& output, const ResultRow& row,
                      const PropertyGraph& g);

std::string ElementToJson(const PropertyGraph& g, const ElementRef& ref);

}  // namespace gpml

#endif  // GPML_GQL_JSON_EXPORT_H_
