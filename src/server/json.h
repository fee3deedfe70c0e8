#ifndef GPML_SERVER_JSON_H_
#define GPML_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace gpml {
namespace server {

/// A parsed JSON document node — the request/response model of the wire
/// protocol (docs/server.md). Deliberately a plain tagged struct rather
/// than a clever variant: protocol handlers read a handful of fields per
/// request, and tests want to poke at the tree directly.
///
/// Every node remembers the half-open byte range [begin, end) it was
/// parsed from, so callers can recover the exact original bytes of a
/// subtree (`raw span`). The client library uses this to hand back result
/// rows byte-for-byte as the server serialized them — re-serialization
/// could legally reorder or reformat, which would break the
/// byte-identity contract the server bench enforces.
struct JsonValue {
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  int64_t int_v = 0;        // Valid when type == kInt.
  double double_v = 0;      // Valid when type == kDouble.
  std::string string_v;     // Valid when type == kString (decoded, UTF-8).
  std::vector<JsonValue> array_v;
  /// Members in document order (duplicate keys are kept; Find returns the
  /// first, matching common parser behavior).
  std::vector<std::pair<std::string, JsonValue>> object_v;

  size_t begin = 0;  // Byte offset of the node's first character.
  size_t end = 0;    // One past the node's last character.

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_int() const { return type == Type::kInt; }
  bool is_double() const { return type == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Numeric payload widened to double (requires is_number()).
  double AsDouble() const {
    return is_int() ? static_cast<double>(int_v) : double_v;
  }

  /// First member named `key`, or nullptr (requires nothing: non-objects
  /// simply have no members).
  const JsonValue* Find(const std::string& key) const;

  /// The node's original bytes inside the document it was parsed from.
  std::string RawSpan(const std::string& document) const {
    return document.substr(begin, end - begin);
  }

  /// Canonical re-serialization (object member order preserved, strings
  /// escaped and doubles written by common/json_text.h, ".0" when
  /// integral). Used by tests for round-trips; NOT guaranteed to
  /// reproduce input bytes — RawSpan does that.
  std::string Serialize() const;
};

/// Parses one JSON document. Strict where the wire protocol needs it:
///  * the whole input must be consumed (trailing non-whitespace is an
///    error), so one request line is exactly one document;
///  * \uXXXX escapes decode to UTF-8, surrogate pairs combine, and a lone
///    surrogate is an error (never emitted by the hardened JsonEscape);
///  * raw control characters inside strings are an error (JSON requires
///    escapes), and raw bytes must be valid UTF-8;
///  * numbers without '.', 'e' or 'E' that fit int64 parse as kInt, all
///    others as kDouble — mirroring the Value encoding in protocol.h, so
///    Int/Double survive a round trip;
///  * nesting is capped (kMaxDepth) so hostile input cannot overflow the
///    stack.
/// Errors are kInvalidArgument with a byte offset in the message.
Result<JsonValue> ParseJson(const std::string& text);

/// Maximum nesting depth ParseJson accepts.
inline constexpr int kJsonMaxDepth = 64;

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_JSON_H_
