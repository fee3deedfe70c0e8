#ifndef GPML_COMMON_JSON_TEXT_H_
#define GPML_COMMON_JSON_TEXT_H_

#include <charconv>
#include <string>
#include <string_view>

#include "common/value.h"

namespace gpml {

/// JSON text primitives shared by every writer (row export, wire protocol,
/// trace lines), each appending to a caller-owned buffer.
///
/// AppendJsonString writes `s` quoted and hardened for wire use: \" \\ \b \f
/// \n \r \t where JSON has them, \u00XX for other control characters, and
/// every byte that is not part of well-formed UTF-8 replaced with U+FFFD
/// (as SanitizeUtf8 does), so the output is valid UTF-8 and always parses
/// back (json_export_test round-trips every 1- and 2-byte input). Valid
/// UTF-8 above 0x7F is copied verbatim, never \u-escaped.
void AppendJsonString(std::string* out, std::string_view s);

template <typename Int>
void AppendJsonInt(std::string* out, Int value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends "%.17g", which parses back to the same double, plus ".0" when
/// that text is integral, so a parser that types bare integers as ints
/// still reads a double (3.0, not 3). NaN and ±inf have no JSON spelling
/// and append null.
void AppendJsonDouble(std::string* out, double value);

/// Appends a scalar Value with the appenders above (null, true/false).
void AppendJsonValue(std::string* out, ValueView value);

/// AppendJsonString's output without the quotes.
std::string JsonEscape(const std::string& s);

/// Length of the well-formed UTF-8 sequence (RFC 3629: no overlongs, no
/// surrogates, nothing above U+10FFFF) starting at `p`, or 0 when the
/// bytes do not start one. `remaining` (>= 1) bounds the lookahead.
size_t Utf8SequenceLength(const unsigned char* p, size_t remaining);

bool IsValidUtf8(const std::string& s);

/// `s` with each byte that is not part of well-formed UTF-8 replaced by
/// U+FFFD. Identity on valid UTF-8; idempotent.
std::string SanitizeUtf8(const std::string& s);

}  // namespace gpml

#endif  // GPML_COMMON_JSON_TEXT_H_
