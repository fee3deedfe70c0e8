#include "common/json_text.h"

#include <algorithm>
#include <cmath>

namespace gpml {

size_t Utf8SequenceLength(const unsigned char* p, size_t remaining) {
  const unsigned char b0 = p[0];
  if (b0 < 0x80) return 1;
  auto cont = [&](size_t i) { return (p[i] & 0xC0u) == 0x80u; };
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    return (remaining >= 2 && cont(1)) ? 2 : 0;
  }
  if (b0 >= 0xE0 && b0 <= 0xEF) {
    if (remaining < 3 || !cont(1) || !cont(2)) return 0;
    const unsigned char b1 = p[1];
    if (b0 == 0xE0 && b1 < 0xA0) return 0;  // Overlong.
    if (b0 == 0xED && b1 > 0x9F) return 0;  // Surrogate U+D800..U+DFFF.
    return 3;
  }
  if (b0 >= 0xF0 && b0 <= 0xF4) {
    if (remaining < 4 || !cont(1) || !cont(2) || !cont(3)) return 0;
    const unsigned char b1 = p[1];
    if (b0 == 0xF0 && b1 < 0x90) return 0;  // Overlong.
    if (b0 == 0xF4 && b1 > 0x8F) return 0;  // Above U+10FFFF.
    return 4;
  }
  return 0;  // 0x80..0xC1 (continuation/overlong lead), 0xF5..0xFF.
}

bool IsValidUtf8(const std::string& s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  for (size_t i = 0, len = 0; i < s.size(); i += len) {
    len = Utf8SequenceLength(p + i, s.size() - i);
    if (len == 0) return false;
  }
  return true;
}

namespace {

/// Appends the well-formed UTF-8 sequence starting at s[i], or U+FFFD when
/// none starts there; returns the bytes consumed.
size_t AppendUtf8OrReplacement(std::string* out, std::string_view s,
                               size_t i) {
  const size_t len = Utf8SequenceLength(
      reinterpret_cast<const unsigned char*>(s.data()) + i, s.size() - i);
  if (len == 0) {
    out->append("\xEF\xBF\xBD");
    return 1;
  }
  out->append(s.data() + i, len);
  return len;
}

}  // namespace

std::string SanitizeUtf8(const std::string& s) {
  if (IsValidUtf8(s)) return s;
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) i += AppendUtf8OrReplacement(&out, s, i);
  return out;
}

void AppendJsonString(std::string* out, std::string_view s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  const size_t n = s.size();
  out->push_back('"');
  size_t i = 0;
  while (i < n) {
    // Copy the run of printable ASCII that needs no escape in one append.
    size_t run = i;
    while (run < n && p[run] >= 0x20 && p[run] < 0x80 && p[run] != '"' &&
           p[run] != '\\') {
      ++run;
    }
    out->append(s.data() + i, run - i);
    if (run == n) break;
    i = run;
    const unsigned char c = p[i];
    if (c >= 0x80) {
      i += AppendUtf8OrReplacement(out, s, i);
      continue;
    }
    ++i;
    // \b \t \n \f \r are the bytes 8, 9, 10, 12 and 13; 11 has no short form.
    const char short_form = (c == '"' || c == '\\') ? static_cast<char>(c)
                            : (c >= '\b' && c <= '\r') ? "btn\0fr"[c - '\b']
                                                      : '\0';
    if (short_form != '\0') {
      const char escape[] = {'\\', short_form};
      out->append(escape, sizeof(escape));
    } else {
      const char escape[] = {'\\', 'u', '0', '0', "0123456789abcdef"[c >> 4],
                             "0123456789abcdef"[c & 0xF]};
      out->append(escape, sizeof(escape));
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17)
                  .ptr;
  out->append(buf, end);
  if (std::none_of(buf, end, [](char c) { return c == '.' || c == 'e'; })) {
    out->append(".0");
  }
}

void AppendJsonValue(std::string* out, ValueView v) {
  switch (v.type()) {
    case ValueType::kNull: break;
    case ValueType::kBool: out->append(v.bool_value() ? "true" : "false"); return;
    case ValueType::kInt: AppendJsonInt(out, v.int_value()); return;
    case ValueType::kDouble: AppendJsonDouble(out, v.double_value()); return;
    case ValueType::kString: AppendJsonString(out, v.string_value()); return;
  }
  out->append("null");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  out.pop_back();
  out.erase(0, 1);
  return out;
}

}  // namespace gpml
