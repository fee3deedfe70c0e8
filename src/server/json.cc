#include "server/json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/json_text.h"

namespace gpml {
namespace server {

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : object_v) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void AppendSerialized(std::string* out, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: out->append("null"); return;
    case JsonValue::Type::kBool:
      out->append(v.bool_v ? "true" : "false");
      return;
    case JsonValue::Type::kInt: AppendJsonInt(out, v.int_v); return;
    case JsonValue::Type::kDouble: AppendJsonDouble(out, v.double_v); return;
    case JsonValue::Type::kString: AppendJsonString(out, v.string_v); return;
    case JsonValue::Type::kArray:
      out->push_back('[');
      for (size_t i = 0; i < v.array_v.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendSerialized(out, v.array_v[i]);
      }
      out->push_back(']');
      return;
    case JsonValue::Type::kObject:
      out->push_back('{');
      for (size_t i = 0; i < v.object_v.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonString(out, v.object_v[i].first);
        out->push_back(':');
        AppendSerialized(out, v.object_v[i].second);
      }
      out->push_back('}');
      return;
  }
}

}  // namespace

std::string JsonValue::Serialize() const {
  std::string out;
  AppendSerialized(&out, *this);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    GPML_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + msg);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth >= kJsonMaxDepth) {
      return Error("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    out->begin = pos_;
    char c = text_[pos_];
    Status st;
    switch (c) {
      case '{': st = ParseObject(out, depth); break;
      case '[': st = ParseArray(out, depth); break;
      case '"':
        out->type = JsonValue::Type::kString;
        st = ParseString(&out->string_v);
        break;
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        out->type = JsonValue::Type::kBool;
        out->bool_v = true;
        break;
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        out->type = JsonValue::Type::kBool;
        out->bool_v = false;
        break;
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        out->type = JsonValue::Type::kNull;
        break;
      default:
        st = ParseNumber(out);
    }
    if (!st.ok()) return st;
    out->end = pos_;
    return Status::OK();
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      GPML_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      JsonValue member;
      GPML_RETURN_IF_ERROR(ParseValue(&member, depth + 1));
      out->object_v.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      JsonValue element;
      GPML_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->array_v.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  /// Parses the 4 hex digits after a \u escape.
  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    size_t run_start = pos_;
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        out->append(text_, run_start, pos_ - run_start);
        ++pos_;
        break;
      }
      if (c == '\\') {
        out->append(text_, run_start, pos_ - run_start);
        ++pos_;
        if (pos_ >= text_.size()) return Error("truncated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            GPML_RETURN_IF_ERROR(ParseHex4(&cp));
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: require the low half.
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate");
              }
              pos_ += 2;
              uint32_t lo = 0;
              GPML_RETURN_IF_ERROR(ParseHex4(&lo));
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired low surrogate");
            }
            AppendUtf8(out, cp);
            break;
          }
          default:
            return Error("invalid escape character");
        }
        run_start = pos_;
        continue;
      }
      if (c < 0x20) {
        return Error("raw control character in string");
      }
      if (c < 0x80) {
        ++pos_;
        continue;
      }
      // Multi-byte UTF-8: validate with the shared decoder (json_text.h).
      size_t len = Utf8SequenceLength(
          reinterpret_cast<const unsigned char*>(text_.data()) + pos_,
          text_.size() - pos_);
      if (len == 0) return Error("invalid UTF-8 sequence in string");
      pos_ += len;
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t int_start = pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    size_t int_digits = pos_ - int_start;
    if (int_digits == 0) return Error("invalid number");
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. an error here).
    if (int_digits > 1 && text_[int_start] == '0') {
      return Error("leading zero in number");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      size_t frac_start = pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac_start) return Error("digit required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp_start = pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp_start) return Error("digit required in exponent");
    }
    std::string token = text_.substr(start, pos_ - start);
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out->type = JsonValue::Type::kInt;
        out->int_v = static_cast<int64_t>(v);
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    out->type = JsonValue::Type::kDouble;
    out->double_v = d;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace server
}  // namespace gpml
