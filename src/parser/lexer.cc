#include "parser/lexer.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace gpml {

const char* TokenKindName(TokenKind k) {
  switch (k) {
    case TokenKind::kEnd: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kInt: return "integer";
    case TokenKind::kDouble: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kParam: return "parameter";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kComma: return ",";
    case TokenKind::kDot: return ".";
    case TokenKind::kColon: return ":";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kPipe: return "|";
    case TokenKind::kPipePlusPipe: return "|+|";
    case TokenKind::kAmp: return "&";
    case TokenKind::kBang: return "!";
    case TokenKind::kPercent: return "%";
    case TokenKind::kPlus: return "+";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kQuestion: return "?";
    case TokenKind::kEq: return "=";
    case TokenKind::kNeq: return "<>";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kMinus: return "-";
    case TokenKind::kArrowRight: return "->";
    case TokenKind::kArrowLeft: return "<-";
    case TokenKind::kLeftTilde: return "<~";
    case TokenKind::kTildeRight: return "~>";
    case TokenKind::kLeftRight: return "<->";
    case TokenKind::kTilde: return "~";
  }
  return "?";
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();

  auto push = [&](TokenKind kind, size_t offset, size_t len) {
    Token t;
    t.kind = kind;
    t.offset = offset;
    t.length = len;
    t.text = input.substr(offset, len);
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;

    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(input[i])) ++i;
      push(TokenKind::kIdent, start, i - start);
      continue;
    }

    // $name parameter placeholder (prepared queries); the token text is the
    // bare name so the parser and signature collection never see the '$'.
    if (c == '$') {
      ++i;
      if (i >= n || !IsIdentStart(input[i])) {
        return Status::SyntaxError("expected parameter name after '$' (offset=" +
                                   std::to_string(start) + ")");
      }
      size_t name_start = i;
      while (i < n && IsIdentChar(input[i])) ++i;
      Token t;
      t.kind = TokenKind::kParam;
      t.offset = start;
      t.length = i - start;
      t.text = input.substr(name_start, i - name_start);
      tokens.push_back(std::move(t));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      bool is_double = false;
      // A fractional part requires a digit after the dot, so "1." stays an
      // integer followed by a dot (e.g. in quantifiers "{1,2}" no dot occurs,
      // but property paths never follow numbers anyway).
      if (i + 1 < n && input[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      int64_t multiplier = 1;
      // Paper-style magnitude suffixes: 5M = 5,000,000; 10K = 10,000. Only
      // when the suffix is not the start of a longer identifier.
      if (i < n && (input[i] == 'M' || input[i] == 'K') &&
          (i + 1 >= n || !IsIdentChar(input[i + 1]))) {
        multiplier = input[i] == 'M' ? 1'000'000 : 1'000;
        ++i;
      }
      Token t;
      t.offset = start;
      t.length = i - start;
      t.text = input.substr(start, i - start);
      // Checked conversions: a literal the value types cannot hold is a
      // syntax error, never an exception or a wrapped product.
      const size_t digits_end = multiplier != 1 ? i - 1 : i;
      bool in_range = true;
      if (is_double) {
        t.kind = TokenKind::kDouble;
        const std::string digits = input.substr(start, digits_end - start);
        errno = 0;
        double value = std::strtod(digits.c_str(), nullptr);
        in_range = errno != ERANGE;
        t.double_value = value * static_cast<double>(multiplier);
        in_range = in_range && std::isfinite(t.double_value);
      } else {
        t.kind = TokenKind::kInt;
        int64_t value = 0;
        std::from_chars_result r = std::from_chars(
            input.data() + start, input.data() + digits_end, value);
        in_range = r.ec == std::errc() &&
                   !__builtin_mul_overflow(value, multiplier, &t.int_value);
      }
      if (!in_range) {
        return Status::SyntaxError("numeric literal out of range (offset=" +
                                   std::to_string(start) + ")");
      }
      tokens.push_back(std::move(t));
      continue;
    }

    if (c == '\'') {
      std::string value;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // '' escapes a quote
            value.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        value.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::SyntaxError("unterminated string literal (offset=" +
                                   std::to_string(start) + ")");
      }
      Token t;
      t.kind = TokenKind::kString;
      t.offset = start;
      t.length = i - start;
      t.string_value = std::move(value);
      tokens.push_back(std::move(t));
      continue;
    }

    // Operators, maximal munch.
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && input[i + 1] == b;
    };
    if (c == '|' && i + 2 < n && input[i + 1] == '+' && input[i + 2] == '|') {
      push(TokenKind::kPipePlusPipe, start, 3);
      i += 3;
      continue;
    }
    if (c == '<' && i + 2 < n && input[i + 1] == '-' && input[i + 2] == '>') {
      push(TokenKind::kLeftRight, start, 3);
      i += 3;
      continue;
    }
    if (two('<', '-')) { push(TokenKind::kArrowLeft, start, 2); i += 2; continue; }
    if (two('<', '~')) { push(TokenKind::kLeftTilde, start, 2); i += 2; continue; }
    if (two('<', '=')) { push(TokenKind::kLe, start, 2); i += 2; continue; }
    if (two('<', '>')) { push(TokenKind::kNeq, start, 2); i += 2; continue; }
    if (two('>', '=')) { push(TokenKind::kGe, start, 2); i += 2; continue; }
    if (two('-', '>')) { push(TokenKind::kArrowRight, start, 2); i += 2; continue; }
    if (two('~', '>')) { push(TokenKind::kTildeRight, start, 2); i += 2; continue; }

    TokenKind kind;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case ',': kind = TokenKind::kComma; break;
      case '.': kind = TokenKind::kDot; break;
      case ':': kind = TokenKind::kColon; break;
      case ';': kind = TokenKind::kSemicolon; break;
      case '|': kind = TokenKind::kPipe; break;
      case '&': kind = TokenKind::kAmp; break;
      case '!': kind = TokenKind::kBang; break;
      case '%': kind = TokenKind::kPercent; break;
      case '+': kind = TokenKind::kPlus; break;
      case '*': kind = TokenKind::kStar; break;
      case '/': kind = TokenKind::kSlash; break;
      case '?': kind = TokenKind::kQuestion; break;
      case '=': kind = TokenKind::kEq; break;
      case '<': kind = TokenKind::kLt; break;
      case '>': kind = TokenKind::kGt; break;
      case '-': kind = TokenKind::kMinus; break;
      case '~': kind = TokenKind::kTilde; break;
      default:
        return Status::SyntaxError(std::string("unexpected character '") + c +
                                   "' (offset=" + std::to_string(start) + ")");
    }
    push(kind, start, 1);
    ++i;
  }

  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace gpml
