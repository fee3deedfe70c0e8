#include "common/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace gpml {

TriBool TriNot(TriBool v) {
  switch (v) {
    case TriBool::kFalse: return TriBool::kTrue;
    case TriBool::kTrue: return TriBool::kFalse;
    case TriBool::kUnknown: return TriBool::kUnknown;
  }
  return TriBool::kUnknown;
}

TriBool TriAnd(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kTrue && b == TriBool::kTrue) return TriBool::kTrue;
  return TriBool::kUnknown;
}

TriBool TriOr(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kFalse && b == TriBool::kFalse) return TriBool::kFalse;
  return TriBool::kUnknown;
}

const char* TriBoolName(TriBool v) {
  switch (v) {
    case TriBool::kFalse: return "false";
    case TriBool::kTrue: return "true";
    case TriBool::kUnknown: return "unknown";
  }
  return "unknown";
}

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return "BOOL";
    case ValueType::kInt: return "INT";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
  }
  return "?";
}

double Value::AsDouble() const {
  return is_int() ? static_cast<double>(int_value()) : double_value();
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return bool_value() ? "true" : "false";
    case ValueType::kInt: return std::to_string(int_value());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << double_value();
      return os.str();
    }
    case ValueType::kString: return string_value();
  }
  return "?";
}

bool operator==(const Value& a, const Value& b) {
  return ValueView(a) == ValueView(b);
}

bool operator<(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.int_value() < b.int_value();
    return a.AsDouble() < b.AsDouble();
  }
  return a.repr_ < b.repr_;
}

TriBool Value::SqlEquals(ValueView a, ValueView b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  return a == b ? TriBool::kTrue : TriBool::kFalse;
}

Result<int> Value::SqlCompare(ValueView a, ValueView b) {
  if (a.is_null() || b.is_null()) {
    return Status::InvalidArgument("cannot order NULL values");
  }
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type() != b.type()) {
    return Status::SemanticError(
        std::string("cannot compare ") + ValueTypeName(a.type()) + " with " +
        ValueTypeName(b.type()));
  }
  switch (a.type()) {
    case ValueType::kBool:
      return static_cast<int>(a.bool_value()) -
             static_cast<int>(b.bool_value());
    case ValueType::kString:
      return a.string_value().compare(b.string_value());
    default:
      return Status::SemanticError("type not ordered");
  }
}

namespace {

Result<Value> NumericBinary(const Value& a, const Value& b, char op) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::SemanticError(
        std::string("arithmetic requires numeric operands, got ") +
        ValueTypeName(a.type()) + " and " + ValueTypeName(b.type()));
  }
  if (a.is_int() && b.is_int() && op != '/') {
    int64_t x = a.int_value();
    int64_t y = b.int_value();
    switch (op) {
      case '+': return Value::Int(x + y);
      case '-': return Value::Int(x - y);
      case '*': return Value::Int(x * y);
    }
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  switch (op) {
    case '+': return Value::Double(x + y);
    case '-': return Value::Double(x - y);
    case '*': return Value::Double(x * y);
    case '/':
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(x / y);
  }
  return Status::Internal("bad arithmetic op");
}

}  // namespace

Result<Value> Value::Add(const Value& a, const Value& b) {
  // String concatenation is permitted for '+' as a convenience (LISTAGG-style
  // aggregation in the PGQ host builds on it).
  if (a.is_string() && b.is_string()) {
    return Value::String(a.string_value() + b.string_value());
  }
  return NumericBinary(a, b, '+');
}
Result<Value> Value::Subtract(const Value& a, const Value& b) {
  return NumericBinary(a, b, '-');
}
Result<Value> Value::Multiply(const Value& a, const Value& b) {
  return NumericBinary(a, b, '*');
}
Result<Value> Value::Divide(const Value& a, const Value& b) {
  return NumericBinary(a, b, '/');
}

bool operator==(ValueView a, ValueView b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.int_value() == b.int_value();
    return a.AsDouble() == b.AsDouble();
  }
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kBool: return a.bool_value() == b.bool_value();
    case ValueType::kString: return a.string_value() == b.string_value();
    default: return true;  // NULL == NULL.
  }
}

Value ValueView::ToValue() const {
  switch (type_) {
    case ValueType::kNull: return Value::Null();
    case ValueType::kBool: return Value::Bool(b_);
    case ValueType::kInt: return Value::Int(i_);
    case ValueType::kDouble: return Value::Double(d_);
    case ValueType::kString: return Value::String(std::string(s_, size_));
  }
  return Value::Null();
}

size_t ValueView::Hash() const {
  // Numeric values hash through double with a shared seed so that 1 and 1.0
  // (which compare equal) hash identically.
  constexpr size_t kNumericSeed = 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case ValueType::kNull: return 0x2545f4914f6cdd1dULL;
    case ValueType::kBool: return b_ ? 0x6a09e667 : 0xbb67ae85;
    case ValueType::kInt:
      return kNumericSeed ^ std::hash<double>()(static_cast<double>(i_));
    case ValueType::kDouble:
      return kNumericSeed ^ std::hash<double>()(d_);
    case ValueType::kString:
      return 0x517cc1b727220a95ULL ^
             std::hash<std::string_view>()(string_value());
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, ValueView v) {
  return os << v.ToValue();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace gpml
