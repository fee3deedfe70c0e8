#ifndef GPML_COMMON_VALUE_H_
#define GPML_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace gpml {

/// Three-valued logic truth value used by WHERE-clause evaluation (§4): any
/// comparison involving an absent property or NULL yields kUnknown, and a
/// filter keeps a binding only when the predicate is kTrue.
enum class TriBool { kFalse = 0, kTrue = 1, kUnknown = 2 };

TriBool TriNot(TriBool v);
TriBool TriAnd(TriBool a, TriBool b);
TriBool TriOr(TriBool a, TriBool b);
const char* TriBoolName(TriBool v);

/// Dynamic type tag of a Value.
enum class ValueType { kNull = 0, kBool, kInt, kDouble, kString };

const char* ValueTypeName(ValueType t);

class Value;

/// A borrowed property value, passed by value: a type tag and an 8-byte
/// payload (int64, double, bool, or a string's bytes and length). A graph
/// column read returns one (the string bytes live in the column's arena),
/// and a `Value` converts to one, so comparisons of a column slot with a
/// literal or parameter build no `Value` and copy no string. A view of a
/// `Value` is valid while the `Value` is.
class ValueView {
 public:
  ValueView() = default;  // NULL.
  ValueView(const Value& v);  // NOLINT: implicit, a Value reads as a view.

  static ValueView Bool(bool b) {
    ValueView v(ValueType::kBool);
    v.b_ = b;
    return v;
  }
  static ValueView Int(int64_t i) {
    ValueView v(ValueType::kInt);
    v.i_ = i;
    return v;
  }
  static ValueView Double(double d) {
    ValueView v(ValueType::kDouble);
    v.d_ = d;
    return v;
  }
  static ValueView String(std::string_view s) {
    ValueView v(ValueType::kString);
    v.s_ = s.data();
    v.size_ = static_cast<uint32_t>(s.size());
    return v;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_bool() const { return type_ == ValueType::kBool; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Typed accessors; calling the wrong one is a programming error.
  bool bool_value() const { return b_; }
  int64_t int_value() const { return i_; }
  double double_value() const { return d_; }
  std::string_view string_value() const { return {s_, size_}; }

  /// Numeric payload widened to double (requires is_numeric()).
  double AsDouble() const {
    return is_int() ? static_cast<double>(i_) : d_;
  }

  /// An owned copy.
  Value ToValue() const;

  /// The hash `Value::Hash` gives the same value: 1 and 1.0 agree.
  size_t Hash() const;

  /// `Value`'s structural equality (NULL == NULL, 1 == 1.0, no other
  /// cross-type equality) over views.
  friend bool operator==(ValueView a, ValueView b);
  friend bool operator!=(ValueView a, ValueView b) { return !(a == b); }

 private:
  explicit ValueView(ValueType t) : type_(t) {}

  ValueType type_ = ValueType::kNull;
  uint32_t size_ = 0;  // String length.
  union {
    bool b_;
    int64_t i_ = 0;
    double d_;
    const char* s_;
  };
};

std::ostream& operator<<(std::ostream& os, ValueView v);

/// A property value (the `Val` domain of Definition 2.1). Property graphs
/// attach these to nodes and edges; expression evaluation produces them.
///
/// Values are small, regular, hashable and totally ordered (by type tag,
/// then payload) so they can key hash maps during deduplication; SQL-style
/// comparisons with NULL propagation are provided separately (SqlEquals /
/// SqlCompare).
class Value {
 public:
  /// NULL value; also what property access returns for a missing property.
  Value() : repr_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Typed accessors; calling the wrong one is a programming error.
  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const {
    return std::get<std::string>(repr_);
  }

  /// Numeric payload widened to double (requires is_numeric()).
  double AsDouble() const;

  /// Renders the value for result tables: NULL, true/false, numbers, and
  /// strings without quotes.
  std::string ToString() const;

  /// Strict structural equality (used for container keys and binding
  /// deduplication): NULL == NULL here, and 1 == 1.0 (numeric cross-type
  /// compare), but no other cross-type equality.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  /// Total order: by type tag first (except int/double compare numerically),
  /// then payload. Used for sorting result rows deterministically.
  friend bool operator<(const Value& a, const Value& b);

  /// SQL-style equality: kUnknown if either side is NULL.
  static TriBool SqlEquals(ValueView a, ValueView b);
  /// SQL-style ordering comparison: an error if either side is NULL or the
  /// types are incomparable. `cmp` < 0 / == 0 / > 0 selects < / = / >.
  static Result<int> SqlCompare(ValueView a, ValueView b);

  /// Arithmetic with NULL propagation; type errors are reported.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Subtract(const Value& a, const Value& b);
  static Result<Value> Multiply(const Value& a, const Value& b);
  static Result<Value> Divide(const Value& a, const Value& b);

  size_t Hash() const { return ValueView(*this).Hash(); }

 private:
  using Repr =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr r) : repr_(std::move(r)) {}
  Repr repr_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

inline ValueView::ValueView(const Value& v) : type_(v.type()) {
  switch (type_) {
    case ValueType::kNull: break;
    case ValueType::kBool: b_ = v.bool_value(); break;
    case ValueType::kInt: i_ = v.int_value(); break;
    case ValueType::kDouble: d_ = v.double_value(); break;
    case ValueType::kString:
      s_ = v.string_value().data();
      size_ = static_cast<uint32_t>(v.string_value().size());
      break;
  }
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace gpml

#endif  // GPML_COMMON_VALUE_H_
