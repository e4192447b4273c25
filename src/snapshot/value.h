#ifndef TTRA_SNAPSHOT_VALUE_H_
#define TTRA_SNAPSHOT_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "util/result.h"

namespace ttra {

/// The attribute domains D_1 ... D_m of the paper's semantic model. The
/// paper leaves them abstract; we provide the domains a practical engine
/// needs, including *user-defined time*, which the paper notes is "simply
/// another domain ... provided by the DBMS" supporting input, output, and
/// comparison.
enum class ValueType : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
  kBool = 3,
  kUserTime = 4,
};

/// Stable lowercase name: "int", "double", "string", "bool", "usertime".
std::string_view ValueTypeName(ValueType type);

/// Parses a type name produced by ValueTypeName.
Result<ValueType> ParseValueType(std::string_view name);

/// User-defined time: an uninterpreted totally-ordered tick count. The
/// DBMS supports input, output, and comparison only (paper §1).
struct UserTime {
  int64_t ticks = 0;

  friend bool operator==(const UserTime&, const UserTime&) = default;
  friend auto operator<=>(const UserTime&, const UserTime&) = default;
};

/// A single attribute value. Values are immutable once constructed and
/// totally ordered within a type; cross-type comparison is a type error
/// surfaced by the predicate evaluator, while the internal canonical order
/// (used only to sort states) falls back to ordering by type tag.
class Value {
 public:
  /// Defaults to the integer 0.
  Value() : value_(int64_t{0}) {}

  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Time(int64_t ticks) { return Value(Rep(UserTime{ticks})); }

  ValueType type() const { return static_cast<ValueType>(value_.index()); }

  // Accessors; precondition: the value holds the requested type.
  int64_t AsInt() const { return std::get<int64_t>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  bool AsBool() const { return std::get<bool>(value_); }
  UserTime AsTime() const { return std::get<UserTime>(value_); }

  /// Renders the value as a language literal: 42, 3.5, "text", true,
  /// @1234 (user time).
  std::string ToString() const;

  size_t Hash() const;

  /// Canonical total order across all values: first by type tag, then by
  /// the natural order within the type. Used to keep states sorted.
  friend bool operator==(const Value& a, const Value& b) {
    return a.value_ == b.value_;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return CanonicalOrder(a, b) < 0;
  }

  /// The canonical order as one three-way test: negative, zero or positive
  /// exactly when a < b, neither, or b < a (so NaN ties with NaN, as under
  /// operator<). Tuple order uses it to test each value once.
  static int CanonicalOrder(const Value& a, const Value& b) {
    if (a.value_.index() != b.value_.index()) {
      return a.value_.index() < b.value_.index() ? -1 : 1;
    }
    auto sign = [](const auto& x, const auto& y) {
      return x < y ? -1 : (y < x ? 1 : 0);
    };
    switch (a.type()) {
      case ValueType::kInt:
        return sign(a.AsInt(), b.AsInt());
      case ValueType::kDouble:
        return sign(a.AsDouble(), b.AsDouble());
      case ValueType::kString:
        return a.AsString().compare(b.AsString());
      case ValueType::kBool:
        return sign(a.AsBool(), b.AsBool());
      case ValueType::kUserTime:
        return sign(a.AsTime().ticks, b.AsTime().ticks);
    }
    return 0;
  }

  /// Three-way comparison *within* a type for predicate evaluation;
  /// returns a type error if the types differ (the only implicit
  /// conversion is int-vs-double, which compares numerically).
  static Result<int> Compare(const Value& a, const Value& b);

 private:
  using Rep = std::variant<int64_t, double, std::string, bool, UserTime>;
  explicit Value(Rep rep) : value_(std::move(rep)) {}

  Rep value_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

}  // namespace ttra

namespace std {
template <>
struct hash<ttra::Value> {
  size_t operator()(const ttra::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // TTRA_SNAPSHOT_VALUE_H_
