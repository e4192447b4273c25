#ifndef TTRA_SNAPSHOT_TUPLE_H_
#define TTRA_SNAPSHOT_TUPLE_H_

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "snapshot/schema.h"
#include "snapshot/value.h"
#include "util/result.h"
#include "util/shared_array.h"

namespace ttra {

/// An ordered list of attribute values. A tuple is positional; its meaning
/// is given by the schema of the state that contains it.
///
/// A tuple is one pointer to an immutable shared payload (SharedArray):
/// copying a tuple, or a state's tuple vector, bumps reference counts and
/// never copies values. So a state built from its predecessor by a kernel
/// that copies tuples across (σ, ∪, −, a delta decode) shares the payload
/// of every tuple it kept. Equality and order are by value.
class Tuple {
 public:
  /// Writes a new tuple's values straight into its payload: exactly
  /// `arity` values, one allocation.
  class Builder {
   public:
    explicit Builder(size_t arity) : values_(arity) {}
    void Add(const Value& value) { values_.Emplace(value); }
    void Add(Value&& value) { values_.Emplace(std::move(value)); }
    void Append(std::span<const Value> values) { values_.Append(values); }
    Tuple Build() && { return Tuple(std::move(values_).Build()); }

   private:
    SharedArray<Value>::Builder values_;
  };

  /// The zero-arity tuple; it owns no payload.
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values)
      : values_(std::span<const Value>(values.begin(), values.size())) {}

  std::span<const Value> values() const { return values_.span(); }
  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }

  /// OK iff arity and per-position value types match the schema.
  Status ConformsTo(const Schema& schema) const;

  /// "(v1, v2, ...)".
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const Tuple&, const Tuple&) = default;
  /// Canonical lexicographic order (by Value's canonical order) as one
  /// three-way test: negative, zero or positive exactly when a < b,
  /// neither, or b < a. One three-way test per value; tuples sharing a
  /// payload tie at once. Merge kernels use it to decide each step with
  /// one walk.
  static int CanonicalOrder(const Tuple& a, const Tuple& b) {
    const std::span<const Value> x = a.values();
    const std::span<const Value> y = b.values();
    if (x.data() == y.data()) return 0;
    for (size_t i = 0, n = std::min(x.size(), y.size()); i < n; ++i) {
      if (const int order = Value::CanonicalOrder(x[i], y[i])) return order;
    }
    return x.size() < y.size() ? -1 : (y.size() < x.size() ? 1 : 0);
  }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return CanonicalOrder(a, b) < 0;
  }

 private:
  explicit Tuple(SharedArray<Value> values) : values_(std::move(values)) {}

  SharedArray<Value> values_;
};

static_assert(sizeof(Tuple) == sizeof(void*));

std::ostream& operator<<(std::ostream& os, const Tuple& tuple);

}  // namespace ttra

namespace std {
template <>
struct hash<ttra::Tuple> {
  size_t operator()(const ttra::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // TTRA_SNAPSHOT_TUPLE_H_
