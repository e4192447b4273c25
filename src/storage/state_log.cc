#include "storage/state_log.h"

#include <cmath>

namespace ttra {

namespace {

// Three-way canonical row order (Tuple::CanonicalOrder, then the valid
// time for historical rows).
int RowOrder(const Tuple& a, const Tuple& b) {
  return Tuple::CanonicalOrder(a, b);
}
int RowOrder(const HistoricalTuple& a, const HistoricalTuple& b) {
  if (const int order = Tuple::CanonicalOrder(a.tuple, b.tuple)) return order;
  return a.valid < b.valid ? -1 : (b.valid < a.valid ? 1 : 0);
}

// Identical down to the encoded bytes. A canonical-order tie is not
// enough: NaN ties with every double and 0.0 == -0.0.
bool SameBytes(const Tuple& a, const Tuple& b) {
  if (a.values().data() == b.values().data()) return true;
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Value& x = a.at(i);
    const Value& y = b.at(i);
    if (!(x == y)) return false;
    if (x.type() == ValueType::kDouble &&
        std::signbit(x.AsDouble()) != std::signbit(y.AsDouble())) {
      return false;
    }
  }
  return true;
}
bool SameBytes(const HistoricalTuple& a, const HistoricalTuple& b) {
  return SameBytes(a.tuple, b.tuple) && a.valid == b.valid;
}

template <typename StateT>
StateT ShareRowsImpl(const StateT& prev, const StateT& next) {
  using Row = typename StateTraits<StateT>::Row;
  const std::vector<Row>& old_rows = StateTraits<StateT>::Rows(prev);
  std::vector<Row> rows = StateTraits<StateT>::Rows(next);
  // One merge walk: both row vectors are canonical.
  size_t i = 0;
  for (Row& row : rows) {
    int order = -1;
    while (i < old_rows.size() && (order = RowOrder(old_rows[i], row)) < 0) {
      ++i;
    }
    if (i == old_rows.size()) break;
    if (order == 0 && SameBytes(old_rows[i], row)) row = old_rows[i++];
  }
  return StateTraits<StateT>::FromRows(next.schema(), std::move(rows));
}

// A state representation's schema and vector headers.
constexpr size_t kStateHeaderBytes = 64;
// A shared payload's reference count and length.
constexpr size_t kPayloadHeaderBytes = 24;

size_t ApproxNewBytes(const TemporalElement& valid,
                      std::unordered_set<const void*>& seen) {
  if (!seen.insert(valid.intervals().data()).second) return 0;
  return kPayloadHeaderBytes + valid.intervals().size() * sizeof(Interval);
}

size_t ApproxNewBytes(const Tuple& tuple,
                      std::unordered_set<const void*>& seen) {
  if (!seen.insert(tuple.values().data()).second) return 0;
  return ApproxSize(tuple);
}

}  // namespace

size_t ApproxSize(const Value& value) {
  size_t base = 16;  // tag + discriminated-union payload
  if (value.type() == ValueType::kString) base += value.AsString().size();
  return base;
}

size_t ApproxSize(const Tuple& tuple) {
  size_t total = kPayloadHeaderBytes;
  for (const Value& v : tuple.values()) total += ApproxSize(v);
  return total;
}

size_t ApproxNewBytes(const SnapshotState& state,
                      std::unordered_set<const void*>& seen) {
  if (!seen.insert(&state.tuples()).second) return 0;
  size_t total = kStateHeaderBytes + state.size() * sizeof(Tuple);
  for (const Tuple& t : state.tuples()) total += ApproxNewBytes(t, seen);
  return total;
}

size_t ApproxNewBytes(const HistoricalState& state,
                      std::unordered_set<const void*>& seen) {
  if (!seen.insert(&state.tuples()).second) return 0;
  size_t total = kStateHeaderBytes + state.size() * sizeof(HistoricalTuple);
  for (const HistoricalTuple& t : state.tuples()) {
    total += ApproxNewBytes(t.tuple, seen) + ApproxNewBytes(t.valid, seen);
  }
  return total;
}

SnapshotState ShareRows(const SnapshotState& prev, const SnapshotState& next) {
  return ShareRowsImpl(prev, next);
}

HistoricalState ShareRows(const HistoricalState& prev,
                          const HistoricalState& next) {
  return ShareRowsImpl(prev, next);
}

}  // namespace ttra
