#include "storage/state_log.h"

namespace ttra {

namespace {

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

}  // namespace ttra
