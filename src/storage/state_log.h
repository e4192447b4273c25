#ifndef TTRA_STORAGE_STATE_LOG_H_
#define TTRA_STORAGE_STATE_LOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "historical/hstate.h"
#include "snapshot/state.h"
#include "util/result.h"

namespace ttra {

/// The paper's TRANSACTION NUMBER domain: non-negative integers assigned at
/// commit, strictly increasing along every relation's state sequence.
using TransactionNumber = uint64_t;

/// Storage-engine choice for a relation's state sequence. The paper's
/// denotational semantics corresponds to kFullCopy; kDelta and kCheckpoint
/// are the "more efficient implementations using optimization strategies
/// for both storage and retrieval" it anticipates (§2), proven equivalent
/// by the engine-equivalence property suite.
enum class StorageKind : uint8_t {
  kFullCopy = 0,
  kDelta = 1,
  kCheckpoint = 2,
  /// Current state stored in full plus *backward* deltas (the RCS layout):
  /// ρ(R, ∞) is O(1), and rollback cost grows with the distance into the
  /// past — matching the access pattern where recent states dominate.
  kReverseDelta = 3,
};

std::string_view StorageKindName(StorageKind kind);

/// Generic row access used by the differential engines. A state is a
/// canonical sorted set of rows over a schema, so diffs are set diffs.
template <typename StateT>
struct StateTraits;

template <>
struct StateTraits<SnapshotState> {
  using Row = Tuple;
  static const std::vector<Row>& Rows(const SnapshotState& state) {
    return state.tuples();
  }
  static SnapshotState FromRows(const Schema& schema, std::vector<Row> rows) {
    // Rows originate from validated states and delta replay preserves
    // canonical order, so the trusted constructor applies.
    return SnapshotState::FromCanonical(schema, std::move(rows));
  }
};

template <>
struct StateTraits<HistoricalState> {
  using Row = HistoricalTuple;
  static const std::vector<Row>& Rows(const HistoricalState& state) {
    return state.tuples();
  }
  static HistoricalState FromRows(const Schema& schema,
                                  std::vector<Row> rows) {
    return HistoricalState::FromCanonical(schema, std::move(rows));
  }
};

/// A relation's sequence of (state, transaction-number) pairs behind one
/// of four storage engines; a persistent value whose copies share history
/// (defined in storage/logs.h).
template <typename StateT>
class StateLog;

/// Estimated in-memory footprint of values/tuples/states, used by
/// ApproxBytes. Deliberately simple and deterministic.
size_t ApproxSize(const Value& value);
size_t ApproxSize(const Tuple& tuple);
size_t ApproxSize(const SnapshotState& state);
size_t ApproxSize(const HistoricalTuple& tuple);
size_t ApproxSize(const HistoricalState& state);

/// Default capacity of the per-log FINDSTATE reconstruction cache (the
/// retrieval half of the E3 tradeoff): recently reconstructed states are
/// kept alive so repeated rollbacks to the same or nearby transactions
/// are O(1) instead of O(replay).
inline constexpr size_t kDefaultFindStateCacheCapacity = 8;

/// Factory for the engine implementations in this module.
/// `checkpoint_interval` applies to kCheckpoint only (a full state is
/// stored every `checkpoint_interval` entries; deltas in between).
/// `cache_capacity` sizes the FINDSTATE reconstruction cache of the
/// replay-based engines (delta/checkpoint/reverse-delta); 0 disables it.
template <typename StateT>
StateLog<StateT> MakeStateLog(
    StorageKind kind, size_t checkpoint_interval = 16,
    size_t cache_capacity = kDefaultFindStateCacheCapacity);

}  // namespace ttra

#endif  // TTRA_STORAGE_STATE_LOG_H_
