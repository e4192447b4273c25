#include "storage/state_log.h"

#include "storage/logs.h"

namespace ttra {

std::string_view StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kFullCopy:
      return "full-copy";
    case StorageKind::kDelta:
      return "delta";
    case StorageKind::kCheckpoint:
      return "checkpoint";
    case StorageKind::kReverseDelta:
      return "reverse-delta";
  }
  return "unknown";
}

size_t ApproxSize(const Value& value) {
  size_t base = 16;  // tag + discriminated-union payload
  if (value.type() == ValueType::kString) base += value.AsString().size();
  return base;
}

size_t ApproxSize(const Tuple& tuple) {
  size_t total = 24;  // vector header
  for (const Value& v : tuple.values()) total += ApproxSize(v);
  return total;
}

size_t ApproxSize(const SnapshotState& state) {
  size_t total = 64;  // schema + headers
  for (const Tuple& t : state.tuples()) total += ApproxSize(t);
  return total;
}

size_t ApproxSize(const HistoricalTuple& tuple) {
  return ApproxSize(tuple.tuple) + 24 +
         tuple.valid.intervals().size() * sizeof(Interval);
}

size_t ApproxSize(const HistoricalState& state) {
  size_t total = 64;
  for (const HistoricalTuple& t : state.tuples()) total += ApproxSize(t);
  return total;
}

template <typename StateT>
StateLog<StateT> MakeStateLog(StorageKind kind, size_t checkpoint_interval,
                              size_t cache_capacity) {
  switch (kind) {
    case StorageKind::kDelta:
      return StateLog<StateT>(DeltaLog<StateT>(cache_capacity));
    case StorageKind::kCheckpoint:
      return StateLog<StateT>(
          CheckpointLog<StateT>(checkpoint_interval, cache_capacity));
    case StorageKind::kReverseDelta:
      return StateLog<StateT>(ReverseDeltaLog<StateT>(cache_capacity));
    case StorageKind::kFullCopy:
      break;
  }
  return StateLog<StateT>(FullCopyLog<StateT>());
}

template StateLog<SnapshotState> MakeStateLog<SnapshotState>(StorageKind,
                                                             size_t, size_t);
template StateLog<HistoricalState> MakeStateLog<HistoricalState>(StorageKind,
                                                                 size_t,
                                                                 size_t);

}  // namespace ttra
