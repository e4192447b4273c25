#ifndef TTRA_STORAGE_STATE_LOG_H_
#define TTRA_STORAGE_STATE_LOG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "historical/hstate.h"
#include "snapshot/state.h"
#include "util/result.h"

namespace ttra {

/// The paper's TRANSACTION NUMBER domain: non-negative integers assigned at
/// commit, strictly increasing along every relation's state sequence.
using TransactionNumber = uint64_t;

/// The in-memory history engine: there is one, the paper's full-copy
/// sequence (StateLog below). The enum and DatabaseOptions::storage stay
/// only so existing callers that name kFullCopy still compile; nothing
/// reads them.
enum class StorageKind : uint8_t {
  kFullCopy = 0,
};

/// Generic row access over a state's canonical sorted row set, used by the
/// segment codec's on-disk deltas.
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

/// The row-sharing rule for a state rebuilt next to its predecessor: `next`
/// with each row that `prev` holds identically (down to the encoded bytes)
/// replaced by prev's copy, so the two states share those rows' payloads.
/// Values and order are unchanged; the result has its own representation.
/// Log replay applies it to every modify_state before it applies; a
/// segment delta entry shares its kept rows by construction (they are
/// copies of prev's), while a keyframe is decoded fresh (sharing it cost
/// a long-history Start 20–40 ms).
SnapshotState ShareRows(const SnapshotState& prev, const SnapshotState& next);
HistoricalState ShareRows(const HistoricalState& prev,
                          const HistoricalState& next);

/// Estimated in-memory footprint of a value and of a tuple's payload.
/// Deliberately simple and deterministic.
size_t ApproxSize(const Value& value);
size_t ApproxSize(const Tuple& tuple);

/// Estimated resident bytes `state` adds to what `seen` already holds.
/// Copies of a state share one representation and states one tuple apart
/// share every other tuple payload, so each is charged once: a state
/// representation at a header plus one handle per tuple, each tuple and
/// temporal-element payload at its size. `seen` collects the addresses
/// charged so far.
size_t ApproxNewBytes(const SnapshotState& state,
                      std::unordered_set<const void*>& seen);
size_t ApproxNewBytes(const HistoricalState& state,
                      std::unordered_set<const void*>& seen);

/// Entries per sealed chunk of a ChunkedVector, and sealed chunks per
/// group. Copying a vector copies at most this many tail entries.
inline constexpr size_t kStateLogChunkSize = 64;

/// The append-only sequence a StateLog stores its entries in; each entry
/// carries its transaction number `txn`, strictly increasing.
/// Built to be copied cheaply: entries fill a tail chunk; a full tail is
/// sealed into an immutable shared chunk, kStateLogChunkSize sealed chunks
/// make an immutable shared group, and the full groups are listed by an
/// immutable shared spine. Only the tail belongs to one copy, so a copy
/// shares every sealed entry with its source and costs
/// O(kStateLogChunkSize), and the copies may then append independently
/// (two versions of a log diverge after their common prefix). Sealing a
/// chunk copies the open group's chunk pointers (fewer than
/// kStateLogChunkSize), and closing a group copies the spine (one pointer
/// per kStateLogChunkSize² entries), so an append costs O(1) amortized at
/// any history length. Sealed parts are listed with their last
/// transaction number, so FINDSTATE's search reads no chunk but the one
/// holding its answer.
///
/// Nothing shared is ever written, so versions may be read from other
/// threads while one of them appends.
template <typename T>
class ChunkedVector {
 public:
  size_t size() const {
    return (closed_chunks() + open_chunks()) * kStateLogChunkSize +
           tail_.size();
  }
  bool empty() const { return size() == 0; }

  const T& operator[](size_t i) const {
    const size_t offset = i % kStateLogChunkSize;
    const size_t chunk = i / kStateLogChunkSize;
    if (chunk < closed_chunks()) {
      const Group& group = *(*spine_)[chunk / kStateLogChunkSize].part;
      return (*group[chunk % kStateLogChunkSize].part)[offset];
    }
    if (chunk - closed_chunks() < open_chunks()) {
      return (*(*open_)[chunk - closed_chunks()].part)[offset];
    }
    return tail_[offset];
  }

  const T& back() const { return (*this)[size() - 1]; }

  void push_back(T value) {
    tail_.push_back(std::move(value));
    if (tail_.size() == kStateLogChunkSize) Seal();
  }

  void clear() {
    spine_.reset();
    open_.reset();
    tail_.clear();
  }

  /// upper_bound by transaction number: the number of leading entries
  /// whose txn is <= `txn`. Binary searches over the groups' and chunks'
  /// last transaction numbers narrow it to one chunk; it allocates
  /// nothing.
  size_t CountAtOrBefore(TransactionNumber txn) const {
    // The newest entry answers most probes (ρ(R, ∞), reads of the
    // current state), so it is checked first.
    if (!tail_.empty() && txn >= tail_.back().txn) return size();
    size_t count = 0;
    if (spine_ != nullptr) {
      auto group = FirstAfter(*spine_, txn);
      count += static_cast<size_t>(group - spine_->begin()) *
               kStateLogChunkSize * kStateLogChunkSize;
      if (group != spine_->end()) return count + CountIn(*group->part, txn);
    }
    if (open_ != nullptr) {
      count += CountIn(*open_, txn);
      if (count < (closed_chunks() + open_chunks()) * kStateLogChunkSize) {
        return count;
      }
    }
    return count + CountIn(tail_, txn);
  }

 private:
  /// A sealed chunk or group with the transaction number of its last
  /// entry.
  template <typename Part>
  struct Sealed {
    TransactionNumber last_txn = 0;
    std::shared_ptr<const Part> part;
  };
  using Chunk = std::vector<T>;
  using Group = std::vector<Sealed<Chunk>>;
  using Spine = std::vector<Sealed<Group>>;

  size_t closed_chunks() const {
    return spine_ == nullptr ? 0 : spine_->size() * kStateLogChunkSize;
  }
  size_t open_chunks() const { return open_ == nullptr ? 0 : open_->size(); }

  template <typename Parts>
  static auto FirstAfter(const Parts& parts, TransactionNumber txn) {
    return std::upper_bound(
        parts.begin(), parts.end(), txn,
        [](TransactionNumber t, const auto& p) { return t < p.last_txn; });
  }

  static size_t CountIn(const Chunk& chunk, TransactionNumber txn) {
    auto after = std::upper_bound(
        chunk.begin(), chunk.end(), txn,
        [](TransactionNumber t, const T& entry) { return t < entry.txn; });
    return static_cast<size_t>(after - chunk.begin());
  }

  static size_t CountIn(const Group& group, TransactionNumber txn) {
    auto chunk = FirstAfter(group, txn);
    const size_t count =
        static_cast<size_t>(chunk - group.begin()) * kStateLogChunkSize;
    return chunk == group.end() ? count : count + CountIn(*chunk->part, txn);
  }

  void Seal() {
    const TransactionNumber last_txn = tail_.back().txn;
    auto group = std::make_shared<Group>();
    group->reserve(kStateLogChunkSize);
    if (open_ != nullptr) group->assign(open_->begin(), open_->end());
    group->push_back(
        {last_txn, std::make_shared<const Chunk>(std::move(tail_))});
    tail_ = Chunk();
    tail_.reserve(kStateLogChunkSize);
    if (group->size() < kStateLogChunkSize) {
      open_ = std::move(group);
      return;
    }
    auto spine = std::make_shared<Spine>();
    spine->reserve((spine_ == nullptr ? 0 : spine_->size()) + 1);
    if (spine_ != nullptr) spine->assign(spine_->begin(), spine_->end());
    spine->push_back({last_txn, std::move(group)});
    spine_ = std::move(spine);
    open_.reset();
  }

  std::shared_ptr<const Spine> spine_;  // full groups, shared by copies
  std::shared_ptr<const Group> open_;   // the group being filled, shared
  Chunk tail_;                          // < kStateLogChunkSize entries
};

/// A relation's sequence of (state, transaction-number) pairs — the
/// `[STATE × TRANSACTION NUMBER]*` component of the paper's RELATION
/// domain — stored as the paper defines it: every pair in full. Entries
/// are shared immutable states, so FINDSTATE (`StateAt`) is an
/// allocation-free binary search, and a state one tuple away from its
/// predecessor shares every other tuple payload with it.
///
/// A StateLog is a persistent value: its entries live in a ChunkedVector,
/// so a copy shares the whole recorded history with its source and costs
/// O(kStateLogChunkSize), and the two may then append independently.
/// Copying a log is how a new database version gets its own relation.
template <typename StateT>
class StateLog {
 public:
  /// Appends (state, txn) at the end of the sequence. Requires txn to be
  /// strictly greater than the last recorded transaction number.
  Status Append(const StateT& state, TransactionNumber txn) {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    entries_.push_back({std::make_shared<const StateT>(state), txn});
    return Status::Ok();
  }

  /// Replaces the single element of the sequence (snapshot/historical
  /// relations keep exactly one element). Creates it if the sequence is
  /// empty.
  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    entries_.clear();
    entries_.push_back({std::make_shared<const StateT>(state), txn});
    return Status::Ok();
  }

  /// FINDSTATE: the state whose transaction number is the largest one
  /// <= txn, or nullptr if the sequence is empty or txn precedes it. The
  /// stored state is returned shared, without copying tuples.
  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    const size_t count = CountAtOrBefore(txn);
    if (count == 0) return nullptr;
    return entries_[count - 1].state;
  }

  /// FINDSTATE's index search alone: the number of recorded pairs whose
  /// transaction number is <= txn (binary search, no allocation).
  size_t CountAtOrBefore(TransactionNumber txn) const {
    return entries_.CountAtOrBefore(txn);
  }

  /// Number of (state, txn) pairs in the sequence.
  size_t size() const { return entries_.size(); }

  /// Transaction number of the i-th pair (0-based).
  TransactionNumber TxnAt(size_t i) const { return entries_[i].txn; }

  /// Estimated resident bytes — the storage-cost metric of experiment E3:
  /// each entry, plus each state representation and payload once.
  size_t ApproxBytes() const {
    std::unordered_set<const void*> seen;
    size_t total = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      total += sizeof(Entry) + ApproxNewBytes(*entries_[i].state, seen);
    }
    return total;
  }

 private:
  struct Entry {
    std::shared_ptr<const StateT> state;
    TransactionNumber txn = 0;
  };

  ChunkedVector<Entry> entries_;
};

}  // namespace ttra

#endif  // TTRA_STORAGE_STATE_LOG_H_
