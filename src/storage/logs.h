#ifndef TTRA_STORAGE_LOGS_H_
#define TTRA_STORAGE_LOGS_H_

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>
#include <variant>

#include "storage/state_log.h"
#include "util/mutex.h"

namespace ttra {

/// Small thread-safe LRU of reconstructed states, keyed by entry index.
/// The replay-based engines (delta/checkpoint/reverse-delta) consult it so
/// repeated FINDSTATE reads of the same or nearby transactions skip the
/// replay; readers may probe one log concurrently (SerialExecutor holds
/// only a shared lock), hence the internal mutex. Log entries are
/// immutable once appended, so a cached index stays valid in every version
/// of the log that shares it: an Append keeps the cache, and a copied log
/// copies the (at most `capacity`) cached references.
/// A capacity of 0 disables caching entirely.
template <typename StateT>
class FindStateCache {
 public:
  explicit FindStateCache(size_t capacity) : capacity_(capacity) {}

  FindStateCache(const FindStateCache& other) : capacity_(other.capacity_) {
    MutexLock lock(other.mutex_);
    slots_ = other.slots_;
    clock_ = other.clock_;
  }
  FindStateCache& operator=(const FindStateCache& other) {
    if (this == &other) return *this;
    std::vector<Slot> slots;
    uint64_t clock = 0;
    {
      MutexLock lock(other.mutex_);
      slots = other.slots_;
      clock = other.clock_;
    }
    MutexLock lock(mutex_);
    capacity_ = other.capacity_;
    slots_ = std::move(slots);
    clock_ = clock;
    return *this;
  }

  size_t capacity() const { return capacity_; }

  /// The cached state for exactly `index`, or nullptr.
  std::shared_ptr<const StateT> Get(size_t index) const {
    MutexLock lock(mutex_);
    for (Slot& slot : slots_) {
      if (slot.index == index) {
        slot.stamp = ++clock_;
        return slot.state;
      }
    }
    return nullptr;
  }

  /// The cached entry with the greatest index <= `index` (replay seed for
  /// forward-delta engines), or nullopt.
  std::optional<std::pair<size_t, std::shared_ptr<const StateT>>> Floor(
      size_t index) const {
    MutexLock lock(mutex_);
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index <= index && (best == nullptr || slot.index > best->index)) {
        best = &slot;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->stamp = ++clock_;
    return std::make_pair(best->index, best->state);
  }

  /// The cached entry with the least index >= `index` (replay seed for the
  /// backward-walking reverse-delta engine), or nullopt.
  std::optional<std::pair<size_t, std::shared_ptr<const StateT>>> Ceil(
      size_t index) const {
    MutexLock lock(mutex_);
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index >= index && (best == nullptr || slot.index < best->index)) {
        best = &slot;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->stamp = ++clock_;
    return std::make_pair(best->index, best->state);
  }

  void Put(size_t index, std::shared_ptr<const StateT> state) const {
    if (capacity_ == 0) return;
    MutexLock lock(mutex_);
    Slot* victim = nullptr;
    for (Slot& slot : slots_) {
      if (slot.index == index) {
        slot.state = std::move(state);
        slot.stamp = ++clock_;
        return;
      }
      if (victim == nullptr || slot.stamp < victim->stamp) victim = &slot;
    }
    if (slots_.size() < capacity_) {
      slots_.push_back(Slot{index, std::move(state), ++clock_});
      return;
    }
    *victim = Slot{index, std::move(state), ++clock_};
  }

  /// Invalidates everything (called by ReplaceLast, after which an index
  /// names a different entry).
  void Clear() const {
    MutexLock lock(mutex_);
    slots_.clear();
  }

 private:
  struct Slot {
    size_t index = 0;
    std::shared_ptr<const StateT> state;
    uint64_t stamp = 0;
  };

  size_t capacity_;
  mutable Mutex mutex_;
  mutable std::vector<Slot> slots_ TTRA_GUARDED_BY(mutex_);
  mutable uint64_t clock_ TTRA_GUARDED_BY(mutex_) = 0;
};

/// Entries per sealed chunk of a ChunkedVector, and sealed chunks per
/// group. Copying a vector copies at most this many tail entries.
inline constexpr size_t kStateLogChunkSize = 64;

/// The append-only sequence every StateLog engine stores its entries in;
/// each entry carries its transaction number `txn`, strictly increasing.
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

/// Direct realization of the paper's semantics: every (state, txn) pair is
/// stored in full. Entries are shared immutable states, so FINDSTATE is an
/// allocation-free binary search.
template <typename StateT>
class FullCopyLog {
 public:
  Status Append(const StateT& state, TransactionNumber txn) {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    entries_.push_back({std::make_shared<const StateT>(state), txn});
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    entries_.clear();
    entries_.push_back({std::make_shared<const StateT>(state), txn});
    return Status::Ok();
  }

  size_t CountAtOrBefore(TransactionNumber txn) const {
    return entries_.CountAtOrBefore(txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    const size_t count = CountAtOrBefore(txn);
    if (count == 0) return nullptr;
    return entries_[count - 1].state;
  }

  size_t size() const { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const { return entries_[i].txn; }

  size_t ApproxBytes() const {
    size_t total = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      total += ApproxSize(*entries_[i].state) + sizeof(TransactionNumber);
    }
    return total;
  }

  StorageKind kind() const { return StorageKind::kFullCopy; }

 private:
  struct Entry {
    std::shared_ptr<const StateT> state;
    TransactionNumber txn = 0;
  };

  ChunkedVector<Entry> entries_;
};

/// Differential ("backlog") engine: each entry stores the rows added and
/// removed relative to the previous state. FINDSTATE replays from the
/// nearest cached reconstruction (or the start); the tail state is kept
/// shared so ρ(R, ∞) is O(1). Space is proportional to change volume.
template <typename StateT>
class DeltaLog {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit DeltaLog(size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    Entry entry;
    entry.txn = txn;
    entry.schema = state.schema();
    const std::vector<Row>& new_rows = StateTraits<StateT>::Rows(state);
    if (!entries_.empty() && entries_.back().schema != state.schema()) {
      // Scheme change: rebase with a full snapshot of the new rows.
      entry.removed = StateTraits<StateT>::Rows(*tail_state_);
      entry.added = new_rows;
    } else {
      const std::vector<Row> no_rows;
      const std::vector<Row>& old_rows =
          tail_state_ ? StateTraits<StateT>::Rows(*tail_state_) : no_rows;
      std::set_difference(new_rows.begin(), new_rows.end(), old_rows.begin(),
                          old_rows.end(), std::back_inserter(entry.added));
      std::set_difference(old_rows.begin(), old_rows.end(), new_rows.begin(),
                          new_rows.end(), std::back_inserter(entry.removed));
    }
    tail_state_ = std::make_shared<const StateT>(state);
    entries_.push_back(std::move(entry));
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    entries_.clear();
    tail_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  size_t CountAtOrBefore(TransactionNumber txn) const {
    return entries_.CountAtOrBefore(txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    const size_t count = CountAtOrBefore(txn);
    if (count == 0) return nullptr;
    const size_t last = count - 1;
    if (last + 1 == entries_.size()) return tail_state_;
    if (auto cached = cache_.Get(last)) return cached;
    // Seed the replay from the nearest cached reconstruction at or before
    // `last` (only if its scheme epoch matches — a rebase entry in between
    // resets the rows anyway, so any seed is safe to replay through).
    size_t start = 0;
    std::vector<Row> rows;
    if (auto seed = cache_.Floor(last)) {
      start = seed->first + 1;
      rows = StateTraits<StateT>::Rows(*seed->second);
    }
    for (size_t i = start; i <= last; ++i) ApplyEntry(entries_[i], rows);
    auto state = std::make_shared<const StateT>(
        StateTraits<StateT>::FromRows(entries_[last].schema, std::move(rows)));
    cache_.Put(last, state);
    return state;
  }

  size_t size() const { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const { return entries_[i].txn; }

  size_t ApproxBytes() const {
    size_t total = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      total += sizeof(TransactionNumber) + 32;  // entry overhead
      for (const Row& r : e.added) total += ApproxSize(r);
      for (const Row& r : e.removed) total += ApproxSize(r);
    }
    return total;
  }

  StorageKind kind() const { return StorageKind::kDelta; }

 private:
  struct Entry {
    TransactionNumber txn = 0;
    Schema schema;
    std::vector<Row> added;
    std::vector<Row> removed;
  };

  static void ApplyEntry(const Entry& entry, std::vector<Row>& rows) {
    if (!entry.removed.empty()) {
      std::vector<Row> kept;
      kept.reserve(rows.size());
      std::set_difference(rows.begin(), rows.end(), entry.removed.begin(),
                          entry.removed.end(), std::back_inserter(kept));
      rows = std::move(kept);
    }
    if (!entry.added.empty()) {
      std::vector<Row> merged;
      merged.reserve(rows.size() + entry.added.size());
      std::merge(rows.begin(), rows.end(), entry.added.begin(),
                 entry.added.end(), std::back_inserter(merged));
      rows = std::move(merged);
    }
  }

  ChunkedVector<Entry> entries_;
  std::shared_ptr<const StateT> tail_state_;  // most recent state, shared
  FindStateCache<StateT> cache_;
};

/// Delta engine with periodic full checkpoints: every `interval`-th entry
/// stores the complete state, bounding FINDSTATE replay to `interval`
/// entries — the classic space/time dial between kFullCopy (interval 1)
/// and kDelta (interval ∞). Checkpoint entries are shared immutable
/// states, so appending a checkpoint and serving one are O(1) copies.
template <typename StateT>
class CheckpointLog {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit CheckpointLog(
      size_t interval,
      size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : interval_(interval < 1 ? 1 : interval), cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    Entry entry;
    entry.txn = txn;
    entry.schema = state.schema();
    auto shared = std::make_shared<const StateT>(state);
    const bool checkpoint =
        entries_.empty() || entries_.size() % interval_ == 0 ||
        entries_.back().schema != state.schema();
    if (checkpoint) {
      entry.full = shared;
    } else {
      const std::vector<Row>& new_rows = StateTraits<StateT>::Rows(state);
      const std::vector<Row>& old_rows = StateTraits<StateT>::Rows(*tail_state_);
      std::set_difference(new_rows.begin(), new_rows.end(), old_rows.begin(),
                          old_rows.end(), std::back_inserter(entry.added));
      std::set_difference(old_rows.begin(), old_rows.end(), new_rows.begin(),
                          new_rows.end(), std::back_inserter(entry.removed));
    }
    tail_state_ = std::move(shared);
    entries_.push_back(std::move(entry));
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    entries_.clear();
    tail_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  size_t CountAtOrBefore(TransactionNumber txn) const {
    return entries_.CountAtOrBefore(txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    const size_t count = CountAtOrBefore(txn);
    if (count == 0) return nullptr;
    const size_t last = count - 1;
    if (last + 1 == entries_.size()) return tail_state_;
    if (entries_[last].full != nullptr) return entries_[last].full;
    if (auto cached = cache_.Get(last)) return cached;
    size_t start = last;
    while (entries_[start].full == nullptr) {
      assert(start > 0);
      --start;
    }
    // Prefer a cached reconstruction inside the same checkpoint segment
    // over replaying from the checkpoint itself.
    std::vector<Row> rows;
    size_t next = start;
    if (auto seed = cache_.Floor(last); seed && seed->first > start) {
      rows = StateTraits<StateT>::Rows(*seed->second);
      next = seed->first + 1;
    } else {
      rows = StateTraits<StateT>::Rows(*entries_[start].full);
      next = start + 1;
    }
    for (size_t i = next; i <= last; ++i) ApplyDelta(entries_[i], rows);
    auto state = std::make_shared<const StateT>(
        StateTraits<StateT>::FromRows(entries_[last].schema, std::move(rows)));
    cache_.Put(last, state);
    return state;
  }

  size_t size() const { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const { return entries_[i].txn; }

  size_t ApproxBytes() const {
    size_t total = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      total += sizeof(TransactionNumber) + 32;
      if (e.full != nullptr) total += ApproxSize(*e.full);
      for (const Row& r : e.added) total += ApproxSize(r);
      for (const Row& r : e.removed) total += ApproxSize(r);
    }
    return total;
  }

  StorageKind kind() const { return StorageKind::kCheckpoint; }

  size_t interval() const { return interval_; }

 private:
  struct Entry {
    TransactionNumber txn = 0;
    Schema schema;
    std::shared_ptr<const StateT> full;  // non-null iff checkpoint entry
    std::vector<Row> added;              // delta entries only
    std::vector<Row> removed;
  };

  static void ApplyDelta(const Entry& entry, std::vector<Row>& rows) {
    if (!entry.removed.empty()) {
      std::vector<Row> kept;
      kept.reserve(rows.size());
      std::set_difference(rows.begin(), rows.end(), entry.removed.begin(),
                          entry.removed.end(), std::back_inserter(kept));
      rows = std::move(kept);
    }
    if (!entry.added.empty()) {
      std::vector<Row> merged;
      merged.reserve(rows.size() + entry.added.size());
      std::merge(rows.begin(), rows.end(), entry.added.begin(),
                 entry.added.end(), std::back_inserter(merged));
      rows = std::move(merged);
    }
  }

  size_t interval_;
  ChunkedVector<Entry> entries_;
  std::shared_ptr<const StateT> tail_state_;
  FindStateCache<StateT> cache_;
};

/// Reverse-delta engine (the RCS layout): the most recent state is stored
/// in full and each older state is reachable through a *backward* delta.
/// ρ(R, ∞) hands out the shared current state in O(1); rolling back to the
/// k-th most recent state replays backward deltas from the nearest cached
/// reconstruction. The natural complement of DeltaLog when queries skew
/// towards the present. Appending only adds the backward delta for the
/// state it supersedes, so the entries are append-only too.
template <typename StateT>
class ReverseDeltaLog {
 public:
  using Row = typename StateTraits<StateT>::Row;

  explicit ReverseDeltaLog(
      size_t cache_capacity = kDefaultFindStateCacheCapacity)
      : cache_(cache_capacity) {}

  Status Append(const StateT& state, TransactionNumber txn) {
    if (!entries_.empty() && txn <= entries_.back().txn) {
      return InternalError("non-increasing transaction number in Append");
    }
    Entry entry;
    entry.txn = txn;
    if (!entries_.empty()) {
      // Record how to get the *previous* state back from the new one.
      const std::vector<Row>& new_rows = StateTraits<StateT>::Rows(state);
      const std::vector<Row>& current_rows =
          StateTraits<StateT>::Rows(*current_state_);
      entry.schema = current_state_->schema();
      if (current_state_->schema() != state.schema()) {
        // Scheme boundary: keep the previous rows verbatim.
        entry.is_full = true;
        entry.added = current_rows;
      } else {
        std::set_difference(current_rows.begin(), current_rows.end(),
                            new_rows.begin(), new_rows.end(),
                            std::back_inserter(entry.added));
        std::set_difference(new_rows.begin(), new_rows.end(),
                            current_rows.begin(), current_rows.end(),
                            std::back_inserter(entry.removed));
      }
    }
    entries_.push_back(std::move(entry));
    current_state_ = std::make_shared<const StateT>(state);
    return Status::Ok();
  }

  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    entries_.clear();
    current_state_.reset();
    cache_.Clear();
    return Append(state, txn);
  }

  size_t CountAtOrBefore(TransactionNumber txn) const {
    return entries_.CountAtOrBefore(txn);
  }

  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    const size_t count = CountAtOrBefore(txn);
    if (count == 0) return nullptr;
    const size_t target = count - 1;
    if (target + 1 == entries_.size()) return current_state_;
    if (auto cached = cache_.Get(target)) return cached;
    // Walk backwards towards `target` from the nearest reconstruction at
    // or after it (cached, or the current state); entries_[k] recovers
    // version k - 1 from version k.
    size_t from = entries_.size() - 1;
    std::vector<Row> rows;
    Schema schema;
    if (auto seed = cache_.Ceil(target); seed && seed->first < from) {
      from = seed->first;
      rows = StateTraits<StateT>::Rows(*seed->second);
      schema = seed->second->schema();
    } else {
      rows = StateTraits<StateT>::Rows(*current_state_);
      schema = current_state_->schema();
    }
    for (size_t k = from; k > target; --k) {
      const Entry& entry = entries_[k];
      if (entry.is_full) {
        rows = entry.added;
      } else {
        ApplyBack(entry, rows);
      }
      schema = entry.schema;
    }
    auto state = std::make_shared<const StateT>(
        StateTraits<StateT>::FromRows(schema, std::move(rows)));
    cache_.Put(target, state);
    return state;
  }

  size_t size() const { return entries_.size(); }

  TransactionNumber TxnAt(size_t i) const { return entries_[i].txn; }

  size_t ApproxBytes() const {
    size_t total = 64;
    if (current_state_ != nullptr) total += ApproxSize(*current_state_);
    for (size_t i = 1; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      total += 32;
      for (const Row& r : e.added) total += ApproxSize(r);
      for (const Row& r : e.removed) total += ApproxSize(r);
    }
    total += entries_.size() * sizeof(TransactionNumber);
    return total;
  }

  StorageKind kind() const { return StorageKind::kReverseDelta; }

 private:
  /// Version k's transaction number and the backward delta that recovers
  /// version k - 1 from it (empty in entry 0).
  struct Entry {
    TransactionNumber txn = 0;
    Schema schema;   // scheme of the *older* state this entry recovers
    bool is_full = false;
    std::vector<Row> added;    // rows to restore (all rows when is_full)
    std::vector<Row> removed;  // rows the newer state introduced
  };

  static void ApplyBack(const Entry& entry, std::vector<Row>& rows) {
    if (!entry.removed.empty()) {
      std::vector<Row> kept;
      kept.reserve(rows.size());
      std::set_difference(rows.begin(), rows.end(), entry.removed.begin(),
                          entry.removed.end(), std::back_inserter(kept));
      rows = std::move(kept);
    }
    if (!entry.added.empty()) {
      std::vector<Row> merged;
      merged.reserve(rows.size() + entry.added.size());
      std::merge(rows.begin(), rows.end(), entry.added.begin(),
                 entry.added.end(), std::back_inserter(merged));
      rows = std::move(merged);
    }
  }

  ChunkedVector<Entry> entries_;
  std::shared_ptr<const StateT> current_state_;
  FindStateCache<StateT> cache_;
};

/// A relation's sequence of (state, transaction-number) pairs — the
/// `[STATE × TRANSACTION NUMBER]*` component of the paper's RELATION
/// domain — stored by one of the engines above. FINDSTATE (`StateAt`) is
/// the only read path, so engines are free to store anything that can
/// reconstruct the sequence.
///
/// A StateLog is a persistent value: every engine keeps its entries in
/// ChunkedVectors, so a copy shares the whole recorded history with its
/// source and costs O(kStateLogChunkSize), and the two may then append
/// independently. Copying a log is how a new database version gets its
/// own relation.
template <typename StateT>
class StateLog {
 public:
  template <typename Engine>
    requires(!std::is_same_v<Engine, StateLog>)
  explicit StateLog(Engine engine) : engine_(std::move(engine)) {}

  /// Appends (state, txn) at the end of the sequence. Requires txn to be
  /// strictly greater than the last recorded transaction number.
  Status Append(const StateT& state, TransactionNumber txn) {
    return std::visit([&](auto& e) { return e.Append(state, txn); }, engine_);
  }

  /// Replaces the single element of the sequence (snapshot/historical
  /// relations keep exactly one element). Creates it if the sequence is
  /// empty.
  Status ReplaceLast(const StateT& state, TransactionNumber txn) {
    return std::visit([&](auto& e) { return e.ReplaceLast(state, txn); },
                      engine_);
  }

  /// FINDSTATE: the state whose transaction number is the largest one
  /// <= txn, or nullptr if the sequence is empty or txn precedes it.
  /// States are immutable and shared: full-copy entries, the tail state,
  /// and cached reconstructions are returned without copying tuples.
  std::shared_ptr<const StateT> StateAt(TransactionNumber txn) const {
    return std::visit([&](const auto& e) { return e.StateAt(txn); }, engine_);
  }

  /// FINDSTATE's index search alone: the number of recorded pairs whose
  /// transaction number is <= txn (binary search, no allocation).
  size_t CountAtOrBefore(TransactionNumber txn) const {
    return std::visit([&](const auto& e) { return e.CountAtOrBefore(txn); },
                      engine_);
  }

  /// Number of (state, txn) pairs in the logical sequence.
  size_t size() const {
    return std::visit([](const auto& e) { return e.size(); }, engine_);
  }

  /// Transaction number of the i-th pair (0-based).
  TransactionNumber TxnAt(size_t i) const {
    return std::visit([i](const auto& e) { return e.TxnAt(i); }, engine_);
  }

  /// Estimated resident bytes — the storage-cost metric of experiment E3.
  size_t ApproxBytes() const {
    return std::visit([](const auto& e) { return e.ApproxBytes(); }, engine_);
  }

  StorageKind kind() const {
    return std::visit([](const auto& e) { return e.kind(); }, engine_);
  }

 private:
  std::variant<FullCopyLog<StateT>, DeltaLog<StateT>, CheckpointLog<StateT>,
               ReverseDeltaLog<StateT>>
      engine_;
};

}  // namespace ttra

#endif  // TTRA_STORAGE_LOGS_H_
