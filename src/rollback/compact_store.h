#ifndef TTRA_ROLLBACK_COMPACT_STORE_H_
#define TTRA_ROLLBACK_COMPACT_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rollback/database.h"
#include "storage/env.h"
#include "storage/segment.h"
#include "util/mutex.h"

namespace ttra {

/// Compact checkpoint store (DESIGN.md §16), the one checkpoint format
/// both durable executors write: the efficient implementation the
/// paper's claim (iii) anticipates, proved equivalent to the
/// full-state-copy semantics by the compact-storage oracle suite. Instead
/// of rewriting the whole database, every state in full, on every
/// checkpoint, the store keeps
///
///   * one delta-encoded *segment file* per relation (keyframes +
///     insert/delete tuple deltas, each entry WAL-framed and
///     checksummed), and
///   * `segments.manifest`, a WAL-framed log of checkpoint records. Each
///     record is *incremental* — it names only the relations dirtied
///     since the previous record — and chains back to the last *full*
///     record. Appending the manifest record is the checkpoint's commit
///     point.
///
/// The manifest also persists each relation's keyframe interval index,
/// so ρ(I, N) over a checkpointed relation resolves by index probe +
/// short replay (ProbeSnapshot/ProbeHistorical) without loading the
/// database. Online compaction (`Compact`) rewrites every segment at a
/// fresh generation and atomically swaps a one-record manifest over the
/// old chain; concurrent probes retry onto the new generation, and
/// epoch-pinned readers are untouched (their snapshots are in memory).
///
/// Directories written before this layout became the only one hold a
/// full-copy kLegacyCheckpointFile instead. Load reads it once when no
/// manifest exists; the first manifest commit after that removes it.

/// Small thread-safe LRU of decoded states, keyed by segment entry
/// ordinal: the probe-side FINDSTATE cache of a compact segment. Probes of
/// one relation may run concurrently, hence the internal mutex. Segment
/// entries are immutable once written and a rewritten segment gets a fresh
/// cache, so a cached ordinal always names the state cached under it. A
/// copy copies the (at most `capacity`) cached references. A capacity of 0
/// disables caching entirely.
template <typename StateT>
class FindStateCache {
 public:
  explicit FindStateCache(size_t capacity) : capacity_(capacity) {}

  FindStateCache(const FindStateCache& other) : capacity_(other.capacity_) {
    MutexLock lock(other.mutex_);
    slots_ = other.slots_;
    clock_ = other.clock_;
  }
  FindStateCache& operator=(const FindStateCache&) = delete;

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

  /// The cached entry with the greatest index <= `index` (a replay seed),
  /// or nullopt.
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

  /// Caches `state` under `index`, evicting the least recently used slot
  /// when full.
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

 private:
  struct Slot {
    size_t index = 0;
    std::shared_ptr<const StateT> state;
    uint64_t stamp = 0;
  };

  const size_t capacity_;
  mutable Mutex mutex_;
  mutable std::vector<Slot> slots_ TTRA_GUARDED_BY(mutex_);
  mutable uint64_t clock_ TTRA_GUARDED_BY(mutex_) = 0;
};

struct CompactOptions {
  /// A keyframe every this many segment entries (and on schema change).
  /// Bounds FINDSTATE replay length; smaller trades bytes for latency.
  size_t keyframe_interval = 16;
  /// Capacity of each relation's probe-side FINDSTATE cache (0 disables).
  size_t probe_cache_capacity = 8;
};

class CompactStore {
 public:
  CompactStore(Env* env, std::string dir, CompactOptions options = {});

  std::string manifest_path() const { return dir_ + "/" + kCompactManifestFile; }
  std::string segment_path(const std::string& name, uint64_t generation) const {
    return dir_ + "/" + SegmentFileName(name, generation);
  }

  /// Loads the database of the latest checkpoint: folds the manifest
  /// chain, decodes every covered segment prefix, and re-arms the store
  /// for appending. Damage inside the covered region (missing segment,
  /// short prefix, bit rot) fails with kCorruption and an fsck hint.
  /// Without a manifest: the legacy checkpoint image if one exists (the
  /// next WriteCheckpoint or Compact migrates it), else the empty
  /// database.
  Result<Database> Load(const DatabaseOptions& options);

  /// Incremental checkpoint: appends the states/schemas recorded since
  /// the covered watermark for each dirtied relation, then appends one
  /// manifest record (the commit point). A no-op when nothing changed.
  /// The first record after a legacy Load is full and removes the legacy
  /// image. Serialized by the caller (the executor's commit lock).
  Status WriteCheckpoint(const Database& db);

  /// Online vacuum: rewrites every live relation into a fresh-generation
  /// segment with fresh keyframes, atomically swaps a one-record full
  /// manifest over the chain, and removes superseded segment files.
  /// Readers of the old generation retry onto the new one.
  Status Compact(const Database& db);

  /// ρ(I, N) by interval-index probe over the on-disk segments, without
  /// loading the database: floor entry by index probe + header walk, then
  /// a short replay from the governing keyframe — or from the FINDSTATE
  /// cache (keyed by entry ordinal; a hit skips all body decoding).
  /// Serves the transaction-time range covered by the last checkpoint.
  Result<SnapshotState> ProbeSnapshot(const std::string& name,
                                      TransactionNumber txn);
  Result<HistoricalState> ProbeHistorical(const std::string& name,
                                          TransactionNumber txn);

  struct Stats {
    uint64_t checkpoints = 0;
    uint64_t full_records = 0;
    uint64_t relations_written = 0;
    uint64_t entries_appended = 0;
    uint64_t compactions = 0;
    uint64_t probes = 0;
    uint64_t probe_cache_hits = 0;
    uint64_t probe_decoded_entries = 0;
  };
  Stats stats() const;

  /// Transaction counter as of the last checkpoint record.
  TransactionNumber checkpoint_txn() const;

  /// Bytes retained by the layout: manifest + covered segment prefixes.
  uint64_t ApproxBytes() const;

 private:
  struct RelationEntry {
    ManifestRelation meta;
    /// Delta base for the next append — the state of the last covered
    /// entry (copy-on-write; exactly one is set, matching state_kind).
    std::shared_ptr<const SnapshotState> snapshot_last;
    std::shared_ptr<const HistoricalState> historical_last;
    /// Probe-side FINDSTATE caches, keyed by entry ordinal; shared so a
    /// probe can use them after the entry itself was re-installed.
    std::shared_ptr<FindStateCache<SnapshotState>> snapshot_cache;
    std::shared_ptr<FindStateCache<HistoricalState>> historical_cache;
  };

  RelationEntry FreshEntry() const;

  /// Removes the legacy checkpoint image and its temp file once a
  /// manifest record covers their state; a no-op unless Load found one.
  void RemoveLegacyCheckpoint();

  /// Copy-then-swap: writes `record` aside as a complete one-record
  /// manifest, makes it durable, atomically renames it over the manifest
  /// and re-arms the appender. A crash on either side leaves one
  /// consistent chain (or none, before the first checkpoint).
  Status SwapInManifest(const ManifestRecord& record);

  /// Appends rel's uncovered suffix to its segment, rewriting the whole
  /// segment at a fresh generation when the watermark no longer matches
  /// the live history (e.g. an archival vacuum shrank it).
  Status PersistRelation(const std::string& name, const Relation& rel,
                         RelationEntry& entry, bool force_rewrite,
                         uint64_t* appended);

  template <typename StateT>
  Status PersistStates(const std::string& name, const Relation& rel,
                       RelationEntry& entry, bool force_rewrite,
                       uint64_t* appended);

  template <typename StateT>
  Result<StateT> ProbeState(
      const std::string& name, TransactionNumber txn,
      SegmentStateKind expected_kind,
      std::shared_ptr<FindStateCache<StateT>> RelationEntry::* cache);

  Env* env_;
  const std::string dir_;
  const CompactOptions options_;

  /// Guards the in-memory mirror of the manifest; never held across IO.
  /// Writers (Load/WriteCheckpoint/Compact) are additionally serialized
  /// by the executor's commit lock; probes only copy state under it.
  mutable Mutex mutex_;
  std::map<std::string, RelationEntry> relations_ TTRA_GUARDED_BY(mutex_);
  TransactionNumber db_txn_ TTRA_GUARDED_BY(mutex_) = 0;
  uint64_t next_sequence_ TTRA_GUARDED_BY(mutex_) = 1;
  uint64_t next_generation_ TTRA_GUARDED_BY(mutex_) = 0;
  uint64_t manifest_bytes_ TTRA_GUARDED_BY(mutex_) = 0;
  bool armed_ TTRA_GUARDED_BY(mutex_) = false;
  /// Set by a Load that found a legacy checkpoint image (or its temp
  /// file); cleared once a committed manifest record supersedes it.
  /// Write-path only, like manifest_.
  bool legacy_checkpoint_ = false;
  Stats stats_ TTRA_GUARDED_BY(mutex_);

  /// Appender for the manifest log; used only on the (serialized) write
  /// path, positioned by Load/WriteCheckpoint/Compact.
  WalWriter manifest_;
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_COMPACT_STORE_H_
