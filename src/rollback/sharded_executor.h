#ifndef TTRA_ROLLBACK_SHARDED_EXECUTOR_H_
#define TTRA_ROLLBACK_SHARDED_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rollback/commands.h"
#include "rollback/compact_store.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/vthread.h"

namespace ttra {

/// When a write-ahead log is fsync'ed relative to commit acknowledgement.
enum class SyncPolicy {
  /// Sync before acknowledging every batch: an acknowledged commit is
  /// never lost (the durability the paper's append-only transaction-time
  /// semantics implies).
  kAlways,
  /// Sync once `DurableOptions::batch_size` commits have accumulated on a
  /// shard: bounded loss window, much higher throughput.
  kBatch,
  /// Never sync explicitly; the OS decides. Only the checkpoint is
  /// guaranteed after a crash.
  kNever,
};

std::string_view SyncPolicyName(SyncPolicy policy);

/// How WAL append/sync failures are retried before the executor gives up
/// and degrades. Only kIoError is retried — it is the transient class
/// (a controller hiccup, an interrupted write); kResourceExhausted (disk
/// full) and kCorruption cannot heal on their own and fail immediately.
struct RetryOptions {
  /// Total attempts per WAL operation. 1 = no retry (the default: a
  /// single failure degrades the executor).
  size_t max_attempts = 1;
  /// Backoff before the k-th retry: initial_backoff * 2^k, capped at
  /// max_backoff.
  std::chrono::microseconds initial_backoff{100};
  std::chrono::microseconds max_backoff{10'000};
  /// Injectable sleep so tests drive backoff with a fake clock instead of
  /// wall-clock sleeps. Unset = std::this_thread::sleep_for.
  std::function<void(std::chrono::microseconds)> sleeper;
};

struct DurableOptions {
  /// Inert, like DatabaseOptions itself: set by existing callers, read by
  /// nothing.
  DatabaseOptions db;
  SyncPolicy sync_policy = SyncPolicy::kAlways;
  /// Commits between syncs under SyncPolicy::kBatch.
  size_t batch_size = 32;
  /// Auto-checkpoint (and truncate the WALs) every N commits; 0 = only
  /// when Checkpoint() is called.
  size_t checkpoint_every = 0;
  /// Transient-failure retry policy for WAL appends and syncs.
  RetryOptions retry;
  /// Inert: nothing reads it, because the compact layout is the only
  /// checkpoint format. It is deleted together with its last setter,
  /// ExecutorOptions() in e2ebench/main.cc.
  bool compact_storage = false;
  /// Segment keyframe spacing and probe cache of the checkpoint store.
  CompactOptions compact;
};

/// A sentence as an earlier build's single-writer executor recorded it in
/// "wal.log": the sentence, its submit mode, and the transaction number
/// before it applied.
struct LoggedSentence {
  std::vector<Command> sentence;
  TransactionNumber pre_txn = 0;  ///< transaction number before this apply
  bool atomic = false;
};

/// Decodes one record payload of a legacy single-writer "wal.log" (as
/// returned by ReadWal) into its logged sentences: one for a plain
/// (kind 0) or atomic (kind 1) record, several for a group-commit record
/// (kind 2). Nothing writes these records any more; ShardedExecutor::Start
/// replays them once, when it migrates such a directory, and `ttra fsck`
/// validates them in a directory that has not been migrated yet.
/// Malformed input → kCorruption.
Result<std::vector<LoggedSentence>> DecodeWalRecord(std::string_view record);

// ---------------------------------------------------------------------------
// On-disk layout of a sharded directory
// ---------------------------------------------------------------------------
//
//   dir/MANIFEST           shard count + format version (text, written
//                          once)
//   dir/segments.manifest  one global checkpoint (CompactStore), plus
//   dir/seg-*.seg          one segment file per relation
//   dir/shard-<k>.wal      per-shard write-ahead log, k in [0, shards)
//   dir/coordinator.log    advisory cross-shard commit order (WAL format)
//
// Every log file uses the standard WAL framing (storage/wal.h); the record
// payloads use the kinds below, disjoint from the legacy single-writer
// kinds 0/1/2 so a sharded record fed to DecodeWalRecord fails loudly and
// vice versa.
//
// A directory written by an earlier build's single-writer executor holds
// the same checkpoint plus one "wal.log" of legacy records (and perhaps a
// full-copy "checkpoint.db", which CompactStore::Load migrates). Start()
// migrates it once: see there.

inline constexpr char kShardManifestFile[] = "MANIFEST";
inline constexpr char kCoordinatorLogFile[] = "coordinator.log";
inline constexpr char kLegacyWalFile[] = "wal.log";

/// "shard-<k>.wal".
std::string ShardWalFile(size_t shard);

/// Parses dir/MANIFEST; kCorruption on malformed content.
Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir);

/// Removes every file the executor, an earlier build's single-writer
/// executor or `ttra fsck --repair` writes in `dir`, whatever its layout:
/// a legacy wal.log, the shard WALs, the
/// coordinator log and MANIFEST, the segment manifest and segment files,
/// a legacy checkpoint image, and their `.tmp`/`.quarantine` remains. The
/// next open of `dir` starts from the empty database. Other files and a
/// missing `dir` are left alone.
Status ResetWalDir(Env* env, const std::string& dir);

/// Home shard of a relation identifier: FNV-1a(name) % shards. Exposed so
/// tests and benches can predict (or deliberately spread) placement.
size_t ShardOfName(const std::string& name, size_t shards);

/// Record kinds of the sharded commit protocol.
enum class ShardRecordKind : uint8_t {
  /// Home shard, phase 1: the batch payload under a shard-local sequence
  /// number. Carries no transaction numbers — those are assigned at
  /// commit. [u64 seq][u64 count][count × entry], entry =
  /// [u8 atomic][u64 n][n commands].
  kPrepare = 3,
  /// Home shard, phase 2: fixes the batch's global position.
  /// [u64 seq][u64 base_txn][u64 post_txn]. A batch is committed iff its
  /// commit record is durable; prepare without commit is in-doubt and is
  /// dropped by recovery (it was never acknowledged).
  kCommit = 4,
  /// Non-home shard touched by a cross-shard batch: a durable marker (with
  /// the full payload, for forensics) written before the home shard's
  /// commit record. Replay ignores it — the home prepare is authoritative.
  /// [u64 home_shard][u64 home_seq][u64 count][count × entry].
  kCrossPrepare = 5,
  /// Coordinator log: the global commit order as it happened.
  /// [u64 shard][u64 seq][u64 base_txn][u64 post_txn][u64 count].
  /// Advisory: synced lazily, cross-checked (never required) by recovery.
  kCoordCommit = 6,
};

std::string_view ShardRecordKindName(ShardRecordKind kind);

/// One entry of a batch payload (kPrepare/kCrossPrepare): a sentence plus
/// its submit mode.
struct GroupEntry {
  std::vector<Command> sentence;
  bool atomic = false;
};

/// One decoded record of a shard WAL or the coordinator log. Which fields
/// are meaningful depends on `kind` (see the enum docs).
struct ShardRecord {
  ShardRecordKind kind = ShardRecordKind::kPrepare;
  uint64_t seq = 0;         ///< kPrepare/kCommit: shard-local sequence
  uint64_t shard = 0;       ///< kCoordCommit: home shard
  uint64_t home_shard = 0;  ///< kCrossPrepare: home shard
  uint64_t home_seq = 0;    ///< kCrossPrepare: home sequence
  TransactionNumber base_txn = 0;  ///< kCommit/kCoordCommit
  TransactionNumber post_txn = 0;  ///< kCommit/kCoordCommit
  uint64_t count = 0;              ///< entries in the batch
  std::vector<GroupEntry> entries;  ///< kPrepare/kCrossPrepare payload
};

/// Decodes one sharded WAL record payload; kCorruption on malformed input
/// (including the single-writer kinds 0/1/2, which do not belong here).
Result<ShardRecord> DecodeShardRecord(std::string_view payload);

/// Group-commit accumulation knobs. A batch's leader (a caller waiting on
/// its own sentence, or the shard's writer thread) takes whatever queued
/// while the previous batch was being made durable, up to `max_batch`; it
/// never waits for a batch to fill.
struct GroupCommitOptions {
  /// Most sentences committed per WAL record/sync.
  size_t max_batch = 64;
  /// Bounded per-shard queue depth; producers block (backpressure) beyond
  /// it.
  size_t queue_capacity = 1024;
};

/// A reader session pinned at its opening epoch N (the transaction number
/// of the last group commit published when the session opened). The
/// session holds a shared immutable database snapshot, so every
/// evaluation inside it — ρ(I, n) for any n ≤ N, operator trees via
/// lang::EvalExpr over database() — observes exactly the paper's
/// ρ(·, N) world, no matter how far the writers advance concurrently.
/// This is snapshot isolation derived from the semantics: E⟦·⟧ is
/// side-effect-free, so a pinned (state, transaction-number) pair answers
/// every expression without coordination.
///
/// Sessions are value types: cheap to copy (two words + a refcount) and
/// safe to share across threads — the snapshot is immutable and FINDSTATE
/// caching inside it is internally synchronized.
class Session {
 public:
  TransactionNumber epoch() const { return epoch_; }

  /// The pinned database view, e.g. for lang::EvalExpr. All relation
  /// history up to the epoch is visible; nothing later exists here.
  const Database& database() const { return *snapshot_; }

  /// E⟦ρ(I, n)⟧ at the pinned epoch; nullopt = the session's own epoch
  /// (the snapshot's ∞). A transaction number beyond the epoch is an
  /// invalid-rollback error: that state may not even be committed yet,
  /// and the session's contract is to never observe past its pin.
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  /// E⟦ρ̂(I, n)⟧, same epoch rules.
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

 private:
  friend class ShardedExecutor;
  Session(std::shared_ptr<const Database> snapshot, TransactionNumber epoch)
      : snapshot_(std::move(snapshot)), epoch_(epoch) {}

  std::shared_ptr<const Database> snapshot_;
  TransactionNumber epoch_ = 0;
};

/// Deliberate protocol mutations, reachable only from tests and the model
/// checker (`ttra modelcheck --seeded-bug`). Production code never sets
/// them; they exist so the schedule explorer can prove it detects the class
/// of ordering bug each fault reintroduces.
struct ProtocolFaultsForTests {
  /// Publish + acknowledge a durable batch immediately in MarkBatch,
  /// skipping the commit-order watermark walk. Breaks commit-order
  /// publication: a batch can be published (and acked) while an
  /// earlier-ordered batch is still in flight, so the published snapshot
  /// can step backwards — exactly the bug the watermark exists to prevent.
  bool ack_out_of_order = false;
};

struct ShardedOptions {
  DurableOptions durable;
  GroupCommitOptions group_commit;
  /// Writer shards. A directory remembers the count it was created with
  /// (MANIFEST) and Start() adopts it; this value seeds a fresh directory.
  /// A legacy single-writer directory always migrates to one shard.
  size_t shards = 1;
  /// Coordinator records between opportunistic coordinator syncs (the log
  /// is advisory, so it is never synced on the ack path). Stop() and
  /// Checkpoint() always sync it.
  size_t coordinator_sync_every = 256;
  ProtocolFaultsForTests test_faults;
};

/// The queued commit pipeline, realizing the MVCC split the paper's
/// semantics licenses: arbitrarily many readers evaluate E⟦·⟧ against
/// immutable pinned snapshots (Session), while writer threads serialize
/// C⟦·⟧ through group commit. The database is partitioned by relation
/// identifier (ShardOfName) across N shards, each owning its own WAL file,
/// writer thread, bounded MPSC queue and group-commit loop. In-memory
/// state stays ONE immutable published database chain — the partitioning
/// is of the durability pipeline (encode, append, fsync), which is where a
/// single writer saturates. With `shards = 1` it is the single-writer
/// pipeline: one queue, one writer, one WAL record pair and one fsync per
/// batch.
///
/// Semantics contract:
///  * every committed batch is equivalent to some serial C⟦·⟧ order (the
///    merged commit order, which the shard WALs record verbatim — the
///    differential oracle test replays it through SerialExecutor);
///  * a session pinned at epoch N observes exactly ρ(I, N) for every I:
///    the rollback operator doubles as the snapshot-isolation spec;
///  * an acknowledged sentence (future resolved OK) is durable per the
///    sync policy and visible to every session opened afterwards
///    (read-your-writes: the post-batch snapshot is published before
///    futures resolve).
///
/// Who commits a batch: one batch at a time runs per shard, led by a
/// thread that takes up to `max_batch` queued sentences. A caller blocked
/// on its own sentence (Submit, SubmitAtomic, Drain, get() on a
/// SubmitAsync future) leads when it finds that sentence still queued
/// with nothing queued after it, no batch running on the shard and the
/// shard's writer waiting for work, so an idle log commits on the
/// caller's thread with no handoff. Other callers wait as followers;
/// sentences nobody waits for are committed by the shard's
/// writer thread, which stays as the fallback leader. SubmitAsync itself
/// never leads: a pipelining client must let batches form while it keeps
/// submitting.
///
/// Commit protocol (per batch, on its leader's thread):
///  1. prepare: append the payload to the shard's own WAL under a
///     shard-local sequence number (parallel across shards);
///  1b. cross-shard batches append a durable kCrossPrepare marker to every
///     other touched shard first (two-phase: all participants hold the
///     payload before any commit record exists);
///  2. order: under the global commit lock, apply the batch onto a copy
///     of the chain tip (O(#relations): copies share history) — this
///     assigns the paper's strictly-increasing transaction numbers (they
///     are data-dependent: a failed command consumes none, so positions
///     cannot be pre-reserved) — and append the coordinator record (no
///     sync);
///  3. commit: append [seq, base, post] to the shard's own WAL and sync
///     once — one fsync covers prepare + commit, so a batch costs one
///     fsync on its home shard;
///  4. ack: resolve futures only once every batch with an earlier base is
///     durable (the durability watermark), publishing snapshots in commit
///     order — an acknowledged sentence is durable and every earlier
///     committed sentence is too, so recovery can never lose an acked
///     commit to a gap.
///
/// Recovery merges all shard WALs: committed batches (prepare + commit
/// durable) are sorted by base transaction number and replayed through one
/// database, re-establishing a total order byte-equal to serial execution;
/// in-doubt batches (prepare without commit, or beyond the first gap) are
/// provably unacknowledged and are dropped. The coordinator log is
/// cross-checked where present but never required.
///
/// Lifecycle — Start(), submit/read from any threads, Stop() — must be
/// driven from one owning thread; everything between is thread-safe.
class ShardedExecutor {
 public:
  /// `env` must outlive the executor. Call Start() before submitting.
  ShardedExecutor(Env* env, std::string dir, ShardedOptions options = {});
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Recovers the merged durable state, publishes the initial snapshot and
  /// starts one writer thread per shard. Call again only after Stop().
  ///
  /// A legacy single-writer directory (a "wal.log" is present) is migrated
  /// here, once: load the checkpoint, replay the wal.log records it does
  /// not cover (skipped by pre_txn; a torn tail is dropped, damage in the
  /// middle of the log is refused — `ttra fsck --repair` decides that
  /// cut), write a one-shard MANIFEST if there is none, write the covering
  /// checkpoint, and only then remove wal.log. A crash anywhere before the
  /// removal makes the next Start() repeat the migration, which changes
  /// nothing: every record the checkpoint covers is skipped.
  Status Start();

  /// Closes every queue, commits everything enqueued, waits for any batch
  /// a caller is leading, joins the writers and syncs the coordinator
  /// log. Safe to call twice.
  void Stop();

  /// Routes the sentence to its home shard's queue and wakes the shard's
  /// writer. The answer is the committed transaction number once the
  /// batch is durable per the sync policy AND the durability watermark has
  /// passed it; the command-level error (paper sequencing: partial effects
  /// stand, atomic: no effect); kReadOnly in degraded mode; or
  /// kUnavailable when stopped or failed-stop. Blocks only on a full
  /// home-shard queue (backpressure).
  ///
  /// A queued sentence's future is deferred (std::launch::deferred): its
  /// wait_for/wait_until report future_status::deferred, and get() (or
  /// wait()) waits for the answer on the calling thread — leading the
  /// batch itself if the sentence is still queued and the shard is idle.
  /// The future stays valid after Stop() and after the executor is
  /// destroyed: Stop() answers every queued sentence first.
  std::future<Result<TransactionNumber>> SubmitAsync(
      std::vector<Command> sentence, bool atomic = false);

  /// Submit and wait. The sentence is queued without waking the writer:
  /// on an idle shard the calling thread commits it at once.
  Result<TransactionNumber> Submit(std::vector<Command> sentence);
  Result<TransactionNumber> Submit(Command command);
  Result<TransactionNumber> SubmitAtomic(std::vector<Command> sentence);

  /// Blocks until every sentence enqueued before the call has been
  /// committed (or refused) across all shards, leading batches of those
  /// sentences on the calling thread where a shard is idle.
  Status Drain();

  /// Opens a reader session pinned at the current published epoch. O(1):
  /// shares the immutable published snapshot, no copying.
  Session OpenSession() const;

  /// Epoch of the last published (durable, watermark-passed) commit.
  TransactionNumber transaction_number() const;

  /// Consistent deep copy of the published snapshot.
  Database Snapshot() const;

  /// Quiesces in-flight batches (checkpoint gate), appends one global
  /// incremental manifest record covering every shard, then truncates all
  /// shard WALs and the coordinator log and resets the sequence spaces.
  /// The manifest sync is the commit point, so truncation strictly
  /// follows a durable covering checkpoint.
  Status Checkpoint();

  /// Online segment vacuum: like Checkpoint, but rewrites every segment at
  /// a fresh generation and swaps a one-record full manifest over the
  /// chain. Reader sessions are untouched.
  Status CompactStorage();

  /// The checkpoint store backing the layout (internally synchronized).
  CompactStore* compact_store() { return &compact_; }

  bool healthy() const;

  /// True once a permanent write failure has flipped the executor into
  /// read-only degraded mode: the writers fast-fail every queued and new
  /// sentence with kReadOnly while existing and new reader sessions keep
  /// serving the last published epoch. The way out is Stop() + Start()
  /// (re-recovery from disk) after the storage fault is repaired.
  bool degraded() const;

  /// The write failure that triggered degraded mode (OK when healthy).
  Status degraded_reason() const;

  const std::string& dir() const { return dir_; }
  /// Effective shard count (MANIFEST-adopted after Start()).
  size_t shards() const { return shard_count_; }

  /// What the last Start() found.
  struct RecoveryInfo {
    TransactionNumber checkpoint_txn = 0;
    size_t shards = 0;
    size_t replayed_batches = 0;
    size_t replayed_sentences = 0;
    /// Prepared-but-uncommitted batches plus committed batches stranded
    /// beyond the first base-txn gap — all provably unacknowledged.
    size_t dropped_in_doubt = 0;
    size_t torn_tails = 0;  ///< logs with a torn tail, legacy wal.log included
    /// A legacy wal.log was migrated; its applied sentences are counted in
    /// replayed_sentences.
    bool migrated_legacy_wal = false;
  };
  RecoveryInfo last_recovery() const;

  struct ShardStats {
    uint64_t batches = 0;         ///< group commits homed on this shard
    /// Of those, batches a waiting caller committed on its own thread (the
    /// rest were led by the shard's writer thread).
    uint64_t caller_led_batches = 0;
    uint64_t commits = 0;         ///< sentences committed (or refused)
    uint64_t cross_prepares = 0;  ///< kCrossPrepare markers written here
    WalWriter::Stats wal;         ///< physical I/O (syncs!)
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t batches = 0;
    uint64_t max_batch = 0;
    uint64_t cross_shard_batches = 0;  ///< batches touching >1 shard
    uint64_t rejected_read_only = 0;
    bool degraded = false;
    uint64_t coordinator_records = 0;
    uint64_t coordinator_syncs = 0;
    uint64_t transient_retries = 0;
    uint64_t retry_successes = 0;
    Status last_write_error;
    std::vector<ShardStats> per_shard;
  };
  Stats stats() const;

 private:
  /// One shard's commit queue and leader flag (defined in the .cc). Its
  /// tickets share it, so a future outlives the executor.
  struct Lane;
  /// The answer to one queued sentence, shared by its queue entry and its
  /// future: queued, then taken into a batch, then resolved — all under
  /// its lane's mutex.
  struct Ticket;

  struct Pending {
    std::vector<Command> sentence;
    bool atomic = false;
    std::shared_ptr<Ticket> ticket;
  };

  /// One writer shard: queue, WAL, thread, shard-local sequence space.
  struct Shard {
    std::shared_ptr<Lane> lane;
    ttra::Thread writer;
    Mutex wal_mutex;
    std::unique_ptr<WalWriter> wal TTRA_GUARDED_BY(wal_mutex);
    uint64_t next_seq TTRA_GUARDED_BY(wal_mutex) = 1;
    uint64_t commits_since_sync TTRA_GUARDED_BY(wal_mutex) = 0;
    ShardStats stats TTRA_GUARDED_BY(wal_mutex);
  };

  /// A batch between commit (transaction numbers assigned, chain tip
  /// advanced) and acknowledgement (durable + watermark passed).
  struct Inflight {
    uint64_t commit_index = 0;
    TransactionNumber base = 0;
    TransactionNumber post = 0;
    std::shared_ptr<const Database> snapshot;
    std::vector<Result<TransactionNumber>> results;
    std::vector<std::shared_ptr<Ticket>> tickets;
    bool marked = false;   ///< durability outcome known
    Status io;             ///< OK = durable; error = commit write failed
  };

  void WriterLoop(size_t shard_index);
  /// Queues the sentence on its home lane. A `waiting` caller is about to
  /// block on the answer, so the writer is not woken and, if the lane is
  /// idle, the caller leads a batch right away. Refusals (degraded, not
  /// running) come back as errors.
  Result<std::shared_ptr<Ticket>> Enqueue(std::vector<Command> sentence,
                                          bool atomic, bool waiting);
  /// Waits for the ticket's answer, leading a batch whenever the ticket is
  /// still queued and its lane is idle.
  static Result<TransactionNumber> Await(Ticket& ticket);
  /// Commits a batch Lane::Take() started, on the calling thread, then
  /// marks the lane idle.
  void Lead(Lane& lane, std::vector<Pending>& batch, bool caller_led);
  /// One batch: refused when degraded, else ProcessBatch under the shared
  /// checkpoint gate, then the `checkpoint_every` check.
  void RunBatch(size_t shard_index, std::vector<Pending>& batch,
                bool caller_led) TTRA_EXCLUDES(commit_mutex_);
  void ProcessBatch(size_t shard_index, std::vector<Pending>& batch,
                    bool caller_led) TTRA_EXCLUDES(commit_mutex_);
  /// Appends (with retry) + syncs the kCrossPrepare markers for a
  /// cross-shard batch; returns the first failure.
  Status WriteCrossPrepares(size_t home, uint64_t home_seq,
                            const std::string& entries_blob,
                            const std::vector<bool>& touched);
  /// Records the durability outcome of `commit_index` and advances the
  /// watermark: publishes snapshots and resolves promises, in commit
  /// order, for every leading marked batch.
  void MarkBatch(uint64_t commit_index, Status io)
      TTRA_EXCLUDES(commit_mutex_);
  void RefuseBatch(std::vector<Pending>& batch, const Status& reason)
      TTRA_EXCLUDES(commit_mutex_);
  /// Answers every sentence of `batch` with `status`.
  static void AnswerBatch(const std::vector<Pending>& batch,
                          const Status& status);
  /// Answers the sentences of a batch leaving the in-flight deque.
  static void ResolveInflight(const Inflight& batch,
                              std::vector<Result<TransactionNumber>> results);
  void EnterDegraded(const Status& reason) TTRA_EXCLUDES(commit_mutex_);
  void EnterDegradedLocked(const Status& reason) TTRA_REQUIRES(commit_mutex_);
  /// Fsyncs the advisory coordinator log with no executor mutex held and
  /// books the outcome under commit_mutex_. Callers must either hold the
  /// checkpoint gate (shared) or have quiesced the writers, so the log
  /// cannot be rotated underneath; concurrent appends are fine — fsync
  /// then covers a prefix, which is all lazy sync ever promised.
  void SyncCoordinatorUnlocked() TTRA_EXCLUDES(commit_mutex_);
  Status RetryShardWalOp(Shard& shard, const std::function<Status()>& op,
                         bool reset_tail) TTRA_REQUIRES(shard.wal_mutex);

  /// Recovery: merge shard WALs + coordinator into one database.
  Status Recover(Database& db) TTRA_EXCLUDES(commit_mutex_);

  /// Checkpoint (`compact` false) or CompactStorage (true): quiesce, write
  /// the store, then restart every shard log and the coordinator log.
  Status CheckpointAll(bool compact) TTRA_EXCLUDES(commit_mutex_);

  Env* env_;
  std::string dir_;
  ShardedOptions options_;
  CompactStore compact_;
  size_t shard_count_ = 0;  ///< effective count (MANIFEST-adopted)
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;

  /// Batch leaders hold this shared across prepare → commit → mark, so
  /// holding it exclusively (Checkpoint) means no batch is in flight
  /// anywhere and the watermark equals the chain tip.
  SharedMutex checkpoint_gate_;

  /// The global order lock: transaction-number assignment, the chain tip,
  /// the in-flight deque and the coordinator log live under it. Shard WAL
  /// I/O deliberately does not — that is the parallel part.
  mutable Mutex commit_mutex_;
  std::shared_ptr<const Database> tip_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t next_commit_index_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  std::deque<Inflight> inflight_ TTRA_GUARDED_BY(commit_mutex_);
  std::unique_ptr<WalWriter> coordinator_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t coordinator_unsynced_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t coordinator_syncs_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  bool coordinator_good_ TTRA_GUARDED_BY(commit_mutex_) = true;
  /// Set once a committed batch failed to become durable: every later
  /// batch builds on unreplayable state, so all of them resolve with an
  /// error (the executor is degraded by then).
  bool poisoned_ TTRA_GUARDED_BY(commit_mutex_) = false;
  uint64_t submitted_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t completed_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  CondVar drained_;
  bool degraded_ TTRA_GUARDED_BY(commit_mutex_) = false;
  Status degraded_reason_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t commits_since_checkpoint_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  /// Atomic (not commit_mutex_-guarded): bumped under a shard's wal_mutex,
  /// and wal_mutex → commit_mutex_ would invert the checkpoint order.
  std::atomic<uint64_t> transient_retries_{0};
  std::atomic<uint64_t> retry_successes_{0};
  Status last_write_error_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t stat_commits_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_batches_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_max_batch_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_cross_shard_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t stat_rejected_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  RecoveryInfo last_recovery_ TTRA_GUARDED_BY(commit_mutex_);

  /// Readers touch only this: OpenSession/transaction_number never contend
  /// with the order lock.
  mutable Mutex publish_mutex_;
  std::shared_ptr<const Database> published_ TTRA_GUARDED_BY(publish_mutex_);
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_SHARDED_EXECUTOR_H_
