#ifndef TTRA_ROLLBACK_DURABLE_EXECUTOR_H_
#define TTRA_ROLLBACK_DURABLE_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "rollback/commands.h"
#include "rollback/compact_store.h"
#include "util/mutex.h"
#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "storage/wal.h"

namespace ttra {

/// When the write-ahead log is fsync'ed relative to commit acknowledgement.
enum class SyncPolicy {
  /// Sync before acknowledging every commit: an acknowledged commit is
  /// never lost (the durability the paper's append-only transaction-time
  /// semantics implies).
  kAlways,
  /// Sync every `DurableOptions::batch_size` commits: bounded loss window,
  /// much higher throughput.
  kBatch,
  /// Never sync explicitly; the OS decides. Only the checkpoint is
  /// guaranteed after a crash.
  kNever,
};

std::string_view SyncPolicyName(SyncPolicy policy);

/// How WAL append/sync failures are retried before the executor gives up
/// and fails stop. Only kIoError is retried — it is the transient class
/// (a controller hiccup, an interrupted write); kResourceExhausted (disk
/// full) and kCorruption cannot heal on their own and fail immediately.
struct RetryOptions {
  /// Total attempts per WAL operation. 1 = no retry (the default: a
  /// single failure fails stop, the pre-retry behavior).
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
  /// Auto-checkpoint (and truncate the WAL) every N commits; 0 = only when
  /// Checkpoint() is called.
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

/// A sentence as recorded in the write-ahead log — the unit of the
/// committed order. Exposed so tests and tools (the differential
/// concurrency oracle, `ttra recover` forensics) can read back exactly
/// what the executor committed, in order.
struct LoggedSentence {
  std::vector<Command> sentence;
  TransactionNumber pre_txn = 0;  ///< transaction number before this apply
  bool atomic = false;
};

/// Decodes one WAL record payload (as returned by ReadWal) into its logged
/// sentences: one for a plain Submit/SubmitAtomic record, several for a
/// group-commit record (kind 2, written only by earlier builds' queued
/// executor and still replayed). Malformed input → kCorruption.
Result<std::vector<LoggedSentence>> DecodeWalRecord(std::string_view record);

/// Durable front-end over SerialExecutor: every submitted sentence is
/// appended to a write-ahead log (and, per the sync policy, fsync'ed)
/// *before* it is applied in memory and acknowledged, so the sequence of
/// committed commands — the sole determinant of database state under the
/// paper's C⟦·⟧ semantics — survives a crash.
///
/// On-disk layout in `dir`: the compact checkpoint (CompactStore:
/// segments.manifest plus one segment file per relation) and "wal.log",
/// the commands committed so far. Checkpoints keep the WAL; only
/// CompactStorage() truncates it. Open() recovers: load the checkpoint,
/// replay the WAL records it does not cover (tolerating a torn tail),
/// then re-establish the invariant by appending a checkpoint record that
/// covers the recovered state.
///
/// Replay is deterministic re-execution: a record is applied exactly as it
/// was live (paper sequencing for Submit, all-or-nothing for
/// SubmitAtomic), and records whose pre-commit transaction number is
/// already covered by the checkpoint are skipped.
///
/// After any WAL write failure the executor fails stop: the in-memory
/// state can no longer be proven equal to a replay of the log, so every
/// further submit returns kUnavailable until the executor is reopened
/// (which re-derives the state from disk).
class DurableExecutor {
 public:
  /// `env` must outlive the executor. Call Open() before submitting.
  DurableExecutor(Env* env, std::string dir, DurableOptions options = {});

  DurableExecutor(const DurableExecutor&) = delete;
  DurableExecutor& operator=(const DurableExecutor&) = delete;

  /// Recovers state from `dir` (creating it on first use) and arms the
  /// log. Idempotent; also the way back to health after a fault.
  Status Open();

  /// Durably logs and applies a sentence with the paper's sequencing
  /// semantics (failing commands are no-ops, later ones still run). The
  /// returned transaction number reflects every command that succeeded; a
  /// command-level error is returned after the sentence is already logged
  /// — deterministic replay reproduces the identical partial effect.
  Result<TransactionNumber> Submit(const std::vector<Command>& sentence);
  Result<TransactionNumber> Submit(const Command& command);

  /// Durably logs a sentence and applies it all-or-nothing.
  Result<TransactionNumber> SubmitAtomic(const std::vector<Command>& sentence);

  /// Writes a fresh checkpoint of the current state: an incremental
  /// manifest record. The WAL is retained.
  Status Checkpoint();

  /// Online storage vacuum: rewrites every segment at a fresh generation,
  /// swaps a one-record full manifest over the chain, removes superseded
  /// segments, and truncates the WAL. Holds the commit lock (writes wait)
  /// but readers are untouched.
  Status CompactStorage();

  // Read side (pass-through to the wrapped SerialExecutor).
  Status Read(const std::function<Status(const Database&)>& reader) const {
    return exec_.Read(reader);
  }
  TransactionNumber transaction_number() const {
    return exec_.transaction_number();
  }
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const {
    return exec_.Rollback(name, txn);
  }
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const {
    return exec_.RollbackHistorical(name, txn);
  }
  Database Snapshot() const { return exec_.Snapshot(); }

  /// False after a WAL write failure (submits return kUnavailable).
  bool healthy() const;

  /// Operator-facing health: whether the executor accepts writes, how
  /// hard the retry layer has been working, and what finally tripped
  /// fail-stop.
  struct HealthStats {
    bool healthy = false;
    uint64_t transient_retries = 0;  ///< individual WAL ops retried
    uint64_t retry_successes = 0;    ///< WAL ops that succeeded on a retry
    Status last_write_error;         ///< what tripped fail-stop (OK if none)
  };
  HealthStats health() const;

  /// Physical-I/O accounting of the write-ahead log since Open(): how many
  /// records, appends, and fsyncs the commit stream cost.
  WalWriter::Stats wal_stats() const;

  /// What the last Open() found.
  struct RecoveryInfo {
    TransactionNumber checkpoint_txn = 0;  ///< txn restored from checkpoint
    /// Logged sentences applied on top of the checkpoint; those it
    /// already covers are skipped and not counted.
    size_t replayed_records = 0;
    bool torn_tail = false;                ///< trailing torn record dropped
  };
  RecoveryInfo last_recovery() const;

  std::string wal_path() const { return dir_ + "/wal.log"; }
  const std::string& dir() const { return dir_; }

  /// The checkpoint store backing this executor. It is internally
  /// synchronized, so probes (ρ by interval index over the checkpointed
  /// segments) are safe concurrently with commits.
  CompactStore* compact_store() { return &compact_; }

 private:
  Result<TransactionNumber> SubmitInternal(
      const std::vector<Command>& sentence, bool atomic);
  /// Checkpoint (`compact` false) or storage compaction (true) of the
  /// current state; any failure flips fail-stop.
  Status CheckpointLocked(bool compact) TTRA_REQUIRES(commit_mutex_);
  /// Replays one WAL record onto `db`; returns the number of its logged
  /// sentences that were applied (the rest the checkpoint covers).
  Result<size_t> ReplayRecord(Database& db, std::string_view record);

  /// Runs a WAL operation with the configured bounded-backoff retry.
  /// `reset_tail` cuts the log back to the last good record boundary
  /// before each retry — required for appends, whose failure may leave a
  /// torn frame that would strand the retried record behind a hole.
  Status RetryWalOp(const std::function<Status()>& op, bool reset_tail)
      TTRA_REQUIRES(commit_mutex_);

  /// Records a permanent write failure and flips fail-stop.
  void FailStopLocked(const Status& status) TTRA_REQUIRES(commit_mutex_);

  Env* env_;
  std::string dir_;
  DurableOptions options_;
  SerialExecutor exec_;

  CompactStore compact_;

  // The commit lock serializes the log-before-apply protocol (WAL append,
  // sync bookkeeping, checkpoint scheduling) and the health state it
  // protects. Reads bypass it entirely (SerialExecutor's shared lock).
  mutable Mutex commit_mutex_;
  WalWriter wal_ TTRA_GUARDED_BY(commit_mutex_);
  bool healthy_ TTRA_GUARDED_BY(commit_mutex_) = false;
  size_t commits_since_sync_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  size_t commits_since_checkpoint_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  RecoveryInfo last_recovery_ TTRA_GUARDED_BY(commit_mutex_);
  uint64_t transient_retries_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  uint64_t retry_successes_ TTRA_GUARDED_BY(commit_mutex_) = 0;
  Status last_write_error_ TTRA_GUARDED_BY(commit_mutex_);
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_DURABLE_EXECUTOR_H_
