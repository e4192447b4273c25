#include "rollback/durable_executor.h"

#include <algorithm>
#include <thread>

namespace ttra {

namespace {

enum RecordKind : uint8_t {
  kKindSentence = 0,
  kKindAtomic = 1,
  /// A group-committed batch: [u64 count] followed by `count` entries of
  /// [u8 atomic][u64 pre_txn][u64 n][n commands]. Only read: earlier
  /// builds wrote it from `run --group-commit`, and their directories
  /// must still recover.
  kKindGroup = 2,
};

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::string EncodeRecord(bool atomic, TransactionNumber pre_txn,
                         const std::vector<Command>& sentence) {
  std::string out;
  out.push_back(static_cast<char>(atomic ? kKindAtomic : kKindSentence));
  PutU64(pre_txn, out);
  PutU64(sentence.size(), out);
  for (const Command& command : sentence) EncodeCommand(command, out);
  return out;
}

Result<LoggedSentence> DecodeEntry(ByteReader& reader) {
  LoggedSentence entry;
  TTRA_ASSIGN_OR_RETURN(uint8_t atomic, reader.ReadByte());
  if (atomic > 1) return CorruptionError("invalid group entry mode");
  entry.atomic = atomic != 0;
  TTRA_ASSIGN_OR_RETURN(entry.pre_txn, reader.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  entry.sentence.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Command command, DecodeCommand(reader));
    entry.sentence.push_back(std::move(command));
  }
  return entry;
}

}  // namespace

Result<std::vector<LoggedSentence>> DecodeWalRecord(std::string_view record) {
  ByteReader reader(record);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  std::vector<LoggedSentence> entries;
  if (kind == kKindSentence || kind == kKindAtomic) {
    // Legacy/plain framing: the kind byte doubles as the atomic flag and
    // the entry body follows without its own mode byte.
    LoggedSentence entry;
    entry.atomic = kind == kKindAtomic;
    TTRA_ASSIGN_OR_RETURN(entry.pre_txn, reader.ReadU64());
    TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
    entry.sentence.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      TTRA_ASSIGN_OR_RETURN(Command command, DecodeCommand(reader));
      entry.sentence.push_back(std::move(command));
    }
    entries.push_back(std::move(entry));
  } else if (kind == kKindGroup) {
    TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
    entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      TTRA_ASSIGN_OR_RETURN(LoggedSentence entry, DecodeEntry(reader));
      entries.push_back(std::move(entry));
    }
  } else {
    return CorruptionError("invalid wal record kind");
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes in wal record");
  }
  return entries;
}

std::string_view SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kAlways:
      return "always";
    case SyncPolicy::kBatch:
      return "batch";
    case SyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

DurableExecutor::DurableExecutor(Env* env, std::string dir,
                                 DurableOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      exec_(options.db),
      compact_(env, dir_, options.compact),
      wal_(env, dir_ + "/wal.log") {}

Status DurableExecutor::Open() {
  MutexLock lock(commit_mutex_);
  healthy_ = false;
  last_recovery_ = RecoveryInfo{};
  TTRA_RETURN_IF_ERROR(env_->CreateDir(dir_));

  // Layout detection, the mirror of ShardedExecutor::Start's: a sharded
  // directory (MANIFEST) must not be opened as a single-writer one. Its
  // shard logs would be ignored, and the checkpoint written below is the
  // same segment store the sharded layout reads.
  if (env_->Exists(dir_ + "/MANIFEST")) {
    return InvalidArgumentError(
        dir_ + " holds a sharded layout (MANIFEST); open it with the "
        "sharded executor (`ttra run --group-commit` or `--shards`, "
        "`ttra recover`) or start the single-writer executor in a fresh "
        "directory");
  }

  // 1. Last checkpoint (or the empty database before the first one).
  TTRA_ASSIGN_OR_RETURN(Database db, compact_.Load(options_.db));
  last_recovery_.checkpoint_txn = db.transaction_number();

  // 2. Replay the command suffix the WAL adds on top of it. A torn tail is
  // the expected signature of a crash mid-append and is simply dropped; a
  // record that passes its checksum but does not decode or line up with
  // the transaction sequence is genuine corruption.
  const bool wal_exists = env_->Exists(wal_.path());
  uint64_t wal_valid_size = 0;
  bool wal_torn = false;
  if (wal_exists) {
    TTRA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(*env_, wal_.path()));
    if (wal.records_after_hole > 0) {
      // Intact records lie BEYOND the first damage. Power loss cannot
      // produce that shape — only mid-log corruption can — and replaying
      // just the prefix would silently drop acknowledged commits. Refuse;
      // the operator decides the cut with `ttra fsck --repair`.
      return CorruptionError(
          "wal has mid-log corruption at byte " +
          std::to_string(wal.invalid_offset) + " (" +
          std::string(WalCorruptionCauseName(wal.cause)) + ") with " +
          std::to_string(wal.records_after_hole) +
          " intact record(s) stranded after it; refusing to recover — run "
          "`ttra fsck --repair` to quarantine the damage");
    }
    last_recovery_.torn_tail = wal.torn_tail;
    wal_valid_size = wal.valid_size;
    wal_torn = wal.torn_tail;
    for (const std::string& record : wal.records) {
      TTRA_ASSIGN_OR_RETURN(size_t applied, ReplayRecord(db, record));
      last_recovery_.replayed_records += applied;
    }
  }

  // 3. Re-establish the on-disk invariant: the checkpoint covers the
  // current state. Append an incremental manifest record and KEEP the WAL
  // (replay skips covered records by pre_txn; the retained log is what
  // lets fsck rebuild the exact acked prefix after segment damage) — only
  // CompactStorage() truncates it.
  TTRA_RETURN_IF_ERROR(compact_.WriteCheckpoint(db));
  if (wal_exists) {
    if (wal_torn) {
      TTRA_RETURN_IF_ERROR(env_->TruncateTo(wal_.path(), wal_valid_size));
      TTRA_RETURN_IF_ERROR(env_->Sync(wal_.path()));
    }
    TTRA_RETURN_IF_ERROR(wal_.OpenForAppend());
  } else {
    TTRA_RETURN_IF_ERROR(wal_.Create());
  }

  exec_.Reset(std::move(db));
  commits_since_sync_ = 0;
  commits_since_checkpoint_ = 0;
  last_write_error_ = Status::Ok();
  healthy_ = true;
  return Status::Ok();
}

void DurableExecutor::FailStopLocked(const Status& status) {
  healthy_ = false;
  last_write_error_ = status;
}

Status DurableExecutor::RetryWalOp(const std::function<Status()>& op,
                                   bool reset_tail) {
  const RetryOptions& retry = options_.retry;
  const size_t max_attempts = std::max<size_t>(1, retry.max_attempts);
  std::chrono::microseconds backoff = retry.initial_backoff;
  bool retried = false;
  Status status = op();
  for (size_t attempt = 1; attempt < max_attempts; ++attempt) {
    if (status.ok()) break;
    // Only kIoError is transient. ENOSPC, corruption, etc. cannot heal by
    // waiting, so burning the retry budget on them just delays fail-stop.
    if (status.code() != ErrorCode::kIoError) return status;
    ++transient_retries_;
    retried = true;
    if (retry.sleeper) {
      retry.sleeper(backoff);
    } else {
      std::this_thread::sleep_for(backoff);
    }
    backoff = std::min(backoff * 2, retry.max_backoff);
    if (reset_tail) {
      // A failed append may have left a torn frame; cut back to the last
      // good boundary so the retried record is reachable. If the cut
      // itself fails (the outage is still on), skip the re-append — it
      // would land behind the torn bytes — and spend the attempt.
      if (!wal_.ResetTail().ok()) continue;
    }
    status = op();
  }
  if (status.ok() && retried) ++retry_successes_;
  return status;
}

Result<size_t> DurableExecutor::ReplayRecord(Database& db,
                                             std::string_view record) {
  TTRA_ASSIGN_OR_RETURN(std::vector<LoggedSentence> entries,
                        DecodeWalRecord(record));
  size_t applied = 0;
  for (const LoggedSentence& entry : entries) {
    if (entry.pre_txn < db.transaction_number()) {
      // Already covered by the checkpoint: the WAL is retained across
      // checkpoints.
      continue;
    }
    if (entry.pre_txn > db.transaction_number()) {
      return CorruptionError("gap in command log: record expects txn " +
                             std::to_string(entry.pre_txn) +
                             ", database is at " +
                             std::to_string(db.transaction_number()));
    }
    // Deterministic re-execution, mirroring the live Submit/SubmitAtomic
    // paths; command-level failures repeat exactly as they happened (the
    // non-atomic status was already decided — and possibly acked — at
    // commit time, so replay drops it on purpose).
    if (!entry.atomic) {
      ApplySentence(db, entry.sentence).IgnoreError();
    } else {
      Database scratch = db;
      if (ApplySentence(scratch, entry.sentence).ok()) db = std::move(scratch);
    }
    ++applied;
  }
  return applied;
}

Result<TransactionNumber> DurableExecutor::SubmitInternal(
    const std::vector<Command>& sentence, bool atomic) {
  MutexLock lock(commit_mutex_);
  if (!healthy_) {
    return UnavailableError(
        "durable executor is failed-stop after an I/O error; reopen to "
        "recover");
  }

  // Log first: once the record is (per policy) on disk, applying it is
  // deterministic, so memory and log cannot diverge. Transient append
  // failures are retried after cutting any torn frame back.
  const TransactionNumber pre_txn = exec_.transaction_number();
  const std::string record = EncodeRecord(atomic, pre_txn, sentence);
  Status status = RetryWalOp([this, &record]() TTRA_REQUIRES(commit_mutex_) {
    return wal_.AddRecord(record);
  }, /*reset_tail=*/true);
  if (!status.ok()) {
    FailStopLocked(status);
    return status;
  }
  ++commits_since_sync_;
  const bool sync_now =
      options_.sync_policy == SyncPolicy::kAlways ||
      (options_.sync_policy == SyncPolicy::kBatch &&
       commits_since_sync_ >= options_.batch_size);
  if (sync_now) {
    status = RetryWalOp([this]() TTRA_REQUIRES(commit_mutex_) {
      return wal_.Sync();
    }, /*reset_tail=*/false);
    if (!status.ok()) {
      FailStopLocked(status);
      return status;
    }
    commits_since_sync_ = 0;
  }

  const auto body = [&sentence](Database& db) {
    return ApplySentence(db, sentence);
  };
  Result<TransactionNumber> result =
      atomic ? exec_.SubmitAtomic(body) : exec_.Submit(body);

  ++commits_since_checkpoint_;
  if (options_.checkpoint_every != 0 &&
      commits_since_checkpoint_ >= options_.checkpoint_every) {
    // The sentence is durable and applied whatever happens here; a failed
    // checkpoint flips fail-stop inside, so later submits see it.
    CheckpointLocked(/*compact=*/false).IgnoreError();
  }
  return result;
}

Result<TransactionNumber> DurableExecutor::Submit(
    const std::vector<Command>& sentence) {
  return SubmitInternal(sentence, /*atomic=*/false);
}

Result<TransactionNumber> DurableExecutor::Submit(const Command& command) {
  return SubmitInternal({command}, /*atomic=*/false);
}

Result<TransactionNumber> DurableExecutor::SubmitAtomic(
    const std::vector<Command>& sentence) {
  return SubmitInternal(sentence, /*atomic=*/true);
}

Status DurableExecutor::CheckpointLocked(bool compact) {
  // A checkpoint appends an incremental manifest record and KEEPS the WAL.
  // A compaction swaps in a full manifest that covers every committed
  // transaction before the WAL restarts empty, so a crash between the two
  // replays WAL records the manifest already covers (skipped by pre_txn).
  // Any failure leaves the manifest writer or the WAL in an unknown state
  // (a torn record would strand later appends behind a hole), so it flips
  // fail-stop; reopening re-arms from the validated prefix.
  const Database db = exec_.Snapshot();
  Status status = compact ? compact_.Compact(db) : compact_.WriteCheckpoint(db);
  if (status.ok() && compact) {
    status = wal_.Create();
    commits_since_sync_ = 0;
  }
  if (!status.ok()) {
    FailStopLocked(status);
    return status;
  }
  commits_since_checkpoint_ = 0;
  return Status::Ok();
}

Status DurableExecutor::Checkpoint() {
  MutexLock lock(commit_mutex_);
  if (!healthy_) {
    return UnavailableError("durable executor needs recovery; reopen");
  }
  return CheckpointLocked(/*compact=*/false);
}

Status DurableExecutor::CompactStorage() {
  MutexLock lock(commit_mutex_);
  if (!healthy_) {
    return UnavailableError("durable executor needs recovery; reopen");
  }
  return CheckpointLocked(/*compact=*/true);
}

bool DurableExecutor::healthy() const {
  MutexLock lock(commit_mutex_);
  return healthy_;
}

DurableExecutor::HealthStats DurableExecutor::health() const {
  MutexLock lock(commit_mutex_);
  HealthStats stats;
  stats.healthy = healthy_;
  stats.transient_retries = transient_retries_;
  stats.retry_successes = retry_successes_;
  stats.last_write_error = last_write_error_;
  return stats;
}

WalWriter::Stats DurableExecutor::wal_stats() const {
  MutexLock lock(commit_mutex_);
  return wal_.stats();
}

DurableExecutor::RecoveryInfo DurableExecutor::last_recovery() const {
  MutexLock lock(commit_mutex_);
  return last_recovery_;
}

}  // namespace ttra
