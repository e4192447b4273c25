#include "rollback/sharded_executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "rollback/persistence.h"
#include "storage/state_log.h"

namespace ttra {

namespace {

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

const std::string& CommandName(const Command& command) {
  return std::visit(
      [](const auto& cmd) -> const std::string& { return cmd.name; }, command);
}

/// The batch-entry encoding of the sharded protocol:
/// [u8 atomic][u64 n][n commands]. Unlike the single-writer group format
/// it carries NO pre-commit transaction number — positions are assigned at
/// commit, after prepare is already on disk.
void EncodeShardEntry(const GroupEntry& entry, std::string& out) {
  out.push_back(static_cast<char>(entry.atomic ? 1 : 0));
  PutU64(entry.sentence.size(), out);
  for (const Command& command : entry.sentence) EncodeCommand(command, out);
}

Result<GroupEntry> DecodeShardEntry(ByteReader& reader) {
  GroupEntry entry;
  TTRA_ASSIGN_OR_RETURN(uint8_t atomic, reader.ReadByte());
  if (atomic > 1) return CorruptionError("invalid shard entry mode");
  entry.atomic = atomic != 0;
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  entry.sentence.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Command command, DecodeCommand(reader));
    entry.sentence.push_back(std::move(command));
  }
  return entry;
}

/// [u64 count][count × entry] — the payload of a prepare record (and of
/// the cross-prepare copies earlier builds wrote).
Status DecodeEntriesBlob(ByteReader& reader, ShardRecord& record) {
  TTRA_ASSIGN_OR_RETURN(record.count, reader.ReadCount());
  record.entries.reserve(record.count);
  for (uint64_t i = 0; i < record.count; ++i) {
    TTRA_ASSIGN_OR_RETURN(GroupEntry entry, DecodeShardEntry(reader));
    record.entries.push_back(std::move(entry));
  }
  return Status::Ok();
}

std::string EncodePrepare(uint64_t seq,
                          const std::vector<GroupEntry>& entries) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kPrepare));
  PutU64(seq, out);
  PutU64(entries.size(), out);
  for (const GroupEntry& entry : entries) EncodeShardEntry(entry, out);
  return out;
}

std::string EncodeCommit(uint64_t seq, TransactionNumber base,
                         TransactionNumber post) {
  std::string out;
  out.push_back(static_cast<char>(ShardRecordKind::kCommit));
  PutU64(seq, out);
  PutU64(base, out);
  PutU64(post, out);
  return out;
}

/// Before a modify_state decoded from a log applies: its state shares
/// every row the relation's current state holds identically (ShareRows),
/// so a replayed history holds what the live one and a checkpoint load of
/// the same history hold, not a fresh payload per row and version.
void ShareCurrentRows(const Database& db, Command& command) {
  std::visit(
      [&db](auto& cmd) {
        using T = std::decay_t<decltype(cmd)>;
        if constexpr (std::is_same_v<T, ModifySnapshotCmd> ||
                      std::is_same_v<T, ModifyHistoricalCmd>) {
          const Relation* relation = db.Find(cmd.name);
          if (relation == nullptr) return;
          const TransactionNumber now = db.transaction_number();
          auto current = [&] {
            if constexpr (std::is_same_v<T, ModifySnapshotCmd>) {
              return relation->SnapshotAt(now);
            } else {
              return relation->HistoricalAt(now);
            }
          }();
          if (current.ok()) cmd.state = ShareRows(*current, cmd.state);
        }
      },
      command);
}

/// Deterministic re-execution of one batch entry, mirroring the live
/// apply (paper sequencing vs all-or-nothing) — shared by the commit path,
/// recovery and the legacy migration so they cannot diverge. A `replayed`
/// sentence was decoded from a log: each command shares its relation's
/// current rows just before it applies (ShareCurrentRows).
void ApplyEntry(Database& db, std::vector<Command>& sentence, bool atomic,
                bool replayed, Result<TransactionNumber>* result) {
  auto apply = [&sentence, replayed](Database& target) {
    if (!replayed) return ApplySentence(target, sentence);
    Status first_error;
    for (Command& command : sentence) {
      ShareCurrentRows(target, command);
      Status status = ApplyCommand(target, command);
      if (!status.ok() && first_error.ok()) first_error = status;
    }
    return first_error;
  };
  Status applied;
  if (atomic) {
    Database scratch = db;
    applied = apply(scratch);
    if (applied.ok()) db = std::move(scratch);
  } else {
    applied = apply(db);
  }
  if (result != nullptr) {
    if (applied.ok()) {
      *result = db.transaction_number();
    } else {
      *result = applied;
    }
  }
}

Status MidLogCorruption(const std::string& path, const WalReadResult& wal) {
  return CorruptionError(
      path + " has mid-log corruption at byte " +
      std::to_string(wal.invalid_offset) + " (" +
      std::string(WalCorruptionCauseName(wal.cause)) + ") with " +
      std::to_string(wal.records_after_hole) +
      " intact record(s) stranded after it; refusing to recover — run "
      "`ttra fsck --repair` to quarantine the damage");
}

/// Record kinds of the legacy single-writer wal.log. Only read: earlier
/// builds wrote them, and their directories must still migrate.
enum RecordKind : uint8_t {
  /// [u8 0][u64 pre_txn][u64 n][n commands], paper sequencing.
  kKindSentence = 0,
  /// The same body, applied all-or-nothing.
  kKindAtomic = 1,
  /// A group-committed batch: [u64 count] followed by `count` entries of
  /// [u8 atomic][u64 pre_txn][u64 n][n commands].
  kKindGroup = 2,
};

Result<LoggedSentence> DecodeLoggedSentence(ByteReader& reader, bool atomic) {
  LoggedSentence entry;
  entry.atomic = atomic;
  TTRA_ASSIGN_OR_RETURN(entry.pre_txn, reader.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  entry.sentence.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Command command, DecodeCommand(reader));
    entry.sentence.push_back(std::move(command));
  }
  return entry;
}

/// What replaying a legacy wal.log did.
struct LegacyReplay {
  size_t applied = 0;  ///< logged sentences applied (not covered)
  bool torn_tail = false;
};

/// Replays the legacy wal.log at `path` onto `db`, exactly as the
/// single-writer executor re-executed it: a logged sentence whose pre_txn
/// the database has passed is covered by the checkpoint and skipped; one
/// that expects a later transaction is a gap, i.e. corruption. A torn tail
/// is the crash signature and is dropped; intact records beyond damage
/// are refused, because replaying only the prefix would silently drop
/// acknowledged commits.
Result<LegacyReplay> ReplayLegacyWal(const Env& env, const std::string& path,
                                     Database& db) {
  TTRA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(env, path));
  if (wal.records_after_hole > 0) return MidLogCorruption(path, wal);
  LegacyReplay replay;
  replay.torn_tail = wal.torn_tail;
  for (const std::string& record : wal.records) {
    TTRA_ASSIGN_OR_RETURN(std::vector<LoggedSentence> entries,
                          DecodeWalRecord(record));
    for (LoggedSentence& entry : entries) {
      if (entry.pre_txn < db.transaction_number()) continue;
      if (entry.pre_txn > db.transaction_number()) {
        return CorruptionError("gap in " + path + ": record expects txn " +
                               std::to_string(entry.pre_txn) +
                               ", database is at " +
                               std::to_string(db.transaction_number()));
      }
      ApplyEntry(db, entry.sentence, entry.atomic, /*replayed=*/true,
                 nullptr);
      ++replay.applied;
    }
  }
  return replay;
}

}  // namespace

Result<std::vector<LoggedSentence>> DecodeWalRecord(std::string_view record) {
  ByteReader reader(record);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  std::vector<LoggedSentence> entries;
  if (kind == kKindSentence || kind == kKindAtomic) {
    // The kind byte doubles as the atomic flag; the body has no mode byte.
    TTRA_ASSIGN_OR_RETURN(LoggedSentence entry,
                          DecodeLoggedSentence(reader, kind == kKindAtomic));
    entries.push_back(std::move(entry));
  } else if (kind == kKindGroup) {
    TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
    entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      TTRA_ASSIGN_OR_RETURN(uint8_t atomic, reader.ReadByte());
      if (atomic > 1) return CorruptionError("invalid group entry mode");
      TTRA_ASSIGN_OR_RETURN(LoggedSentence entry,
                            DecodeLoggedSentence(reader, atomic != 0));
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

std::string ShardWalFile(size_t shard) {
  return "shard-" + std::to_string(shard) + ".wal";
}

namespace {

/// True for a file name ResetWalDir sweeps (see its contract).
bool IsStorageFileName(std::string_view name) {
  for (std::string_view suffix : {".quarantine", ".tmp"}) {
    if (name.size() > suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      name.remove_suffix(suffix.size());
      break;
    }
  }
  for (std::string_view fixed :
       {std::string_view(kLegacyWalFile),
        std::string_view(kLegacyCheckpointFile),
        std::string_view(kCompactManifestFile),
        std::string_view(kShardManifestFile),
        std::string_view(kCoordinatorLogFile)}) {
    if (name == fixed) return true;
  }
  constexpr std::string_view kShardPrefix = "shard-";
  constexpr std::string_view kShardSuffix = ".wal";
  if (name.size() > kShardPrefix.size() + kShardSuffix.size() &&
      name.substr(0, kShardPrefix.size()) == kShardPrefix &&
      name.substr(name.size() - kShardSuffix.size()) == kShardSuffix) {
    const std::string_view number = name.substr(
        kShardPrefix.size(),
        name.size() - kShardPrefix.size() - kShardSuffix.size());
    return number.find_first_not_of("0123456789") == std::string_view::npos;
  }
  return IsSegmentFileName(name);
}

}  // namespace

Status ResetWalDir(Env* env, const std::string& dir) {
  Result<std::vector<std::string>> files = env->List(dir);
  if (!files.ok()) return env->Exists(dir) ? files.status() : Status::Ok();
  for (const std::string& file : *files) {
    if (IsStorageFileName(file)) {
      TTRA_RETURN_IF_ERROR(env->Remove(dir + "/" + file));
    }
  }
  return Status::Ok();
}

size_t ShardOfName(const std::string& name, size_t shards) {
  if (shards <= 1) return 0;
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a prime
  }
  return static_cast<size_t>(hash % shards);
}

std::string_view ShardRecordKindName(ShardRecordKind kind) {
  switch (kind) {
    case ShardRecordKind::kPrepare:
      return "prepare";
    case ShardRecordKind::kCommit:
      return "commit";
    case ShardRecordKind::kCrossPrepare:
      return "cross-prepare";
  }
  return "unknown";
}

Result<ShardRecord> DecodeShardRecord(std::string_view payload) {
  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  ShardRecord record;
  switch (kind) {
    case static_cast<uint8_t>(ShardRecordKind::kPrepare): {
      record.kind = ShardRecordKind::kPrepare;
      TTRA_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
      TTRA_RETURN_IF_ERROR(DecodeEntriesBlob(reader, record));
      break;
    }
    case static_cast<uint8_t>(ShardRecordKind::kCommit): {
      record.kind = ShardRecordKind::kCommit;
      TTRA_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.base_txn, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(record.post_txn, reader.ReadU64());
      break;
    }
    case static_cast<uint8_t>(ShardRecordKind::kCrossPrepare): {
      record.kind = ShardRecordKind::kCrossPrepare;
      TTRA_RETURN_IF_ERROR(reader.ReadU64().status());  // home shard
      TTRA_RETURN_IF_ERROR(reader.ReadU64().status());  // home seq
      TTRA_RETURN_IF_ERROR(DecodeEntriesBlob(reader, record));
      break;
    }
    default:
      return CorruptionError("invalid sharded wal record kind " +
                             std::to_string(kind));
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes in sharded wal record");
  }
  return record;
}

Result<SnapshotState> Session::Rollback(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  if (txn.has_value() && *txn > epoch_) {
    return InvalidRollbackError("transaction " + std::to_string(*txn) +
                                " is beyond this session's epoch " +
                                std::to_string(epoch_));
  }
  return snapshot_->Rollback(name, txn);
}

Result<HistoricalState> Session::RollbackHistorical(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  if (txn.has_value() && *txn > epoch_) {
    return InvalidRollbackError("transaction " + std::to_string(*txn) +
                                " is beyond this session's epoch " +
                                std::to_string(epoch_));
  }
  return snapshot_->RollbackHistorical(name, txn);
}

struct ShardedExecutor::Lane {
  Lane(ShardedExecutor* owner, size_t shard, const GroupCommitOptions& options)
      : owner(owner),
        shard(shard),
        max_batch(std::max<size_t>(1, options.max_batch)) {}

  /// Queue depth bound: a producer blocks (backpressure) while this many
  /// sentences are queued on the lane.
  static constexpr size_t kCapacity = 1024;

  /// Valid whenever a ticket is queued or a batch is running here: Stop()
  /// returns only once neither is true, and a lane outlives its executor
  /// only through the tickets of answered sentences.
  ShardedExecutor* const owner;
  const size_t shard;
  const size_t max_batch;

  Mutex mutex;
  CondVar work;      ///< writer: a sentence to commit, or closed
  CondVar done;      ///< waiters: a ticket was answered or the lane idles
  CondVar not_full;  ///< producers: space in the queue
  std::deque<Pending> items TTRA_GUARDED_BY(mutex);
  bool leading TTRA_GUARDED_BY(mutex) = false;  ///< a batch is running
  /// The writer thread is waiting for work (or not started yet). While it
  /// is between batches instead, it is about to take what is queued, and
  /// a caller lets it: a pipelining client keeps submitting meanwhile.
  bool writer_idle TTRA_GUARDED_BY(mutex) = true;
  bool closed TTRA_GUARDED_BY(mutex) = false;
  uint64_t pushed TTRA_GUARDED_BY(mutex) = 0;  ///< sentences ever queued
  uint64_t taken TTRA_GUARDED_BY(mutex) = 0;   ///< ...and taken into batches

  /// A waiting caller may lead: no batch runs and the writer is waiting
  /// for work, not about to take the queue itself.
  bool Idle() const TTRA_REQUIRES(mutex) { return !leading && writer_idle; }
  /// Starts a batch on the idle lane: takes up to max_batch sentences
  /// from the front and marks the lane busy. The caller commits them with
  /// the mutex released, then calls Finish().
  std::vector<Pending> Take() TTRA_REQUIRES(mutex);
  /// Marks the lane idle again and wakes whoever may lead next.
  void Finish() TTRA_EXCLUDES(mutex);
  /// Answers `tickets` (all of this lane) with `results`, in order.
  void Resolve(const std::vector<std::shared_ptr<Ticket>>& tickets,
               std::vector<Result<TransactionNumber>> results);
};

struct ShardedExecutor::Ticket {
  explicit Ticket(std::shared_ptr<Lane> lane) : lane(std::move(lane)) {}

  const std::shared_ptr<Lane> lane;
  /// The lane's `pushed` count once this sentence was queued.
  uint64_t position TTRA_GUARDED_BY(lane->mutex) = 0;
  bool taken TTRA_GUARDED_BY(lane->mutex) = false;
  std::optional<Result<TransactionNumber>> answer TTRA_GUARDED_BY(
      lane->mutex);
};

std::vector<ShardedExecutor::Pending> ShardedExecutor::Lane::Take() {
  const size_t take = std::min(max_batch, items.size());
  std::vector<Pending> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    items.front().ticket->taken = true;
    batch.push_back(std::move(items.front()));
    items.pop_front();
  }
  taken += take;
  leading = true;
  not_full.SignalAll();
  return batch;
}

void ShardedExecutor::Lane::Finish() {
  MutexLock lock(mutex);
  leading = false;
  // The writer takes what is left unless a waiter gets there first; a
  // closing lane's writer is waiting for exactly this.
  if (!items.empty() || closed) work.Signal();
  done.SignalAll();
}

void ShardedExecutor::Lane::Resolve(
    const std::vector<std::shared_ptr<Ticket>>& tickets,
    std::vector<Result<TransactionNumber>> results) {
  MutexLock lock(mutex);
  for (size_t i = 0; i < tickets.size(); ++i) {
    tickets[i]->answer = std::move(results[i]);
  }
  done.SignalAll();
}

namespace {

/// `n` copies of one answer, for a batch refused or lost as a whole.
std::vector<Result<TransactionNumber>> Answers(size_t n, const Status& status) {
  return std::vector<Result<TransactionNumber>>(n, status);
}

}  // namespace

ShardedExecutor::ShardedExecutor(Env* env, std::string dir,
                                 ShardedOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      compact_(env, dir_, options.durable.compact) {
  options_.shards = std::max<size_t>(1, options_.shards);
}

ShardedExecutor::~ShardedExecutor() { Stop(); }

Status ShardedExecutor::Start() {
  if (started_) return Status::Ok();
  TTRA_RETURN_IF_ERROR(env_->CreateDir(dir_));

  // Layout detection. A MANIFEST fixes the shard count: records are
  // already routed by hash-mod-N, so reopening with a different N would
  // misfile every future commit. A legacy single-writer wal.log is
  // migrated into one shard (see the header); its MANIFEST is written only
  // once its records are replayed, so a refused migration leaves the
  // directory as it was for `ttra fsck`.
  const std::string manifest_path = dir_ + "/" + kShardManifestFile;
  const std::string legacy_wal = dir_ + "/" + kLegacyWalFile;
  const bool has_manifest = env_->Exists(manifest_path);
  const bool migrate = env_->Exists(legacy_wal);
  size_t shards = migrate ? 1 : options_.shards;
  if (has_manifest) {
    TTRA_ASSIGN_OR_RETURN(uint32_t manifest_shards,
                          ReadShardManifest(*env_, dir_));
    shards = manifest_shards;
  } else if (shards > kMaxShards) {
    // Its MANIFEST would be refused by every later open.
    return InvalidArgumentError("at most " + std::to_string(kMaxShards) +
                                " shards");
  }
  shard_count_ = shards;

  shards_.clear();
  for (size_t k = 0; k < shard_count_; ++k) {
    auto shard = std::make_unique<Shard>();
    MutexLock lock(shard->wal_mutex);
    shard->wal =
        std::make_unique<WalWriter>(env_, dir_ + "/" + ShardWalFile(k));
    shards_.push_back(std::move(shard));
  }

  // Merged recovery: checkpoint, the legacy wal.log if any (it predates
  // every shard record), then every shard WAL re-establish one total
  // order.
  TTRA_ASSIGN_OR_RETURN(Database db, compact_.Load(options_.durable.db));
  const TransactionNumber checkpoint_txn = db.transaction_number();
  LegacyReplay legacy;
  if (migrate) {
    TTRA_ASSIGN_OR_RETURN(legacy, ReplayLegacyWal(*env_, legacy_wal, db));
  }
  TTRA_RETURN_IF_ERROR(Recover(db));
  {
    MutexLock lock(commit_mutex_);
    last_recovery_.checkpoint_txn = checkpoint_txn;
    last_recovery_.shards = shard_count_;
    last_recovery_.migrated_legacy_wal = migrate;
    last_recovery_.replayed_sentences += legacy.applied;
    if (legacy.torn_tail) ++last_recovery_.torn_tails;
  }
  if (!has_manifest) {
    // Temp file + rename: a crash mid-write must not leave a torn MANIFEST
    // that every later Start() would refuse.
    const std::string tmp = manifest_path + ".tmp";
    TTRA_RETURN_IF_ERROR(env_->Truncate(tmp));
    TTRA_RETURN_IF_ERROR(env_->Append(tmp, ShardManifestText(shards)));
    TTRA_RETURN_IF_ERROR(env_->Sync(tmp));
    TTRA_RETURN_IF_ERROR(env_->Rename(tmp, manifest_path));
  }

  // Re-establish the on-disk invariant: one checkpoint covering the
  // merged replay, fresh logs, sequence spaces reset. The legacy log, and
  // the coordinator log an earlier build kept, go only once that
  // checkpoint is durable.
  TTRA_RETURN_IF_ERROR(compact_.WriteCheckpoint(db));
  if (migrate) TTRA_RETURN_IF_ERROR(env_->Remove(legacy_wal));
  const std::string coordinator_log = dir_ + "/" + kCoordinatorLogFile;
  if (env_->Exists(coordinator_log)) {
    TTRA_RETURN_IF_ERROR(env_->Remove(coordinator_log));
  }
  for (size_t k = 0; k < shard_count_; ++k) {
    MutexLock lock(shards_[k]->wal_mutex);
    TTRA_RETURN_IF_ERROR(shards_[k]->wal->Create());
    shards_[k]->next_seq = 1;
    shards_[k]->commits_since_sync = 0;
  }
  {
    MutexLock lock(commit_mutex_);
    next_commit_index_ = 0;
    inflight_.clear();
    poisoned_ = false;
    submitted_ = 0;
    completed_ = 0;
    degraded_ = false;
    degraded_reason_ = Status::Ok();
    commits_since_checkpoint_ = 0;
    last_write_error_ = Status::Ok();
    tip_ = std::make_shared<const Database>(std::move(db));
    MutexLock publish(publish_mutex_);
    published_ = tip_;
  }

  for (size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->lane =
        std::make_shared<Lane>(this, k, options_.group_commit);
  }
  for (size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->writer = ttra::Thread(&ShardedExecutor::WriterLoop, this, k);
  }
  started_ = true;
  return Status::Ok();
}

Status ShardedExecutor::Recover(Database& db) {
  // Single-threaded (Start(), before any writer exists), so the lock here
  // is only for the annotations' benefit.
  MutexLock lock(commit_mutex_);
  last_recovery_ = RecoveryInfo{};

  // Shard WALs: prepares carry the payloads, commits carry the positions.
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> prepares;
  struct Commit {
    uint64_t shard;
    uint64_t seq;
    TransactionNumber base;
    TransactionNumber post;
  };
  std::vector<Commit> commits;
  for (size_t k = 0; k < shard_count_; ++k) {
    const std::string path = dir_ + "/" + ShardWalFile(k);
    if (!env_->Exists(path)) continue;
    TTRA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(*env_, path));
    if (wal.records_after_hole > 0) return MidLogCorruption(path, wal);
    if (wal.torn_tail) ++last_recovery_.torn_tails;
    for (const std::string& payload : wal.records) {
      TTRA_ASSIGN_OR_RETURN(ShardRecord record, DecodeShardRecord(payload));
      switch (record.kind) {
        case ShardRecordKind::kPrepare: {
          if (!prepares
                   .emplace(std::pair<uint64_t, uint64_t>(k, record.seq),
                            std::move(record))
                   .second) {
            return CorruptionError("duplicate prepare in " + path);
          }
          break;
        }
        case ShardRecordKind::kCommit: {
          // Prepare precedes commit in the same file, so a durable commit
          // record implies a durable prepare record.
          if (prepares.find({k, record.seq}) == prepares.end()) {
            return CorruptionError("commit without prepare in " + path +
                                   " (seq " + std::to_string(record.seq) +
                                   ")");
          }
          commits.push_back(
              Commit{k, record.seq, record.base_txn, record.post_txn});
          break;
        }
        case ShardRecordKind::kCrossPrepare:
          // An earlier build's copy of a payload homed on another shard;
          // that shard's prepare is authoritative.
          break;
      }
    }
  }

  // One total order: committed batches sorted by base transaction number.
  // Bases are NOT unique: a batch whose every sentence fails consumes no
  // transaction numbers (a failed command leaves the database unchanged,
  // txn included), so base == post and the next batch reuses the base.
  // Such no-op batches sort before the advancing batch at the same base;
  // any other base collision is two batches claiming the same position.
  std::sort(commits.begin(), commits.end(),
            [](const Commit& a, const Commit& b) {
              return a.base != b.base ? a.base < b.base : a.post < b.post;
            });
  for (size_t i = 0; i + 1 < commits.size(); ++i) {
    if (commits[i].base == commits[i + 1].base &&
        commits[i].post != commits[i].base) {
      return CorruptionError(
          "two committed batches claim base transaction " +
          std::to_string(commits[i].base));
    }
  }

  const size_t committed = commits.size();
  for (size_t i = 0; i < commits.size(); ++i) {
    const Commit& commit = commits[i];
    const auto prepared = prepares.find({commit.shard, commit.seq});
    std::vector<GroupEntry>& entries = prepared->second.entries;
    const TransactionNumber current = db.transaction_number();
    if (commit.post <= current) {
      // Covered by the checkpoint (crash between checkpoint publication
      // and WAL truncation); the batch boundary must still line up.
      if (commit.base > current) {
        return CorruptionError("committed batch overlaps the checkpoint");
      }
      continue;
    }
    if (commit.base > current) {
      // First gap. The durability watermark acknowledged nothing at or
      // beyond a missing predecessor, so everything from here on is
      // provably unacknowledged: drop it atomically.
      last_recovery_.dropped_in_doubt += committed - i;
      break;
    }
    if (commit.base < current) {
      return CorruptionError("committed batch straddles transaction " +
                             std::to_string(current));
    }
    for (GroupEntry& entry : entries) {
      ApplyEntry(db, entry.sentence, entry.atomic, /*replayed=*/true,
                 nullptr);
      ++last_recovery_.replayed_sentences;
    }
    if (db.transaction_number() != commit.post) {
      return CorruptionError(
          "replay diverged: batch promised transaction " +
          std::to_string(commit.post) + ", replay reached " +
          std::to_string(db.transaction_number()));
    }
    ++last_recovery_.replayed_batches;
  }

  // Prepares that never committed are the in-doubt crash window between
  // shard prepare and commit: never acknowledged, atomically dropped.
  std::set<std::pair<uint64_t, uint64_t>> committed_keys;
  for (const Commit& commit : commits) {
    committed_keys.emplace(commit.shard, commit.seq);
  }
  for (const auto& [key, record] : prepares) {
    if (committed_keys.count(key) == 0) ++last_recovery_.dropped_in_doubt;
  }
  return Status::Ok();
}

void ShardedExecutor::Stop() {
  if (!started_) return;
  // Closing refuses new sentences; each writer commits what is still
  // queued and returns only once no batch runs on its lane, so after the
  // joins every queued sentence is answered and no caller is leading.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Lane& lane = *shard->lane;
    MutexLock lock(lane.mutex);
    lane.closed = true;
    lane.work.SignalAll();
    lane.not_full.SignalAll();
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->writer.joinable()) shard->writer.join();
  }
  // Cut the zero tail PosixEnv keeps ahead of each shard log's records, so
  // a cleanly stopped directory holds exactly its records. Best effort: a
  // log that keeps its zeros still reads to the same clean end.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->wal_mutex);
    shard->wal->TrimTail().IgnoreError();
  }
  started_ = false;
}

Result<std::shared_ptr<ShardedExecutor::Ticket>> ShardedExecutor::Enqueue(
    std::vector<Command> sentence, bool atomic, bool waiting) {
  {
    MutexLock lock(commit_mutex_);
    if (degraded_) {
      ++stat_rejected_;
      return ReadOnlyError("executor is in read-only degraded mode (" +
                           degraded_reason_.ToString() +
                           "); repair storage and reopen");
    }
    // Counted before it is queued (the lane mutex nests inside
    // commit_mutex_, never around it), so Drain() may wait for a sentence
    // still on its way in; a refused push takes the count back.
    ++submitted_;
  }
  bool queued = false;
  std::shared_ptr<Ticket> ticket;
  if (started_) {
    const size_t home =
        sentence.empty() ? 0 : ShardOfName(CommandName(sentence.front()),
                                           shard_count_);
    Lane& lane = *shards_[home]->lane;
    ticket = std::make_shared<Ticket>(shards_[home]->lane);
    std::vector<Pending> batch;
    {
      MutexLock lock(lane.mutex);
      lane.not_full.Wait(lane.mutex, [&lane]() TTRA_REQUIRES(lane.mutex) {
        return lane.closed || lane.items.size() < Lane::kCapacity;
      });
      if (!lane.closed) {
        lane.items.push_back(Pending{std::move(sentence), atomic, ticket});
        ticket->position = ++lane.pushed;
        queued = true;
        if (!waiting) {
          lane.work.Signal();
        } else if (lane.Idle()) {
          // Queue and take in one critical section: nobody else can take
          // the sentence first, so an idle shard commits it on this
          // thread.
          batch = lane.Take();
        }
      }
    }
    if (!batch.empty()) Lead(lane, batch, /*caller_led=*/true);
  }
  if (!queued) {
    MutexLock lock(commit_mutex_);
    --submitted_;
    drained_.SignalAll();
    return UnavailableError("sharded executor is not running");
  }
  return ticket;
}

Result<TransactionNumber> ShardedExecutor::Await(Ticket& ticket) {
  Lane& lane = *ticket.lane;
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(lane.mutex);
      lane.done.Wait(lane.mutex, [&ticket, &lane]() TTRA_REQUIRES(
                                     lane.mutex) {
        return ticket.answer.has_value() ||
               (!ticket.taken && ticket.position == lane.pushed &&
                lane.Idle());
      });
      if (ticket.answer.has_value()) return *std::move(ticket.answer);
      // Still queued on an idle lane, and nothing was queued after it:
      // commit it here rather than hand it to the writer thread and wait
      // for that thread to wake. Had something been queued after it, its
      // submitter would still be submitting (a pipelining client), and
      // the writer takes the batch while it does.
      batch = lane.Take();
    }
    lane.owner->Lead(lane, batch, /*caller_led=*/true);
  }
}

void ShardedExecutor::Lead(Lane& lane, std::vector<Pending>& batch,
                           bool caller_led) {
  RunBatch(lane.shard, batch, caller_led);
  lane.Finish();
}

std::future<Result<TransactionNumber>> ShardedExecutor::SubmitAsync(
    std::vector<Command> sentence, bool atomic) {
  Result<std::shared_ptr<Ticket>> ticket =
      Enqueue(std::move(sentence), atomic, /*waiting=*/false);
  if (!ticket.ok()) {
    std::promise<Result<TransactionNumber>> refused;
    refused.set_value(ticket.status());
    return refused.get_future();
  }
  // Deferred: the wait (and, on an idle shard, the commit) happens on
  // the thread that calls get(). A caller that never waits leaves the
  // sentence to the writer, which Enqueue woke.
  return std::async(std::launch::deferred,
                    [ticket = *std::move(ticket)] { return Await(*ticket); });
}

Result<TransactionNumber> ShardedExecutor::Submit(
    std::vector<Command> sentence) {
  TTRA_ASSIGN_OR_RETURN(
      std::shared_ptr<Ticket> ticket,
      Enqueue(std::move(sentence), /*atomic=*/false, /*waiting=*/true));
  return Await(*ticket);
}

Result<TransactionNumber> ShardedExecutor::Submit(Command command) {
  std::vector<Command> sentence;
  sentence.push_back(std::move(command));
  return Submit(std::move(sentence));
}

Result<TransactionNumber> ShardedExecutor::SubmitAtomic(
    std::vector<Command> sentence) {
  TTRA_ASSIGN_OR_RETURN(
      std::shared_ptr<Ticket> ticket,
      Enqueue(std::move(sentence), /*atomic=*/true, /*waiting=*/true));
  return Await(*ticket);
}

Status ShardedExecutor::Drain() {
  uint64_t target = 0;
  {
    MutexLock lock(commit_mutex_);
    target = submitted_;
  }
  if (started_) {
    // Lead what was queued before the call on every idle lane; sentences
    // queued later are their own submitters' (or the writer's) business.
    std::vector<uint64_t> queued(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) {
      Lane& lane = *shards_[k]->lane;
      MutexLock lock(lane.mutex);
      queued[k] = lane.pushed;
    }
    for (size_t k = 0; k < shards_.size(); ++k) {
      Lane& lane = *shards_[k]->lane;
      for (;;) {
        std::vector<Pending> batch;
        {
          MutexLock lock(lane.mutex);
          lane.done.Wait(lane.mutex, [&]() TTRA_REQUIRES(lane.mutex) {
            return lane.taken >= queued[k] || lane.Idle();
          });
          if (lane.taken >= queued[k]) break;
          batch = lane.Take();
        }
        Lead(lane, batch, /*caller_led=*/true);
      }
    }
  }
  MutexLock lock(commit_mutex_);
  drained_.Wait(commit_mutex_, [this, target]() TTRA_REQUIRES(
                                   commit_mutex_) {
    return completed_ >= target;
  });
  return Status::Ok();
}

Session ShardedExecutor::OpenSession() const {
  MutexLock lock(publish_mutex_);
  return Session(published_, published_->transaction_number());
}

TransactionNumber ShardedExecutor::transaction_number() const {
  MutexLock lock(publish_mutex_);
  return published_ == nullptr ? 0 : published_->transaction_number();
}

Database ShardedExecutor::Snapshot() const {
  std::shared_ptr<const Database> snapshot;
  {
    MutexLock lock(publish_mutex_);
    snapshot = published_;
  }
  return *snapshot;
}

Status ShardedExecutor::Checkpoint() {
  return CheckpointAll(/*compact=*/false);
}

Status ShardedExecutor::CompactStorage() {
  return CheckpointAll(/*compact=*/true);
}

Status ShardedExecutor::CheckpointAll(bool compact) {
  // Exclusive gate: every writer holds the gate shared from prepare to
  // durability marking, so owning it exclusively proves no batch is in
  // flight anywhere — the watermark equals the chain tip and all sequence
  // spaces may be reset together with the logs.
  WriterMutexLock gate(checkpoint_gate_);
  std::shared_ptr<const Database> tip;
  {
    MutexLock lock(commit_mutex_);
    if (!started_ || tip_ == nullptr) {
      return UnavailableError("sharded executor is not running");
    }
    if (degraded_) {
      return UnavailableError("sharded executor is degraded (" +
                              degraded_reason_.ToString() +
                              "); repair storage and reopen");
    }
    tip = tip_;
  }
  // Write the checkpoint with no executor mutex held: the exclusive gate
  // already quiesces every writer (nothing can move the tip), the
  // copy-on-write snapshot is immutable, and this is by far the longest
  // I/O in the system — stats()/healthy() probes must not stall behind it.
  Status status =
      compact ? compact_.Compact(*tip) : compact_.WriteCheckpoint(*tip);
  // The manifest sync is the commit point and the checkpoint covers every
  // commit: the logs may restart (a crash in between replays records the
  // manifest skips). Each under its own WAL lock only — the gate keeps
  // every batch out.
  for (size_t k = 0; status.ok() && k < shard_count_; ++k) {
    MutexLock wal_lock(shards_[k]->wal_mutex);
    status = shards_[k]->wal->Create();
    shards_[k]->next_seq = 1;
    shards_[k]->commits_since_sync = 0;
  }
  MutexLock lock(commit_mutex_);
  if (!status.ok()) {
    // A torn manifest or a half-created log: only a re-Start() re-arms
    // them from the validated prefix.
    EnterDegradedLocked(status);
    return status;
  }
  commits_since_checkpoint_ = 0;
  return Status::Ok();
}

bool ShardedExecutor::healthy() const {
  MutexLock lock(commit_mutex_);
  return started_ && !degraded_;
}

bool ShardedExecutor::degraded() const {
  MutexLock lock(commit_mutex_);
  return degraded_;
}

Status ShardedExecutor::degraded_reason() const {
  MutexLock lock(commit_mutex_);
  return degraded_reason_;
}

void ShardedExecutor::EnterDegraded(const Status& reason) {
  MutexLock lock(commit_mutex_);
  EnterDegradedLocked(reason);
}

void ShardedExecutor::EnterDegradedLocked(const Status& reason) {
  if (degraded_) return;
  degraded_ = true;
  degraded_reason_ = reason;
  last_write_error_ = reason;
}

ShardedExecutor::RecoveryInfo ShardedExecutor::last_recovery() const {
  MutexLock lock(commit_mutex_);
  return last_recovery_;
}

ShardedExecutor::Stats ShardedExecutor::stats() const {
  Stats stats;
  {
    MutexLock lock(commit_mutex_);
    stats.commits = stat_commits_;
    stats.batches = stat_batches_;
    stats.max_batch = stat_max_batch_;
    stats.cross_shard_batches = stat_cross_shard_;
    stats.rejected_read_only = stat_rejected_;
    stats.degraded = degraded_;
    stats.last_write_error = last_write_error_;
  }
  stats.transient_retries = transient_retries_.load();
  stats.retry_successes = retry_successes_.load();
  stats.per_shard.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->wal_mutex);
    ShardStats per = shard->stats;
    if (shard->wal != nullptr) per.wal = shard->wal->stats();
    stats.per_shard.push_back(per);
  }
  return stats;
}

Status ShardedExecutor::RetryShardWalOp(Shard& shard,
                                        const std::function<Status()>& op,
                                        bool reset_tail) {
  const RetryOptions& retry = options_.durable.retry;
  const size_t max_attempts = std::max<size_t>(1, retry.max_attempts);
  std::chrono::microseconds backoff = retry.initial_backoff;
  bool retried = false;
  Status status = op();
  for (size_t attempt = 1; attempt < max_attempts; ++attempt) {
    if (status.ok()) break;
    if (status.code() != ErrorCode::kIoError) return status;
    transient_retries_.fetch_add(1);
    retried = true;
    if (retry.sleeper) {
      retry.sleeper(backoff);
    } else {
      std::this_thread::sleep_for(backoff);
    }
    backoff = std::min(backoff * 2, retry.max_backoff);
    if (reset_tail) {
      if (!shard.wal->ResetTail().ok()) continue;
    }
    status = op();
  }
  if (status.ok() && retried) retry_successes_.fetch_add(1);
  return status;
}

void ShardedExecutor::RefuseBatch(std::vector<Pending>& batch,
                                  const Status& reason) {
  // Count before answering, so a caller that reads stats() after its
  // refusal sees it counted.
  if (reason.code() == ErrorCode::kReadOnly) {
    MutexLock lock(commit_mutex_);
    stat_rejected_ += batch.size();
  }
  AnswerBatch(batch, reason);
  MutexLock lock(commit_mutex_);
  completed_ += batch.size();
  drained_.SignalAll();
}

void ShardedExecutor::AnswerBatch(const std::vector<Pending>& batch,
                                  const Status& status) {
  if (batch.empty()) return;
  std::vector<std::shared_ptr<Ticket>> tickets;
  tickets.reserve(batch.size());
  for (const Pending& pending : batch) tickets.push_back(pending.ticket);
  batch.front().ticket->lane->Resolve(tickets,
                                      Answers(batch.size(), status));
}

void ShardedExecutor::ResolveInflight(
    const Inflight& batch, std::vector<Result<TransactionNumber>> results) {
  if (batch.tickets.empty()) return;
  batch.tickets.front()->lane->Resolve(batch.tickets, std::move(results));
}

void ShardedExecutor::MarkBatch(uint64_t commit_index, Status io) {
  MutexLock lock(commit_mutex_);
  for (Inflight& batch : inflight_) {
    if (batch.commit_index == commit_index) {
      batch.marked = true;
      batch.io = std::move(io);
      break;
    }
  }
  if (options_.test_faults.ack_out_of_order) {
    // Seeded protocol bug (tests/model checker only): publish and resolve
    // the just-marked batch right here, wherever it sits in the commit
    // order, instead of waiting for the watermark to reach it. Under any
    // schedule where a later-ordered batch becomes durable first, the
    // published snapshot regresses — which the explorer must catch.
    for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
      if (it->commit_index != commit_index) continue;
      Inflight batch = std::move(*it);
      inflight_.erase(it);
      if (batch.io.ok()) {
        {
          MutexLock publish(publish_mutex_);
          published_ = batch.snapshot;
        }
        ResolveInflight(batch, std::move(batch.results));
      } else {
        ResolveInflight(batch, Answers(batch.tickets.size(), batch.io));
      }
      completed_ += batch.tickets.size();
      break;
    }
    drained_.SignalAll();
    return;
  }
  // Advance the durability watermark: acknowledge leading marked batches
  // in commit order. Publishing before resolving preserves
  // read-your-writes; a durability failure poisons everything after it —
  // those batches build on state recovery cannot reproduce.
  while (!inflight_.empty() && inflight_.front().marked) {
    Inflight batch = std::move(inflight_.front());
    inflight_.pop_front();
    if (!batch.io.ok()) poisoned_ = true;
    if (poisoned_) {
      const Status lost =
          batch.io.ok()
              ? UnavailableError(
                    "commit lost: an earlier batch failed to become "
                    "durable; the executor is read-only until reopened")
              : batch.io;
      ResolveInflight(batch, Answers(batch.tickets.size(), lost));
    } else {
      {
        MutexLock publish(publish_mutex_);
        published_ = batch.snapshot;
      }
      ResolveInflight(batch, std::move(batch.results));
    }
    completed_ += batch.tickets.size();
  }
  drained_.SignalAll();
}

void ShardedExecutor::ProcessBatch(size_t shard_index,
                                   std::vector<Pending>& batch,
                                   bool caller_led) {
  Shard& shard = *shards_[shard_index];

  // Entries, and whether any sentence touches a relation homed on another
  // shard (counted only: every write of the batch goes to this shard).
  std::vector<GroupEntry> entries;
  entries.reserve(batch.size());
  bool cross = false;
  for (Pending& pending : batch) {
    for (const Command& command : pending.sentence) {
      cross = cross ||
              ShardOfName(CommandName(command), shard_count_) != shard_index;
    }
    entries.push_back(GroupEntry{std::move(pending.sentence), pending.atomic});
  }

  // Phase 1 — prepare: the payload lands in this shard's own WAL under a
  // shard-local sequence number. Parallel across shards; no global lock.
  uint64_t seq = 0;
  Status io;
  {
    MutexLock lock(shard.wal_mutex);
    seq = shard.next_seq++;
    const std::string payload = EncodePrepare(seq, entries);
    io = RetryShardWalOp(
        shard,
        [&shard, &payload]() TTRA_REQUIRES(shard.wal_mutex) {
          return shard.wal->AddRecord(payload);
        },
        /*reset_tail=*/true);
  }
  if (!io.ok()) {
    EnterDegraded(io);
    RefuseBatch(batch, io);
    return;
  }

  // Phase 2 — order: transaction numbers are data-dependent (a failed
  // command consumes none), so positions cannot be pre-reserved; the
  // global section is exactly the apply, with no I/O. The batch applies to
  // a copy of the tip, which shares every relation until a command writes
  // it.
  uint64_t commit_index = 0;
  TransactionNumber base = 0;
  TransactionNumber post = 0;
  {
    MutexLock lock(commit_mutex_);
    if (degraded_) {
      const Status refusal = ReadOnlyError(
          "executor is in read-only degraded mode (" +
          degraded_reason_.ToString() + "); repair storage and reopen");
      stat_rejected_ += batch.size();
      completed_ += batch.size();
      AnswerBatch(batch, refusal);
      drained_.SignalAll();
      return;
    }
    base = tip_->transaction_number();
    auto next = std::make_shared<Database>(*tip_);
    std::vector<Result<TransactionNumber>> results;
    results.reserve(entries.size());
    for (GroupEntry& entry : entries) {
      Result<TransactionNumber> result(0);
      ApplyEntry(*next, entry.sentence, entry.atomic, /*replayed=*/false,
                 &result);
      results.push_back(std::move(result));
    }
    post = next->transaction_number();

    commit_index = next_commit_index_++;
    Inflight inflight;
    inflight.commit_index = commit_index;
    inflight.base = base;
    inflight.post = post;
    inflight.snapshot = next;
    inflight.results = std::move(results);
    inflight.tickets.reserve(batch.size());
    for (Pending& pending : batch) {
      inflight.tickets.push_back(std::move(pending.ticket));
    }
    inflight_.push_back(std::move(inflight));
    tip_ = std::move(next);
    stat_commits_ += batch.size();
    stat_batches_ += 1;
    stat_max_batch_ = std::max<uint64_t>(stat_max_batch_, batch.size());
    if (cross) ++stat_cross_shard_;
    commits_since_checkpoint_ += batch.size();
  }

  // Phase 3 — commit: [seq, base, post] into this shard's own WAL, then
  // one sync covering prepare + commit together. Parallel across shards —
  // this is the fsync stream the sharding multiplies.
  {
    MutexLock lock(shard.wal_mutex);
    const std::string payload = EncodeCommit(seq, base, post);
    io = RetryShardWalOp(
        shard,
        [&shard, &payload]() TTRA_REQUIRES(shard.wal_mutex) {
          return shard.wal->AddRecord(payload);
        },
        /*reset_tail=*/true);
    if (io.ok()) {
      shard.commits_since_sync += batch.size();
      const bool sync_now =
          options_.durable.sync_policy == SyncPolicy::kAlways ||
          (options_.durable.sync_policy == SyncPolicy::kBatch &&
           shard.commits_since_sync >= options_.durable.batch_size);
      if (sync_now) {
        io = RetryShardWalOp(
            shard,
            [&shard]() TTRA_REQUIRES(shard.wal_mutex) {
              return shard.wal->Sync();
            },
            /*reset_tail=*/false);
        if (io.ok()) shard.commits_since_sync = 0;
      }
    }
    shard.stats.batches += 1;
    if (caller_led) shard.stats.caller_led_batches += 1;
    shard.stats.commits += batch.size();
  }
  if (!io.ok()) EnterDegraded(io);

  // Phase 4 — ack behind the durability watermark.
  MarkBatch(commit_index, io);
}

void ShardedExecutor::RunBatch(size_t shard_index, std::vector<Pending>& batch,
                               bool caller_led) {
  if (degraded()) {
    RefuseBatch(batch, ReadOnlyError(
        "executor is in read-only degraded mode (" +
        degraded_reason().ToString() + "); repair storage and reopen"));
    return;
  }

  {
    // Leaders ride the gate shared for the whole prepare → commit → mark
    // protocol; Checkpoint() takes it exclusively to quiesce.
    ReaderMutexLock gate(checkpoint_gate_);
    ProcessBatch(shard_index, batch, caller_led);
  }

  if (options_.durable.checkpoint_every != 0) {
    bool checkpoint_now = false;
    {
      MutexLock lock(commit_mutex_);
      checkpoint_now = !degraded_ && commits_since_checkpoint_ >=
                                         options_.durable.checkpoint_every;
    }
    // Outside the gate (Checkpoint takes it exclusively), but while the
    // lane still counts this batch as running, so Stop() waits for it.
    // Best effort: failures flip degraded mode inside.
    if (checkpoint_now) Checkpoint().IgnoreError();
  }
}

void ShardedExecutor::WriterLoop(size_t shard_index) {
  Lane& lane = *shards_[shard_index]->lane;
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(lane.mutex);
      lane.writer_idle = true;
      lane.work.Wait(lane.mutex, [&lane]() TTRA_REQUIRES(lane.mutex) {
        return (lane.closed || !lane.items.empty()) && !lane.leading;
      });
      lane.writer_idle = false;
      if (lane.items.empty()) return;  // closed, drained and idle
      batch = lane.Take();
    }
    Lead(lane, batch, /*caller_led=*/false);
  }
}

}  // namespace ttra
