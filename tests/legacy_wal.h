#ifndef TTRA_TESTS_LEGACY_WAL_H_
#define TTRA_TESTS_LEGACY_WAL_H_

// Hand-encoder for the single-writer "wal.log" that earlier builds wrote
// and nothing in the library writes any more. Its records are
//   kind 0 (paper sequencing) / kind 1 (all-or-nothing):
//     [u8 kind][u64 pre_txn][u64 n][n commands]
//   kind 2 (a group-committed batch):
//     [u8 2][u64 count] then count × [u8 atomic][u64 pre_txn][u64 n]
//     [n commands]
// Tests build legacy directories with it: ShardedExecutor::Start migrates
// them once, and `ttra fsck` must still scan one that is not migrated yet.

#include <string>
#include <utility>
#include <vector>

#include "rollback/commands.h"
#include "rollback/compact_store.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace ttra {

inline void PutLegacyU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void EncodeLegacyBody(const LoggedSentence& entry, std::string& out) {
  PutLegacyU64(entry.pre_txn, out);
  PutLegacyU64(entry.sentence.size(), out);
  for (const Command& command : entry.sentence) EncodeCommand(command, out);
}

/// A kind-0 (sequenced) or kind-1 (atomic) record.
inline std::string EncodeLegacyRecord(const LoggedSentence& entry) {
  std::string out(1, static_cast<char>(entry.atomic ? 1 : 0));
  EncodeLegacyBody(entry, out);
  return out;
}

/// A kind-2 record holding `entries` in order.
inline std::string EncodeLegacyGroupRecord(
    const std::vector<LoggedSentence>& entries) {
  std::string out(1, static_cast<char>(2));
  PutLegacyU64(entries.size(), out);
  for (const LoggedSentence& entry : entries) {
    out.push_back(static_cast<char>(entry.atomic ? 1 : 0));
    EncodeLegacyBody(entry, out);
  }
  return out;
}

/// Logs `sentence` as the next one committed on `db` (pre_txn = the
/// current transaction number) and applies it as the single-writer
/// executor did: paper sequencing, or all-or-nothing when `atomic`.
inline LoggedSentence LogLegacySentence(Database& db,
                                        std::vector<Command> sentence,
                                        bool atomic = false) {
  LoggedSentence entry{std::move(sentence), db.transaction_number(), atomic};
  if (atomic) {
    Database scratch = db;
    if (ApplySentence(scratch, entry.sentence).ok()) db = std::move(scratch);
  } else {
    ApplySentence(db, entry.sentence).IgnoreError();
  }
  return entry;
}

/// A single-writer directory as earlier builds left it: the compact
/// checkpoint (segments.manifest + segment files) plus a wal.log that
/// checkpoints keep and only CompactStorage() restarts.
class LegacyDir {
 public:
  LegacyDir(Env* env, std::string dir, CompactOptions compact = {})
      : env_(env),
        dir_(std::move(dir)),
        store_(env, dir_, compact),
        wal_(env, dir_ + "/" + kLegacyWalFile) {}

  /// What the single-writer executor's first open wrote: the directory, a
  /// checkpoint of the empty database, and an empty wal.log.
  Status Create() {
    TTRA_RETURN_IF_ERROR(env_->CreateDir(dir_));
    TTRA_ASSIGN_OR_RETURN(db_, store_.Load(DatabaseOptions{}));
    TTRA_RETURN_IF_ERROR(store_.WriteCheckpoint(db_));
    return wal_.Create();
  }

  /// Appends and syncs one kind-0/1 record for `sentence`, then applies
  /// it.
  Status Submit(std::vector<Command> sentence, bool atomic = false) {
    const LoggedSentence entry =
        LogLegacySentence(db_, std::move(sentence), atomic);
    TTRA_RETURN_IF_ERROR(wal_.AddRecord(EncodeLegacyRecord(entry)));
    return wal_.Sync();
  }

  /// Appends and syncs one kind-2 record for `sentences` (each with its
  /// submit mode), applying them in order.
  Status SubmitGroup(
      std::vector<std::pair<std::vector<Command>, bool>> sentences) {
    std::vector<LoggedSentence> entries;
    for (auto& [sentence, atomic] : sentences) {
      entries.push_back(LogLegacySentence(db_, std::move(sentence), atomic));
    }
    TTRA_RETURN_IF_ERROR(wal_.AddRecord(EncodeLegacyGroupRecord(entries)));
    return wal_.Sync();
  }

  /// An incremental manifest record covering the current state; the WAL
  /// is kept.
  Status Checkpoint() { return store_.WriteCheckpoint(db_); }

  /// A one-record full manifest, then the WAL restarts empty.
  Status CompactStorage() {
    TTRA_RETURN_IF_ERROR(store_.Compact(db_));
    return wal_.Create();
  }

  const Database& db() const { return db_; }

 private:
  Env* env_;
  std::string dir_;
  CompactStore store_;
  WalWriter wal_;
  Database db_;
};

}  // namespace ttra

#endif  // TTRA_TESTS_LEGACY_WAL_H_
