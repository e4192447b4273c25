#ifndef TTRA_ROLLBACK_SERIAL_EXECUTOR_H_
#define TTRA_ROLLBACK_SERIAL_EXECUTOR_H_

#include <functional>
#include <string_view>

#include "rollback/database.h"
#include "util/mutex.h"

namespace ttra {

/// Thread-safe database front-end realizing the paper's §3.2 concurrency
/// remark: implementations "may permit concurrent transactions ... as long
/// as the semantics of sequential update with a monotonically increasing
/// transaction time is preserved". Writers are serialized by an exclusive
/// lock (commit order = transaction-number order); readers run
/// concurrently under a shared lock and always observe a committed state.
///
/// Two write modes:
///  * Submit — the paper's sequencing semantics: commands apply one at a
///    time; if one fails mid-body, earlier commands stay applied (each
///    command is individually atomic, bodies are not).
///  * SubmitAtomic — an extension: the body runs against a copy of the
///    database (O(#relations); Database is persistent) and is swapped in
///    only on success, making the whole body all-or-nothing.
class SerialExecutor {
 public:
  explicit SerialExecutor(DatabaseOptions options = {}) : db_(options) {}

  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  /// Runs `body` under the exclusive commit lock. Returns the transaction
  /// number after the body completed (even if it failed part-way).
  Result<TransactionNumber> Submit(
      const std::function<Status(Database&)>& body);

  /// Runs `body` on a private copy; on success the copy replaces the
  /// database, on failure the database is untouched.
  Result<TransactionNumber> SubmitAtomic(
      const std::function<Status(Database&)>& body);

  /// Runs `reader` under the shared lock with a const view.
  Status Read(const std::function<Status(const Database&)>& reader) const;

  /// Convenience readers (shared lock).
  TransactionNumber transaction_number() const;
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  /// Consistent point-in-time copy of the whole database.
  Database Snapshot() const;

 private:
  mutable SharedMutex mutex_;
  Database db_ TTRA_GUARDED_BY(mutex_);
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_SERIAL_EXECUTOR_H_
