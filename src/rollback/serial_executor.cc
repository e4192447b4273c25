#include "rollback/serial_executor.h"


namespace ttra {

Result<TransactionNumber> SerialExecutor::Submit(
    const std::function<Status(Database&)>& body) {
  WriterMutexLock lock(mutex_);
  TTRA_RETURN_IF_ERROR(body(db_));
  return db_.transaction_number();
}

Result<TransactionNumber> SerialExecutor::SubmitAtomic(
    const std::function<Status(Database&)>& body) {
  WriterMutexLock lock(mutex_);
  Database scratch = db_;
  TTRA_RETURN_IF_ERROR(body(scratch));
  db_ = std::move(scratch);
  return db_.transaction_number();
}

Status SerialExecutor::Read(
    const std::function<Status(const Database&)>& reader) const {
  ReaderMutexLock lock(mutex_);
  return reader(db_);
}

TransactionNumber SerialExecutor::transaction_number() const {
  ReaderMutexLock lock(mutex_);
  return db_.transaction_number();
}

Result<SnapshotState> SerialExecutor::Rollback(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  ReaderMutexLock lock(mutex_);
  return db_.Rollback(name, txn);
}

Result<HistoricalState> SerialExecutor::RollbackHistorical(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  ReaderMutexLock lock(mutex_);
  return db_.RollbackHistorical(name, txn);
}

Database SerialExecutor::Snapshot() const {
  ReaderMutexLock lock(mutex_);
  return db_;
}

}  // namespace ttra
