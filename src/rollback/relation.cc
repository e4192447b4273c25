#include "rollback/relation.h"

#include <algorithm>

namespace ttra {

std::string_view RelationTypeName(RelationType type) {
  switch (type) {
    case RelationType::kSnapshot:
      return "snapshot";
    case RelationType::kRollback:
      return "rollback";
    case RelationType::kHistorical:
      return "historical";
    case RelationType::kTemporal:
      return "temporal";
  }
  return "unknown";
}

Result<RelationType> ParseRelationType(std::string_view name) {
  if (name == "snapshot") return RelationType::kSnapshot;
  if (name == "rollback") return RelationType::kRollback;
  if (name == "historical") return RelationType::kHistorical;
  if (name == "temporal") return RelationType::kTemporal;
  return InvalidArgumentError("unknown relation type: " + std::string(name));
}

bool HoldsSnapshotStates(RelationType type) {
  return type == RelationType::kSnapshot || type == RelationType::kRollback;
}

bool RetainsHistory(RelationType type) {
  return type == RelationType::kRollback || type == RelationType::kTemporal;
}

Relation Relation::Make(RelationType type, Schema schema,
                        TransactionNumber defined_at) {
  Relation r;
  r.type_ = type;
  r.schema_history_.emplace_back(std::move(schema), defined_at);
  if (HoldsSnapshotStates(type)) {
    r.slog_.emplace();
  } else {
    r.hlog_.emplace();
  }
  return r;
}

const Schema& Relation::SchemaAt(TransactionNumber txn) const {
  // Last scheme whose installation txn is <= txn; the define-time scheme
  // if txn precedes every installation.
  auto it = std::upper_bound(
      schema_history_.begin(), schema_history_.end(), txn,
      [](TransactionNumber t, const auto& e) { return t < e.second; });
  if (it == schema_history_.begin()) return schema_history_.front().first;
  return std::prev(it)->first;
}

Status Relation::SetState(const SnapshotState& state, TransactionNumber txn) {
  if (!HoldsSnapshotStates(type_)) {
    return TypeMismatchError(
        "cannot store a snapshot state in a relation of type " +
        std::string(RelationTypeName(type_)));
  }
  if (state.schema() != schema()) {
    return SchemaMismatchError("state schema " + state.schema().ToString() +
                               " does not match relation schema " +
                               schema().ToString());
  }
  if (RetainsHistory(type_)) return slog_->Append(state, txn);
  return slog_->ReplaceLast(state, txn);
}

Status Relation::SetState(const HistoricalState& state,
                          TransactionNumber txn) {
  if (HoldsSnapshotStates(type_)) {
    return TypeMismatchError(
        "cannot store an historical state in a relation of type " +
        std::string(RelationTypeName(type_)));
  }
  if (state.schema() != schema()) {
    return SchemaMismatchError("state schema " + state.schema().ToString() +
                               " does not match relation schema " +
                               schema().ToString());
  }
  if (RetainsHistory(type_)) return hlog_->Append(state, txn);
  return hlog_->ReplaceLast(state, txn);
}

Result<SnapshotState> Relation::SnapshotAt(TransactionNumber txn) const {
  if (!HoldsSnapshotStates(type_)) {
    return InvalidRollbackError(
        "relation of type " + std::string(RelationTypeName(type_)) +
        " holds historical states, not snapshot states");
  }
  // States are copy-on-write, so dereferencing the shared pointer hands
  // back an O(1) handle to the stored tuples — no materialization.
  if (std::shared_ptr<const SnapshotState> state = slog_->StateAt(txn)) {
    return *state;
  }
  return SnapshotState::Empty(SchemaAt(txn));
}

Result<HistoricalState> Relation::HistoricalAt(TransactionNumber txn) const {
  if (HoldsSnapshotStates(type_)) {
    return InvalidRollbackError(
        "relation of type " + std::string(RelationTypeName(type_)) +
        " holds snapshot states, not historical states");
  }
  if (std::shared_ptr<const HistoricalState> state = hlog_->StateAt(txn)) {
    return *state;
  }
  return HistoricalState::Empty(SchemaAt(txn));
}

Status Relation::SetSchema(Schema schema, TransactionNumber txn) {
  if (!schema_history_.empty() && txn <= schema_history_.back().second &&
      !(schema_history_.size() == 1 && txn == schema_history_.back().second)) {
    return InternalError("non-increasing transaction number in SetSchema");
  }
  if (schema == this->schema()) return Status::Ok();  // no-op change
  schema_history_.emplace_back(std::move(schema), txn);
  return Status::Ok();
}

size_t Relation::history_length() const {
  return slog_ ? slog_->size() : hlog_->size();
}

TransactionNumber Relation::TxnAt(size_t i) const {
  return slog_ ? slog_->TxnAt(i) : hlog_->TxnAt(i);
}

size_t Relation::ApproxBytes() const {
  return slog_ ? slog_->ApproxBytes() : hlog_->ApproxBytes();
}

size_t Relation::CountAtOrBefore(TransactionNumber txn) const {
  return slog_ ? slog_->CountAtOrBefore(txn) : hlog_->CountAtOrBefore(txn);
}

}  // namespace ttra
