#include "rollback/database.h"

#include <atomic>

namespace ttra {

Database::Database(DatabaseOptions /*options*/) {}

Relation& Database::Own(std::shared_ptr<const Relation>& slot) {
  if (slot.use_count() != 1) {
    slot = std::make_shared<Relation>(*slot);
  } else {
    // The last other owner released its reference with a release
    // decrement; order its reads of the relation before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return const_cast<Relation&>(*slot);
}

Status Database::DefineRelation(const std::string& name, RelationType type,
                                Schema schema) {
  if (relations_.contains(name)) {
    return AlreadyDefinedError("relation already defined: " + name);
  }
  relations_.emplace(name, std::make_shared<Relation>(Relation::Make(
                               type, std::move(schema), txn_ + 1)));
  ++txn_;
  return Status::Ok();
}

Status Database::ModifyState(const std::string& name,
                             const SnapshotState& state) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return UnknownIdentifierError("modify_state of undefined relation: " +
                                  name);
  }
  TTRA_RETURN_IF_ERROR(Own(it->second).SetState(state, txn_ + 1));
  ++txn_;
  return Status::Ok();
}

Status Database::ModifyState(const std::string& name,
                             const HistoricalState& state) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return UnknownIdentifierError("modify_state of undefined relation: " +
                                  name);
  }
  TTRA_RETURN_IF_ERROR(Own(it->second).SetState(state, txn_ + 1));
  ++txn_;
  return Status::Ok();
}

Status Database::DeleteRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return UnknownIdentifierError("delete_relation of undefined relation: " +
                                  name);
  }
  relations_.erase(it);
  ++txn_;
  return Status::Ok();
}

Status Database::ModifySchema(const std::string& name, Schema schema) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return UnknownIdentifierError("modify_schema of undefined relation: " +
                                  name);
  }
  TTRA_RETURN_IF_ERROR(
      Own(it->second).SetSchema(std::move(schema), txn_ + 1));
  ++txn_;
  return Status::Ok();
}

Result<SnapshotState> Database::Rollback(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  const Relation* relation = Find(name);
  if (relation == nullptr) {
    return UnknownIdentifierError("rollback of undefined relation: " + name);
  }
  if (!txn.has_value()) {
    // N = ∞: the most recent state of a snapshot or rollback relation.
    return relation->SnapshotAt(txn_);
  }
  if (relation->type() != RelationType::kRollback) {
    return InvalidRollbackError(
        "rollback to a past transaction requires a rollback relation; '" +
        name + "' is " + std::string(RelationTypeName(relation->type())));
  }
  return relation->SnapshotAt(*txn);
}

Result<HistoricalState> Database::RollbackHistorical(
    const std::string& name, std::optional<TransactionNumber> txn) const {
  const Relation* relation = Find(name);
  if (relation == nullptr) {
    return UnknownIdentifierError("rollback of undefined relation: " + name);
  }
  if (!txn.has_value()) {
    return relation->HistoricalAt(txn_);
  }
  if (relation->type() != RelationType::kTemporal) {
    return InvalidRollbackError(
        "historical rollback to a past transaction requires a temporal "
        "relation; '" +
        name + "' is " + std::string(RelationTypeName(relation->type())));
  }
  return relation->HistoricalAt(*txn);
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const Relation> Database::FindShared(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

size_t Database::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, relation] : relations_) {
    total += name.size() + relation->ApproxBytes();
  }
  return total;
}

void Database::RestoreRelation(const std::string& name, Relation relation) {
  relations_.insert_or_assign(name,
                              std::make_shared<Relation>(std::move(relation)));
}

}  // namespace ttra
