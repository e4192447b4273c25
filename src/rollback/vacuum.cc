#include "rollback/vacuum.h"

#include "storage/serialize.h"

namespace ttra {

namespace {

constexpr char kArchiveMagic[] = "TTRAARC1";
constexpr size_t kMagicLen = 8;

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutString(std::string_view s, std::string& out) {
  PutU64(s.size(), out);
  out.append(s);
}

/// Rebuilds a relation of the same type/scheme-history as `original` from
/// the given state sequences (snapshot or historical, depending on type),
/// replaying scheme versions at their recorded transactions. Replaying a
/// recorded history "cannot" fail — but the inputs come from decoded
/// archive bytes, so failures propagate rather than being discarded.
template <typename StateT>
Result<Relation> RebuildRelation(
    const Relation& original,
    const std::vector<std::pair<StateT, TransactionNumber>>& sequence) {
  const auto& schemas = original.schema_history();
  Relation rebuilt = Relation::Make(original.type(), schemas.front().first,
                                    schemas.front().second);
  size_t next_schema = 1;
  for (const auto& [state, txn] : sequence) {
    while (next_schema < schemas.size() && schemas[next_schema].second <= txn) {
      TTRA_RETURN_IF_ERROR(rebuilt.SetSchema(schemas[next_schema].first,
                                             schemas[next_schema].second));
      ++next_schema;
    }
    TTRA_RETURN_IF_ERROR(rebuilt.SetState(state, txn));
  }
  while (next_schema < schemas.size()) {
    TTRA_RETURN_IF_ERROR(rebuilt.SetSchema(schemas[next_schema].first,
                                           schemas[next_schema].second));
    ++next_schema;
  }
  return rebuilt;
}

template <typename StateT>
Result<VacuumResult> VacuumTyped(
    Database& db, const std::string& name, const Relation& relation,
    TransactionNumber before_txn,
    Result<StateT> (Relation::*state_at)(TransactionNumber) const) {
  std::vector<std::pair<StateT, TransactionNumber>> prefix;
  std::vector<std::pair<StateT, TransactionNumber>> suffix;
  for (size_t i = 0; i < relation.history_length(); ++i) {
    const TransactionNumber txn = relation.TxnAt(i);
    TTRA_ASSIGN_OR_RETURN(StateT state, (relation.*state_at)(txn));
    if (txn < before_txn) {
      prefix.emplace_back(std::move(state), txn);
    } else {
      suffix.emplace_back(std::move(state), txn);
    }
  }
  VacuumResult result;
  result.archived_states = prefix.size();
  if (!prefix.empty()) {
    result.archive.append(kArchiveMagic, kMagicLen);
    PutString(name, result.archive);
    result.archive.push_back(HoldsSnapshotStates(relation.type()) ? 0 : 1);
    result.archive += EncodeStateSequence(prefix);
    TTRA_ASSIGN_OR_RETURN(Relation rebuilt,
                          RebuildRelation(relation, suffix));
    db.RestoreRelation(name, std::move(rebuilt));
    db.RestoreTransactionNumber(db.transaction_number() + 1);
  }
  return result;
}

template <typename StateT>
Status AttachTyped(Database& db, const std::string& name,
                   const Relation& relation, std::string_view sequence_blob,
                   Result<StateT> (Relation::*state_at)(TransactionNumber)
                       const) {
  TTRA_ASSIGN_OR_RETURN(auto archived,
                        DecodeStateSequence<StateT>(sequence_blob));
  if (archived.empty()) return Status::Ok();
  if (relation.history_length() > 0 &&
      archived.back().second >= relation.TxnAt(0)) {
    return InvalidArgumentError(
        "archive overlaps the online history: archive ends at txn " +
        std::to_string(archived.back().second) + ", online starts at " +
        std::to_string(relation.TxnAt(0)));
  }
  // Full sequence = archive ++ online.
  for (size_t i = 0; i < relation.history_length(); ++i) {
    const TransactionNumber txn = relation.TxnAt(i);
    TTRA_ASSIGN_OR_RETURN(StateT state, (relation.*state_at)(txn));
    archived.emplace_back(std::move(state), txn);
  }
  TTRA_ASSIGN_OR_RETURN(Relation rebuilt,
                        RebuildRelation(relation, archived));
  db.RestoreRelation(name, std::move(rebuilt));
  db.RestoreTransactionNumber(db.transaction_number() + 1);
  return Status::Ok();
}

}  // namespace

Result<VacuumResult> VacuumRelation(Database& db, const std::string& name,
                                    TransactionNumber before_txn) {
  const Relation* relation = db.Find(name);
  if (relation == nullptr) {
    return UnknownIdentifierError("vacuum of undefined relation: " + name);
  }
  if (!RetainsHistory(relation->type())) {
    return InvalidArgumentError(
        "vacuum applies to rollback/temporal relations; '" + name + "' is " +
        std::string(RelationTypeName(relation->type())));
  }
  if (HoldsSnapshotStates(relation->type())) {
    return VacuumTyped<SnapshotState>(db, name, *relation, before_txn,
                                      &Relation::SnapshotAt);
  }
  return VacuumTyped<HistoricalState>(db, name, *relation, before_txn,
                                      &Relation::HistoricalAt);
}

Status AttachArchive(Database& db, const std::string& name,
                     std::string_view archive) {
  const Relation* relation = db.Find(name);
  if (relation == nullptr) {
    return UnknownIdentifierError("attach to undefined relation: " + name);
  }
  if (archive.size() < kMagicLen ||
      archive.substr(0, kMagicLen) != kArchiveMagic) {
    return CorruptionError("bad archive magic");
  }
  ByteReader reader(archive.substr(kMagicLen));
  TTRA_ASSIGN_OR_RETURN(std::string archived_name, reader.ReadString());
  if (archived_name != name) {
    return InvalidArgumentError("archive belongs to relation '" +
                                archived_name + "', not '" + name + "'");
  }
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  const bool snapshot_kind = kind == 0;
  if (kind > 1) return CorruptionError("bad archive state kind");
  if (snapshot_kind != HoldsSnapshotStates(relation->type())) {
    return TypeMismatchError(
        "archive state kind does not match relation type");
  }
  std::string_view sequence_blob =
      archive.substr(kMagicLen + 8 + archived_name.size() + 1);
  if (snapshot_kind) {
    return AttachTyped<SnapshotState>(db, name, *relation, sequence_blob,
                                      &Relation::SnapshotAt);
  }
  return AttachTyped<HistoricalState>(db, name, *relation, sequence_blob,
                                      &Relation::HistoricalAt);
}

}  // namespace ttra
