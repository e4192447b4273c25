#include "rollback/persistence.h"

#include "storage/serialize.h"
#include "util/hash.h"

namespace ttra {

namespace {

constexpr uint64_t kDbMagic = 0x7474726144423031ULL;  // "ttraDB01"
constexpr uint8_t kDbVersion = 1;

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutString(std::string_view s, std::string& out) {
  PutU64(s.size(), out);
  out.append(s);
}

void EncodeRelation(const std::string& name, const Relation& relation,
                    std::string& out) {
  PutString(name, out);
  out.push_back(static_cast<char>(relation.type()));
  // Scheme-version history.
  PutU64(relation.schema_history().size(), out);
  for (const auto& [schema, txn] : relation.schema_history()) {
    PutU64(txn, out);
    EncodeSchema(schema, out);
  }
  // Logical state sequence.
  PutU64(relation.history_length(), out);
  for (size_t i = 0; i < relation.history_length(); ++i) {
    const TransactionNumber txn = relation.TxnAt(i);
    PutU64(txn, out);
    if (HoldsSnapshotStates(relation.type())) {
      EncodeSnapshotState(*relation.SnapshotAt(txn), out);
    } else {
      EncodeHistoricalState(*relation.HistoricalAt(txn), out);
    }
  }
}

Result<std::pair<std::string, Relation>> DecodeRelation(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
  TTRA_ASSIGN_OR_RETURN(uint8_t type_tag, reader.ReadByte());
  if (type_tag > static_cast<uint8_t>(RelationType::kTemporal)) {
    return CorruptionError("invalid relation type tag");
  }
  const RelationType type = static_cast<RelationType>(type_tag);

  TTRA_ASSIGN_OR_RETURN(uint64_t schema_versions, reader.ReadCount());
  if (schema_versions == 0) {
    return CorruptionError("relation without a scheme");
  }
  std::vector<std::pair<Schema, TransactionNumber>> schemas;
  schemas.reserve(schema_versions);
  TransactionNumber last_schema_txn = 0;
  for (uint64_t i = 0; i < schema_versions; ++i) {
    TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
    if (i > 0 && txn <= last_schema_txn) {
      return CorruptionError("non-increasing scheme-version txns");
    }
    last_schema_txn = txn;
    TTRA_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(reader));
    schemas.emplace_back(std::move(schema), txn);
  }

  Relation relation =
      Relation::Make(type, schemas.front().first, schemas.front().second);

  TTRA_ASSIGN_OR_RETURN(uint64_t states, reader.ReadU64());
  size_t next_schema = 1;
  TransactionNumber last_state_txn = 0;
  for (uint64_t i = 0; i < states; ++i) {
    TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
    if (i > 0 && txn <= last_state_txn) {
      return CorruptionError("non-increasing state txns");
    }
    last_state_txn = txn;
    // Install any scheme versions that took effect up to this state.
    while (next_schema < schemas.size() &&
           schemas[next_schema].second <= txn) {
      Status status = relation.SetSchema(schemas[next_schema].first,
                                         schemas[next_schema].second);
      if (!status.ok()) {
        return CorruptionError("invalid scheme version: " + status.message());
      }
      ++next_schema;
    }
    Status status;
    if (HoldsSnapshotStates(type)) {
      TTRA_ASSIGN_OR_RETURN(SnapshotState state, DecodeSnapshotState(reader));
      status = relation.SetState(state, txn);
    } else {
      TTRA_ASSIGN_OR_RETURN(HistoricalState state,
                            DecodeHistoricalState(reader));
      status = relation.SetState(state, txn);
    }
    if (!status.ok()) {
      return CorruptionError("invalid state entry: " + status.message());
    }
  }
  // Trailing scheme versions after the last state.
  while (next_schema < schemas.size()) {
    Status status = relation.SetSchema(schemas[next_schema].first,
                                       schemas[next_schema].second);
    if (!status.ok()) {
      return CorruptionError("invalid scheme version: " + status.message());
    }
    ++next_schema;
  }
  return std::make_pair(std::move(name), std::move(relation));
}

}  // namespace

std::string EncodeDatabase(const Database& db) {
  std::string payload;
  PutU64(db.transaction_number(), payload);
  const std::vector<std::string> names = db.RelationNames();
  PutU64(names.size(), payload);
  for (const std::string& name : names) {
    EncodeRelation(name, *db.Find(name), payload);
  }
  std::string out;
  PutU64(kDbMagic, out);
  out.push_back(static_cast<char>(kDbVersion));
  PutU64(Fnv1a(payload), out);
  PutU64(payload.size(), out);
  out += payload;
  return out;
}

Result<Database> DecodeDatabase(std::string_view data,
                                DatabaseOptions options) {
  ByteReader header(data);
  TTRA_ASSIGN_OR_RETURN(uint64_t magic, header.ReadU64());
  if (magic != kDbMagic) return CorruptionError("bad database magic");
  TTRA_ASSIGN_OR_RETURN(uint8_t version, header.ReadByte());
  if (version != kDbVersion) {
    return CorruptionError("unsupported database format version " +
                           std::to_string(version));
  }
  TTRA_ASSIGN_OR_RETURN(uint64_t checksum, header.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t payload_size, header.ReadU64());
  if (header.position() + payload_size != data.size()) {
    return CorruptionError("database payload size mismatch");
  }
  std::string_view payload = data.substr(header.position());
  if (Fnv1a(payload) != checksum) {
    return CorruptionError("database checksum mismatch");
  }

  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t relation_count, reader.ReadU64());
  Database db(options);
  for (uint64_t i = 0; i < relation_count; ++i) {
    TTRA_ASSIGN_OR_RETURN(auto entry, DecodeRelation(reader));
    db.RestoreRelation(entry.first, std::move(entry.second));
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes after database payload");
  }
  db.RestoreTransactionNumber(txn);
  return db;
}

Status SaveDatabase(const Database& db, const std::string& path, Env* env) {
  const std::string bytes = EncodeDatabase(db);
  const std::string tmp = path + ".tmp";
  // Write-sync-rename: the content must be durable *before* the rename
  // publishes it, and the rename must be durable before we acknowledge —
  // otherwise a crash after the rename can still lose the file contents.
  TTRA_RETURN_IF_ERROR(env->Truncate(tmp));
  TTRA_RETURN_IF_ERROR(env->Append(tmp, bytes));
  TTRA_RETURN_IF_ERROR(env->Sync(tmp));
  return env->Rename(tmp, path);
}

Result<Database> LoadDatabase(const std::string& path, DatabaseOptions options,
                              Env* env) {
  TTRA_ASSIGN_OR_RETURN(std::string bytes, env->Read(path));
  return DecodeDatabase(bytes, options);
}

}  // namespace ttra
