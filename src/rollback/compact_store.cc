#include "rollback/compact_store.h"

#include <algorithm>
#include <set>
#include <utility>

#include "rollback/persistence.h"
#include "storage/wal.h"

namespace ttra {

namespace {

SegmentStateKind StateKindOf(RelationType type) {
  return HoldsSnapshotStates(type) ? SegmentStateKind::kSnapshotRows
                                   : SegmentStateKind::kHistoricalRows;
}

std::vector<std::pair<TransactionNumber, Schema>> ManifestSchemas(
    const Relation& rel) {
  std::vector<std::pair<TransactionNumber, Schema>> out;
  out.reserve(rel.schema_history().size());
  for (const auto& [schema, txn] : rel.schema_history()) {
    out.emplace_back(txn, schema);
  }
  return out;
}

/// The covered scheme history must still be a prefix of the live one;
/// anything else means the covered entries no longer describe this
/// relation (re-defined under the same name, archival vacuum, ...).
bool SchemaHistoryExtends(
    const std::vector<std::pair<Schema, TransactionNumber>>& live,
    const std::vector<std::pair<TransactionNumber, Schema>>& covered) {
  if (covered.size() > live.size()) return false;
  for (size_t i = 0; i < covered.size(); ++i) {
    if (live[i].second != covered[i].first ||
        !(live[i].first == covered[i].second)) {
      return false;
    }
  }
  return true;
}

template <typename StateT>
Result<StateT> RelationStateAt(const Relation& rel, TransactionNumber txn) {
  if constexpr (std::is_same_v<StateT, SnapshotState>) {
    return rel.SnapshotAt(txn);
  } else {
    return rel.HistoricalAt(txn);
  }
}

template <typename StateT>
StateT EmptyState(Schema schema) {
  if constexpr (std::is_same_v<StateT, SnapshotState>) {
    return SnapshotState::Empty(std::move(schema));
  } else {
    return HistoricalState::Empty(std::move(schema));
  }
}

/// Mirror of Relation::SchemaAt over manifest metadata: the last scheme
/// installed at or before txn, or the define-time scheme.
const Schema& ManifestSchemaAt(
    const std::vector<std::pair<TransactionNumber, Schema>>& history,
    TransactionNumber txn) {
  auto it = std::upper_bound(
      history.begin(), history.end(), txn,
      [](TransactionNumber t, const auto& e) { return t < e.first; });
  if (it == history.begin()) return history.front().second;
  return std::prev(it)->second;
}

/// Rebuilds a live Relation from its manifest metadata plus the decoded
/// segment sequence — the same scheme/state interleave replay the
/// full-copy decoder performs, so the loaded database is byte-equal to
/// the checkpointed one.
template <typename StateT>
Result<Relation> RebuildRelation(
    const ManifestRelation& meta,
    const std::vector<std::pair<StateT, TransactionNumber>>& sequence) {
  if (meta.relation_type > static_cast<uint8_t>(RelationType::kTemporal)) {
    return CorruptionError("invalid relation type tag in manifest");
  }
  const RelationType type = static_cast<RelationType>(meta.relation_type);
  if (StateKindOf(type) != meta.state_kind) {
    return CorruptionError("manifest state kind mismatches relation type");
  }
  const auto& schemas = meta.schema_history;
  Relation relation =
      Relation::Make(type, schemas.front().second, schemas.front().first);
  size_t next_schema = 1;
  for (const auto& [state, txn] : sequence) {
    while (next_schema < schemas.size() && schemas[next_schema].first <= txn) {
      Status status = relation.SetSchema(schemas[next_schema].second,
                                         schemas[next_schema].first);
      if (!status.ok()) {
        return CorruptionError("invalid scheme version: " + status.message());
      }
      ++next_schema;
    }
    Status status = relation.SetState(state, txn);
    if (!status.ok()) {
      return CorruptionError("invalid segment state entry: " +
                             status.message());
    }
  }
  while (next_schema < schemas.size()) {
    Status status = relation.SetSchema(schemas[next_schema].second,
                                       schemas[next_schema].first);
    if (!status.ok()) {
      return CorruptionError("invalid scheme version: " + status.message());
    }
    ++next_schema;
  }
  return relation;
}

}  // namespace

CompactStore::CompactStore(Env* env, std::string dir, CompactOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      manifest_(env, dir_ + "/" + kCompactManifestFile) {}

CompactStore::RelationEntry CompactStore::FreshEntry() const {
  RelationEntry entry;
  entry.snapshot_cache = std::make_shared<FindStateCache<SnapshotState>>(
      options_.probe_cache_capacity);
  entry.historical_cache = std::make_shared<FindStateCache<HistoricalState>>(
      options_.probe_cache_capacity);
  return entry;
}

Result<Database> CompactStore::Load(const DatabaseOptions& options) {
  const std::string legacy = dir_ + "/" + kLegacyCheckpointFile;
  const bool legacy_image = env_->Exists(legacy);
  legacy_checkpoint_ = legacy_image || env_->Exists(legacy + ".tmp");
  if (!env_->Exists(manifest_path())) {
    Database db(options);
    if (legacy_image) {
      TTRA_ASSIGN_OR_RETURN(db, LoadDatabase(legacy, options, env_));
    }
    MutexLock lock(mutex_);
    relations_.clear();
    db_txn_ = 0;
    next_sequence_ = 1;
    next_generation_ = 0;
    manifest_bytes_ = 0;
    armed_ = false;
    return db;
  }

  TTRA_ASSIGN_OR_RETURN(WalReadResult manifest_log,
                        ReadWal(*env_, manifest_path()));
  if (manifest_log.records_after_hole > 0) {
    return CorruptionError(
        "segments.manifest has intact records beyond a damaged one; "
        "refusing to guess which checkpoints to keep — run `ttra fsck`");
  }
  auto layout_or = FoldManifestRecords(manifest_log.records);
  if (!layout_or.ok()) {
    return CorruptionError(layout_or.status().message() +
                           " — run `ttra fsck`");
  }
  CompactLayout layout = *std::move(layout_or);

  Database db(options);
  std::map<std::string, RelationEntry> next;
  uint64_t max_generation = 0;
  for (const auto& [name, meta] : layout.relations) {
    if (meta.last_txn > layout.db_txn) {
      return CorruptionError(
          "segment entries beyond the checkpoint's transaction counter");
    }
    const std::string path = segment_path(name, meta.generation);
    if (!env_->Exists(path)) {
      return CorruptionError("missing segment file " + path +
                             " — run `ttra fsck`");
    }
    TTRA_ASSIGN_OR_RETURN(WalReadResult seg, ReadWal(*env_, path));
    if (seg.valid_size < meta.valid_bytes ||
        seg.records.size() < meta.entry_count) {
      return CorruptionError("segment " + path +
                             " is damaged inside its covered prefix — "
                             "run `ttra fsck`");
    }
    RelationEntry entry = FreshEntry();
    entry.meta = meta;
    if (meta.state_kind == SegmentStateKind::kSnapshotRows) {
      TTRA_ASSIGN_OR_RETURN(
          auto sequence,
          DecodeSegmentSequence<SnapshotState>(seg.records, meta));
      TTRA_ASSIGN_OR_RETURN(Relation relation,
                            RebuildRelation(meta, sequence));
      if (!sequence.empty()) {
        entry.snapshot_last = std::make_shared<const SnapshotState>(
            std::move(sequence.back().first));
      }
      db.RestoreRelation(name, std::move(relation));
    } else {
      TTRA_ASSIGN_OR_RETURN(
          auto sequence,
          DecodeSegmentSequence<HistoricalState>(seg.records, meta));
      TTRA_ASSIGN_OR_RETURN(Relation relation,
                            RebuildRelation(meta, sequence));
      if (!sequence.empty()) {
        entry.historical_last = std::make_shared<const HistoricalState>(
            std::move(sequence.back().first));
      }
      db.RestoreRelation(name, std::move(relation));
    }
    max_generation = std::max(max_generation, meta.generation);
    next.emplace(name, std::move(entry));
  }
  db.RestoreTransactionNumber(layout.db_txn);

  // Re-arm the appender at the valid watermark (a torn manifest tail is a
  // checkpoint that never committed — cut it, and any zero tail with it).
  if (manifest_log.torn_tail || manifest_log.zero_tail > 0) {
    TTRA_RETURN_IF_ERROR(
        env_->TruncateTo(manifest_path(), manifest_log.valid_size));
    TTRA_RETURN_IF_ERROR(env_->Sync(manifest_path()));
  }
  TTRA_RETURN_IF_ERROR(manifest_.OpenForAppend(manifest_log.valid_size));
  // A crash after the migrating manifest commit can leave the legacy
  // image behind; the manifest already supersedes it.
  RemoveLegacyCheckpoint();

  MutexLock lock(mutex_);
  relations_ = std::move(next);
  db_txn_ = layout.db_txn;
  next_sequence_ = layout.sequence + 1;
  next_generation_ = max_generation + 1;
  manifest_bytes_ = manifest_log.valid_size;
  armed_ = true;
  return db;
}

void CompactStore::RemoveLegacyCheckpoint() {
  if (!legacy_checkpoint_) return;
  // Best-effort: a leftover image is never read while a manifest exists,
  // and the next Load retries the removal.
  const std::string legacy = dir_ + "/" + kLegacyCheckpointFile;
  for (const std::string& path : {legacy, legacy + ".tmp"}) {
    if (env_->Exists(path)) env_->Remove(path).IgnoreError();
  }
  legacy_checkpoint_ = false;
}

Status CompactStore::SwapInManifest(const ManifestRecord& record) {
  const std::string tmp = manifest_path() + ".tmp";
  WalWriter tmp_writer(env_, tmp);
  TTRA_RETURN_IF_ERROR(tmp_writer.Create());
  TTRA_RETURN_IF_ERROR(tmp_writer.AddRecord(EncodeManifestRecord(record)));
  TTRA_RETURN_IF_ERROR(tmp_writer.Sync());
  TTRA_RETURN_IF_ERROR(env_->Rename(tmp, manifest_path()));
  return manifest_.OpenForAppend(tmp_writer.good_size());
}

template <typename StateT>
Status CompactStore::PersistStates(const std::string& name,
                                   const Relation& rel, RelationEntry& entry,
                                   bool fresh_file, uint64_t* appended) {
  // A covered segment with nothing new to append is already this
  // relation's checkpoint: leave it unopened and unread. (A retaining
  // relation appends its states past the covered prefix; any other one
  // appends its single state when that changed.)
  const size_t length = rel.history_length();
  const ManifestRelation& covered = entry.meta;
  const bool unchanged =
      RetainsHistory(rel.type())
          ? covered.entry_count >= length
          : length == 0 || (covered.entry_count > 0 &&
                            rel.TxnAt(length - 1) == covered.last_txn);
  if (!fresh_file && unchanged) return Status::Ok();
  SegmentWriter<StateT> writer(env_,
                               segment_path(name, entry.meta.generation),
                               options_.keyframe_interval);
  if (fresh_file) {
    TTRA_RETURN_IF_ERROR(writer.Create());
  } else {
    std::shared_ptr<const StateT> base;
    if constexpr (std::is_same_v<StateT, SnapshotState>) {
      base = entry.snapshot_last;
    } else {
      base = entry.historical_last;
    }
    TTRA_RETURN_IF_ERROR(writer.OpenAtWatermark(entry.meta, std::move(base)));
  }
  if (RetainsHistory(rel.type())) {
    for (size_t i = writer.entry_count(); i < rel.history_length(); ++i) {
      const TransactionNumber txn = rel.TxnAt(i);
      TTRA_ASSIGN_OR_RETURN(StateT state, RelationStateAt<StateT>(rel, txn));
      TTRA_RETURN_IF_ERROR(writer.Append(state, txn));
      ++*appended;
    }
  } else if (rel.history_length() > 0) {
    // Snapshot/historical relations replace their single state; the
    // segment appends each checkpointed replacement (load replays them
    // with ReplaceLast semantics, keeping only the latest).
    const TransactionNumber txn = rel.TxnAt(rel.history_length() - 1);
    if (writer.entry_count() == 0 || txn != writer.last_txn()) {
      TTRA_ASSIGN_OR_RETURN(StateT state, RelationStateAt<StateT>(rel, txn));
      TTRA_RETURN_IF_ERROR(writer.Append(state, txn));
      ++*appended;
    }
  }
  if (*appended > 0) {
    TTRA_RETURN_IF_ERROR(writer.Sync());
  }
  entry.meta.entry_count = writer.entry_count();
  entry.meta.valid_bytes = writer.valid_bytes();
  entry.meta.last_txn = writer.last_txn();
  entry.meta.keyframes = writer.keyframes();
  if constexpr (std::is_same_v<StateT, SnapshotState>) {
    entry.snapshot_last = writer.last_state();
  } else {
    entry.historical_last = writer.last_state();
  }
  return Status::Ok();
}

Status CompactStore::PersistRelation(const std::string& name,
                                     const Relation& rel,
                                     RelationEntry& entry, bool force_rewrite,
                                     uint64_t* appended) {
  const bool fresh_file = force_rewrite;
  entry.meta.name = name;
  entry.meta.relation_type = static_cast<uint8_t>(rel.type());
  entry.meta.state_kind = StateKindOf(rel.type());
  if (entry.meta.state_kind == SegmentStateKind::kSnapshotRows) {
    TTRA_RETURN_IF_ERROR(
        PersistStates<SnapshotState>(name, rel, entry, fresh_file, appended));
  } else {
    TTRA_RETURN_IF_ERROR(PersistStates<HistoricalState>(name, rel, entry,
                                                        fresh_file,
                                                        appended));
  }
  entry.meta.schema_history = ManifestSchemas(rel);
  return Status::Ok();
}

Status CompactStore::WriteCheckpoint(const Database& db) {
  std::map<std::string, RelationEntry> next;
  bool armed;
  uint64_t sequence;
  uint64_t generation_counter;
  TransactionNumber covered_txn;
  {
    MutexLock lock(mutex_);
    next = relations_;
    armed = armed_;
    sequence = next_sequence_;
    generation_counter = next_generation_;
    covered_txn = db_txn_;
  }

  ManifestRecord record;
  record.kind =
      armed ? ManifestRecordKind::kIncremental : ManifestRecordKind::kFull;
  record.sequence = sequence;
  record.db_txn = db.transaction_number();

  const std::vector<std::string> names = db.RelationNames();
  {
    const std::set<std::string> live(names.begin(), names.end());
    for (const auto& [name, entry] : next) {
      if (live.find(name) == live.end()) record.deleted.push_back(name);
    }
    for (const std::string& name : record.deleted) next.erase(name);
  }

  uint64_t appended_total = 0;
  for (const std::string& name : names) {
    const Relation* rel = db.Find(name);
    auto it = next.find(name);
    bool rewrite = it == next.end();
    if (!rewrite) {
      // The covered prefix must still be a prefix of the live history;
      // otherwise rewrite wholesale at a fresh generation.
      const ManifestRelation& meta = it->second.meta;
      bool consistent =
          meta.relation_type == static_cast<uint8_t>(rel->type()) &&
          SchemaHistoryExtends(rel->schema_history(), meta.schema_history);
      if (consistent && RetainsHistory(rel->type())) {
        consistent =
            meta.entry_count <= rel->history_length() &&
            (meta.entry_count == 0 ||
             rel->TxnAt(meta.entry_count - 1) == meta.last_txn);
      } else if (consistent && rel->history_length() > 0) {
        consistent = meta.entry_count == 0 ||
                     rel->TxnAt(rel->history_length() - 1) >= meta.last_txn;
      } else if (consistent) {
        consistent = meta.entry_count == 0;
      }
      if (!consistent) {
        rewrite = true;
        next.erase(it);
        it = next.end();
      }
    }
    if (it == next.end()) {
      RelationEntry fresh = FreshEntry();
      fresh.meta.generation = generation_counter++;
      it = next.emplace(name, std::move(fresh)).first;
    }
    RelationEntry& entry = it->second;
    const size_t covered_schemas = entry.meta.schema_history.size();
    const uint64_t covered_entries = rewrite ? 0 : entry.meta.entry_count;
    uint64_t appended = 0;
    TTRA_RETURN_IF_ERROR(
        PersistRelation(name, *rel, entry, rewrite, &appended));
    appended_total += appended;
    const bool dirty = rewrite || appended > 0 ||
                       entry.meta.schema_history.size() != covered_schemas ||
                       entry.meta.entry_count != covered_entries;
    if (dirty) record.relations.push_back(entry.meta);
  }

  if (armed && record.relations.empty() && record.deleted.empty() &&
      record.db_txn == covered_txn) {
    return Status::Ok();  // nothing changed since the covered checkpoint
  }

  // The manifest record is the commit point: segments are already synced
  // (PersistStates), so once this record is durable the checkpoint is.
  // The first record starts the manifest through a swap, so a crash never
  // leaves a manifest without a full record.
  if (!armed) {
    TTRA_RETURN_IF_ERROR(SwapInManifest(record));
  } else {
    Status append = manifest_.AddRecord(EncodeManifestRecord(record));
    if (!append.ok()) {
      // A failed append may have left a torn frame; cut back to the good
      // boundary so a later record cannot strand behind a hole. (Callers
      // still treat the failure as fail-stop-worthy.)
      manifest_.ResetTail().IgnoreError();
      return append;
    }
    TTRA_RETURN_IF_ERROR(manifest_.Sync());
  }
  RemoveLegacyCheckpoint();

  MutexLock lock(mutex_);
  relations_ = std::move(next);
  db_txn_ = record.db_txn;
  next_sequence_ = record.sequence + 1;
  next_generation_ = generation_counter;
  manifest_bytes_ = manifest_.good_size();
  armed_ = true;
  ++stats_.checkpoints;
  if (record.kind == ManifestRecordKind::kFull) ++stats_.full_records;
  stats_.relations_written += record.relations.size();
  stats_.entries_appended += appended_total;
  return Status::Ok();
}

Status CompactStore::Compact(const Database& db) {
  uint64_t sequence;
  uint64_t generation_counter;
  {
    MutexLock lock(mutex_);
    sequence = next_sequence_;
    generation_counter = next_generation_;
  }

  ManifestRecord record;
  record.kind = ManifestRecordKind::kFull;
  record.sequence = sequence;
  record.db_txn = db.transaction_number();

  std::map<std::string, RelationEntry> next;
  uint64_t appended_total = 0;
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = db.Find(name);
    RelationEntry entry = FreshEntry();
    entry.meta.generation = generation_counter++;
    uint64_t appended = 0;
    TTRA_RETURN_IF_ERROR(
        PersistRelation(name, *rel, entry, /*force_rewrite=*/true,
                        &appended));
    appended_total += appended;
    record.relations.push_back(entry.meta);
    next.emplace(name, std::move(entry));
  }

  TTRA_RETURN_IF_ERROR(SwapInManifest(record));
  RemoveLegacyCheckpoint();

  {
    MutexLock lock(mutex_);
    relations_ = std::move(next);
    db_txn_ = record.db_txn;
    next_sequence_ = record.sequence + 1;
    next_generation_ = generation_counter;
    manifest_bytes_ = manifest_.good_size();
    armed_ = true;
    ++stats_.compactions;
    ++stats_.checkpoints;
    ++stats_.full_records;
    stats_.relations_written += record.relations.size();
    stats_.entries_appended += appended_total;
  }

  // Superseded generations are garbage now; removal is best-effort (a
  // failure only wastes space until the next compaction).
  auto listing = env_->List(dir_);
  if (listing.ok()) {
    std::set<std::string> keep;
    for (const ManifestRelation& rel : record.relations) {
      keep.insert(SegmentFileName(rel.name, rel.generation));
    }
    for (const std::string& file : *listing) {
      if (IsSegmentFileName(file) && keep.find(file) == keep.end()) {
        // Best-effort: an unreferenced generation left behind is only
        // wasted space, never read again.
        env_->Remove(dir_ + "/" + file).IgnoreError();
      }
    }
  }
  return Status::Ok();
}

template <typename StateT>
Result<StateT> CompactStore::ProbeState(
    const std::string& name, TransactionNumber txn,
    SegmentStateKind expected_kind,
    std::shared_ptr<FindStateCache<StateT>> RelationEntry::* cache_member) {
  for (int attempt = 0;; ++attempt) {
    RelationEntry entry;
    {
      MutexLock lock(mutex_);
      if (attempt == 0) ++stats_.probes;
      auto it = relations_.find(name);
      if (it == relations_.end()) {
        return UnknownIdentifierError("no relation named " + name +
                                      " in the compact manifest");
      }
      entry = it->second;
    }
    if (entry.meta.state_kind != expected_kind) {
      return InvalidRollbackError("relation " + name +
                                  " holds the other state domain");
    }
    auto read = ReadWal(*env_, segment_path(name, entry.meta.generation));
    if (!read.ok()) {
      // An online compaction can swap generations between the metadata
      // copy and the file read; one retry sees the new generation.
      if (attempt == 0) continue;
      return read.status();
    }
    TTRA_ASSIGN_OR_RETURN(SegmentFloor floor,
                          FindSegmentFloor(read->records, entry.meta, txn));
    if (!floor.found) {
      // ρ before the first recorded state: empty over the then-current
      // scheme — exactly Relation::SnapshotAt/HistoricalAt semantics.
      return EmptyState<StateT>(
          ManifestSchemaAt(entry.meta.schema_history, txn));
    }
    const auto& cache = entry.*cache_member;
    if (auto hit = cache->Get(floor.ordinal)) {
      MutexLock lock(mutex_);
      ++stats_.probe_cache_hits;
      return *hit;
    }
    const auto seed = cache->Floor(floor.ordinal);
    TTRA_ASSIGN_OR_RETURN(
        SegmentProbeResult<StateT> probe,
        ProbeSegment<StateT>(read->records, entry.meta, txn,
                             seed ? seed->second.get() : nullptr,
                             seed ? seed->first : 0));
    cache->Put(floor.ordinal, std::make_shared<const StateT>(probe.state));
    {
      MutexLock lock(mutex_);
      stats_.probe_decoded_entries += probe.decoded_entries;
    }
    return std::move(probe.state);
  }
}

Result<SnapshotState> CompactStore::ProbeSnapshot(const std::string& name,
                                                  TransactionNumber txn) {
  return ProbeState<SnapshotState>(name, txn,
                                   SegmentStateKind::kSnapshotRows,
                                   &RelationEntry::snapshot_cache);
}

Result<HistoricalState> CompactStore::ProbeHistorical(const std::string& name,
                                                      TransactionNumber txn) {
  return ProbeState<HistoricalState>(name, txn,
                                     SegmentStateKind::kHistoricalRows,
                                     &RelationEntry::historical_cache);
}

CompactStore::Stats CompactStore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

TransactionNumber CompactStore::checkpoint_txn() const {
  MutexLock lock(mutex_);
  return db_txn_;
}

uint64_t CompactStore::ApproxBytes() const {
  MutexLock lock(mutex_);
  uint64_t total = manifest_bytes_;
  for (const auto& [name, entry] : relations_) {
    total += entry.meta.valid_bytes;
  }
  return total;
}

}  // namespace ttra
