#include "storage/segment.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace ttra {

namespace {

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutString(std::string_view s, std::string& out) {
  PutU64(s.size(), out);
  out.append(s);
}

bool PlainNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

/// Per-row codec: snapshot rows are tuples, historical rows are tuples
/// stamped with their temporal element. Both decode standalone (no
/// schema), which is what lets delta bodies validate structurally.
void EncodeRow(const Tuple& row, std::string& out) { EncodeTuple(row, out); }

void EncodeRow(const HistoricalTuple& row, std::string& out) {
  EncodeTuple(row.tuple, out);
  EncodeTemporalElement(row.valid, out);
}

template <typename RowT>
Result<RowT> DecodeRow(ByteReader& reader);

template <>
Result<Tuple> DecodeRow<Tuple>(ByteReader& reader) {
  return DecodeTuple(reader);
}

template <>
Result<HistoricalTuple> DecodeRow<HistoricalTuple>(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(Tuple tuple, DecodeTuple(reader));
  TTRA_ASSIGN_OR_RETURN(TemporalElement valid, DecodeTemporalElement(reader));
  return HistoricalTuple{std::move(tuple), std::move(valid)};
}

void EncodeStateBody(const SnapshotState& state, std::string& out) {
  EncodeSnapshotState(state, out);
}

void EncodeStateBody(const HistoricalState& state, std::string& out) {
  EncodeHistoricalState(state, out);
}

Result<SnapshotState> DecodeStateBody(ByteReader& reader,
                                      const SnapshotState*) {
  return DecodeSnapshotState(reader);
}

Result<HistoricalState> DecodeStateBody(ByteReader& reader,
                                        const HistoricalState*) {
  return DecodeHistoricalState(reader);
}

template <typename RowT>
Result<std::vector<RowT>> DecodeRowList(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<RowT> rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(RowT row, DecodeRow<RowT>(reader));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// [u8 kind][u64 txn] prefix of every entry payload.
constexpr size_t kEntryHeaderSize = 9;

void PutEntryHeader(SegmentEntryKind kind, TransactionNumber txn,
                    std::string& out) {
  out.push_back(static_cast<char>(kind));
  PutU64(txn, out);
}

template <typename StateT>
Status ValidateEntryBody(std::string_view payload) {
  using Row = typename StateTraits<StateT>::Row;
  TTRA_ASSIGN_OR_RETURN(SegmentEntryHeader header,
                        PeekSegmentEntry(payload));
  ByteReader reader(payload.substr(kEntryHeaderSize));
  if (header.kind == SegmentEntryKind::kKeyframe) {
    TTRA_RETURN_IF_ERROR(
        DecodeStateBody(reader, static_cast<const StateT*>(nullptr))
            .status());
  } else {
    TTRA_RETURN_IF_ERROR(DecodeRowList<Row>(reader).status());
    TTRA_RETURN_IF_ERROR(DecodeRowList<Row>(reader).status());
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes after segment entry");
  }
  return Status::Ok();
}

}  // namespace

std::string SegmentFileName(std::string_view relation, uint64_t generation) {
  std::string out = "seg-";
  for (char c : relation) {
    if (PlainNameChar(c)) {
      out.push_back(c);
    } else {
      static const char kHex[] = "0123456789abcdef";
      out.push_back('%');
      out.push_back(kHex[static_cast<unsigned char>(c) >> 4]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  out.push_back('.');
  out += std::to_string(generation);
  out += ".seg";
  return out;
}

bool IsSegmentFileName(std::string_view file) {
  return file.size() > 8 && file.substr(0, 4) == "seg-" &&
         file.substr(file.size() - 4) == ".seg";
}

Result<SegmentEntryHeader> PeekSegmentEntry(std::string_view payload) {
  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  if (kind > static_cast<uint8_t>(SegmentEntryKind::kDelta)) {
    return CorruptionError("invalid segment entry kind");
  }
  TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
  return SegmentEntryHeader{static_cast<SegmentEntryKind>(kind), txn};
}

template <typename StateT>
std::string EncodeKeyframeEntry(const StateT& state, TransactionNumber txn) {
  std::string out;
  PutEntryHeader(SegmentEntryKind::kKeyframe, txn, out);
  EncodeStateBody(state, out);
  return out;
}

template <typename StateT>
std::string EncodeDeltaEntry(const StateT& prev, const StateT& next,
                             TransactionNumber txn) {
  using Row = typename StateTraits<StateT>::Row;
  const std::vector<Row>& old_rows = StateTraits<StateT>::Rows(prev);
  const std::vector<Row>& new_rows = StateTraits<StateT>::Rows(next);
  std::vector<Row> removed;
  std::vector<Row> added;
  std::set_difference(old_rows.begin(), old_rows.end(), new_rows.begin(),
                      new_rows.end(), std::back_inserter(removed));
  std::set_difference(new_rows.begin(), new_rows.end(), old_rows.begin(),
                      old_rows.end(), std::back_inserter(added));
  std::string out;
  PutEntryHeader(SegmentEntryKind::kDelta, txn, out);
  PutU64(removed.size(), out);
  for (const Row& row : removed) EncodeRow(row, out);
  PutU64(added.size(), out);
  for (const Row& row : added) EncodeRow(row, out);
  return out;
}

template <typename StateT>
Result<StateT> DecodeSegmentEntry(std::string_view payload,
                                  const StateT* prev) {
  using Row = typename StateTraits<StateT>::Row;
  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint8_t kind_byte, reader.ReadByte());
  if (kind_byte > static_cast<uint8_t>(SegmentEntryKind::kDelta)) {
    return CorruptionError("invalid segment entry kind");
  }
  TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
  (void)txn;
  if (static_cast<SegmentEntryKind>(kind_byte) ==
      SegmentEntryKind::kKeyframe) {
    TTRA_ASSIGN_OR_RETURN(
        StateT state,
        DecodeStateBody(reader, static_cast<const StateT*>(nullptr)));
    if (!reader.AtEnd()) {
      return CorruptionError("trailing bytes after keyframe entry");
    }
    return state;
  }
  if (prev == nullptr) {
    return CorruptionError("delta entry without a preceding state");
  }
  TTRA_ASSIGN_OR_RETURN(std::vector<Row> removed, DecodeRowList<Row>(reader));
  TTRA_ASSIGN_OR_RETURN(std::vector<Row> added, DecodeRowList<Row>(reader));
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes after delta entry");
  }
  // rows(next) = (rows(prev) − removed) ∪ added; all three operands are
  // sorted and the sets disjoint by construction, so the result is again
  // canonical and the trusted constructor applies. Kept rows are copies of
  // prev's, so they share its tuple payloads.
  const std::vector<Row>& prev_rows = StateTraits<StateT>::Rows(*prev);
  std::vector<Row> kept;
  kept.reserve(prev_rows.size());
  std::set_difference(prev_rows.begin(), prev_rows.end(), removed.begin(),
                      removed.end(), std::back_inserter(kept));
  std::vector<Row> rows;
  rows.reserve(kept.size() + added.size());
  std::merge(std::make_move_iterator(kept.begin()),
             std::make_move_iterator(kept.end()),
             std::make_move_iterator(added.begin()),
             std::make_move_iterator(added.end()), std::back_inserter(rows));
  return StateTraits<StateT>::FromRows(prev->schema(), std::move(rows));
}

Status ValidateSegmentEntry(SegmentStateKind kind, std::string_view payload) {
  if (kind == SegmentStateKind::kSnapshotRows) {
    return ValidateEntryBody<SnapshotState>(payload);
  }
  return ValidateEntryBody<HistoricalState>(payload);
}

// ---------------------------------------------------------------------------
// Manifest records
// ---------------------------------------------------------------------------

std::string EncodeManifestRecord(const ManifestRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(record.kind));
  PutU64(record.sequence, out);
  PutU64(record.db_txn, out);
  PutU64(record.relations.size(), out);
  for (const ManifestRelation& rel : record.relations) {
    PutString(rel.name, out);
    out.push_back(static_cast<char>(rel.relation_type));
    out.push_back(static_cast<char>(rel.state_kind));
    PutU64(rel.generation, out);
    PutU64(rel.entry_count, out);
    PutU64(rel.valid_bytes, out);
    PutU64(rel.last_txn, out);
    PutU64(rel.schema_history.size(), out);
    for (const auto& [txn, schema] : rel.schema_history) {
      PutU64(txn, out);
      EncodeSchema(schema, out);
    }
    PutU64(rel.keyframes.size(), out);
    for (const SegmentKeyframe& kf : rel.keyframes) {
      PutU64(kf.ordinal, out);
      PutU64(kf.txn, out);
      PutU64(kf.offset, out);
    }
  }
  PutU64(record.deleted.size(), out);
  for (const std::string& name : record.deleted) PutString(name, out);
  return out;
}

Result<ManifestRecord> DecodeManifestRecord(std::string_view payload) {
  ByteReader reader(payload);
  ManifestRecord record;
  TTRA_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadByte());
  if (kind > static_cast<uint8_t>(ManifestRecordKind::kIncremental)) {
    return CorruptionError("invalid manifest record kind");
  }
  record.kind = static_cast<ManifestRecordKind>(kind);
  TTRA_ASSIGN_OR_RETURN(record.sequence, reader.ReadU64());
  TTRA_ASSIGN_OR_RETURN(record.db_txn, reader.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t relation_count, reader.ReadU64());
  for (uint64_t i = 0; i < relation_count; ++i) {
    ManifestRelation rel;
    TTRA_ASSIGN_OR_RETURN(rel.name, reader.ReadString());
    TTRA_ASSIGN_OR_RETURN(rel.relation_type, reader.ReadByte());
    TTRA_ASSIGN_OR_RETURN(uint8_t state_kind, reader.ReadByte());
    if (state_kind > static_cast<uint8_t>(SegmentStateKind::kHistoricalRows)) {
      return CorruptionError("invalid segment state kind");
    }
    rel.state_kind = static_cast<SegmentStateKind>(state_kind);
    TTRA_ASSIGN_OR_RETURN(rel.generation, reader.ReadU64());
    TTRA_ASSIGN_OR_RETURN(rel.entry_count, reader.ReadU64());
    TTRA_ASSIGN_OR_RETURN(rel.valid_bytes, reader.ReadU64());
    TTRA_ASSIGN_OR_RETURN(rel.last_txn, reader.ReadU64());
    TTRA_ASSIGN_OR_RETURN(uint64_t schema_versions, reader.ReadU64());
    if (schema_versions == 0) {
      return CorruptionError("manifest relation without a scheme");
    }
    for (uint64_t s = 0; s < schema_versions; ++s) {
      TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
      if (s > 0 && txn <= rel.schema_history.back().first) {
        return CorruptionError("non-increasing manifest scheme txns");
      }
      TTRA_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(reader));
      rel.schema_history.emplace_back(txn, std::move(schema));
    }
    TTRA_ASSIGN_OR_RETURN(uint64_t keyframe_count, reader.ReadU64());
    for (uint64_t k = 0; k < keyframe_count; ++k) {
      SegmentKeyframe kf;
      TTRA_ASSIGN_OR_RETURN(kf.ordinal, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(kf.txn, reader.ReadU64());
      TTRA_ASSIGN_OR_RETURN(kf.offset, reader.ReadU64());
      if (k > 0 && (kf.ordinal <= rel.keyframes.back().ordinal ||
                    kf.txn <= rel.keyframes.back().txn ||
                    kf.offset <= rel.keyframes.back().offset)) {
        return CorruptionError("misordered manifest interval index");
      }
      rel.keyframes.push_back(kf);
    }
    if (rel.entry_count > 0) {
      if (rel.keyframes.empty() || rel.keyframes.front().ordinal != 0) {
        return CorruptionError("manifest interval index misses entry 0");
      }
      if (rel.keyframes.back().ordinal >= rel.entry_count ||
          rel.last_txn < rel.keyframes.back().txn) {
        return CorruptionError("manifest interval index beyond watermark");
      }
    } else if (!rel.keyframes.empty()) {
      return CorruptionError("manifest interval index for empty segment");
    }
    record.relations.push_back(std::move(rel));
  }
  TTRA_ASSIGN_OR_RETURN(uint64_t deleted_count, reader.ReadU64());
  for (uint64_t i = 0; i < deleted_count; ++i) {
    TTRA_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    record.deleted.push_back(std::move(name));
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes after manifest record");
  }
  return record;
}

Result<CompactLayout> FoldManifestRecords(
    const std::vector<std::string>& payloads) {
  CompactLayout layout;
  bool have_full = false;
  bool first = true;
  for (const std::string& payload : payloads) {
    TTRA_ASSIGN_OR_RETURN(ManifestRecord record,
                          DecodeManifestRecord(payload));
    if (!first && record.sequence <= layout.sequence) {
      return CorruptionError("misordered manifest sequence numbers");
    }
    if (!first && record.db_txn < layout.db_txn) {
      return CorruptionError("manifest transaction counter went backwards");
    }
    if (record.kind == ManifestRecordKind::kFull) {
      layout.relations.clear();
      have_full = true;
    } else if (!have_full) {
      return CorruptionError("manifest chain has no full base record");
    }
    for (const ManifestRelation& rel : record.relations) {
      layout.relations.insert_or_assign(rel.name, rel);
    }
    for (const std::string& name : record.deleted) {
      layout.relations.erase(name);
    }
    layout.sequence = record.sequence;
    layout.db_txn = record.db_txn;
    first = false;
  }
  if (first) {
    return CorruptionError("empty manifest: no checkpoint records");
  }
  return layout;
}

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

template <typename StateT>
SegmentWriter<StateT>::SegmentWriter(Env* env, std::string path,
                                     size_t keyframe_interval)
    : env_(env),
      path_(std::move(path)),
      wal_(env, path_),
      keyframe_interval_(keyframe_interval == 0 ? 1 : keyframe_interval) {}

template <typename StateT>
Status SegmentWriter<StateT>::Create() {
  entries_ = 0;
  since_keyframe_ = 0;
  last_txn_ = 0;
  last_.reset();
  keyframes_.clear();
  return wal_.Create();
}

template <typename StateT>
Status SegmentWriter<StateT>::OpenAtWatermark(
    const ManifestRelation& meta, std::shared_ptr<const StateT> last) {
  TTRA_ASSIGN_OR_RETURN(std::string data, env_->Read(path_));
  if (data.size() < meta.valid_bytes) {
    return CorruptionError("segment shorter than its manifest watermark: " +
                           path_);
  }
  if (meta.entry_count > 0 && last == nullptr) {
    return InternalError("segment watermark without a delta base");
  }
  if (data.size() > meta.valid_bytes) {
    // A checkpoint died after appending but before its manifest record:
    // the bytes beyond the watermark were never covered. Cut them so the
    // next append extends the covered prefix.
    TTRA_RETURN_IF_ERROR(env_->TruncateTo(path_, meta.valid_bytes));
    TTRA_RETURN_IF_ERROR(env_->Sync(path_));
  }
  TTRA_RETURN_IF_ERROR(wal_.OpenForAppend(meta.valid_bytes));
  entries_ = meta.entry_count;
  last_txn_ = meta.last_txn;
  last_ = std::move(last);
  keyframes_ = meta.keyframes;
  since_keyframe_ =
      entries_ == 0 ? 0 : entries_ - (keyframes_.back().ordinal + 1);
  return Status::Ok();
}

template <typename StateT>
Status SegmentWriter<StateT>::Append(const StateT& state,
                                     TransactionNumber txn) {
  if (entries_ > 0 && txn <= last_txn_) {
    return InternalError("non-increasing transaction number in segment");
  }
  const bool keyframe = last_ == nullptr ||
                        since_keyframe_ + 1 >= keyframe_interval_ ||
                        !(state.schema() == last_->schema());
  const uint64_t offset = wal_.good_size();
  const std::string payload =
      keyframe ? EncodeKeyframeEntry(state, txn)
               : EncodeDeltaEntry(*last_, state, txn);
  TTRA_RETURN_IF_ERROR(wal_.AddRecord(payload));
  if (keyframe) {
    keyframes_.push_back(SegmentKeyframe{entries_, txn, offset});
    since_keyframe_ = 0;
  } else {
    ++since_keyframe_;
  }
  last_ = std::make_shared<const StateT>(state);
  last_txn_ = txn;
  ++entries_;
  return Status::Ok();
}

template <typename StateT>
Status SegmentWriter<StateT>::Sync() {
  return wal_.Sync();
}

// ---------------------------------------------------------------------------
// Segment reading
// ---------------------------------------------------------------------------

template <typename StateT>
Result<std::vector<std::pair<StateT, TransactionNumber>>>
DecodeSegmentSequence(const std::vector<std::string>& records,
                      const ManifestRelation& meta) {
  if (records.size() < meta.entry_count) {
    return CorruptionError(
        "segment holds fewer entries than its manifest watermark");
  }
  std::vector<std::pair<StateT, TransactionNumber>> sequence;
  sequence.reserve(meta.entry_count);
  for (uint64_t i = 0; i < meta.entry_count; ++i) {
    TTRA_ASSIGN_OR_RETURN(SegmentEntryHeader header,
                          PeekSegmentEntry(records[i]));
    if (i == 0 && header.kind != SegmentEntryKind::kKeyframe) {
      return CorruptionError("segment does not start with a keyframe");
    }
    if (i > 0 && header.txn <= sequence.back().second) {
      return CorruptionError("non-increasing transaction numbers in segment");
    }
    const StateT* prev = i == 0 ? nullptr : &sequence.back().first;
    TTRA_ASSIGN_OR_RETURN(StateT state,
                          DecodeSegmentEntry<StateT>(records[i], prev));
    sequence.emplace_back(std::move(state), header.txn);
  }
  if (meta.entry_count > 0 && sequence.back().second != meta.last_txn) {
    return CorruptionError("segment tail transaction mismatches manifest");
  }
  return sequence;
}

Result<SegmentFloor> FindSegmentFloor(const std::vector<std::string>& records,
                                      const ManifestRelation& meta,
                                      TransactionNumber txn) {
  SegmentFloor floor;
  if (meta.entry_count == 0) return floor;
  if (records.size() < meta.entry_count) {
    return CorruptionError(
        "segment holds fewer entries than its manifest watermark");
  }
  // Interval-index probe: the last keyframe at or before txn.
  auto it = std::upper_bound(
      meta.keyframes.begin(), meta.keyframes.end(), txn,
      [](TransactionNumber t, const SegmentKeyframe& kf) {
        return t < kf.txn;
      });
  if (it == meta.keyframes.begin()) return floor;
  const SegmentKeyframe& kf = *std::prev(it);
  // Header-only walk to the floor entry (the last one with txn' <= txn);
  // bodies stay untouched.
  floor.found = true;
  floor.keyframe_ordinal = kf.ordinal;
  floor.ordinal = kf.ordinal;
  floor.txn = kf.txn;
  for (uint64_t o = kf.ordinal + 1; o < meta.entry_count; ++o) {
    TTRA_ASSIGN_OR_RETURN(SegmentEntryHeader header,
                          PeekSegmentEntry(records[o]));
    if (header.txn > txn) break;
    floor.ordinal = o;
    floor.txn = header.txn;
  }
  return floor;
}

template <typename StateT>
Result<SegmentProbeResult<StateT>> ProbeSegment(
    const std::vector<std::string>& records, const ManifestRelation& meta,
    TransactionNumber txn, const StateT* seed, uint64_t seed_ordinal) {
  TTRA_ASSIGN_OR_RETURN(SegmentFloor floor,
                        FindSegmentFloor(records, meta, txn));
  SegmentProbeResult<StateT> result;
  if (!floor.found) return result;
  result.found = true;
  result.ordinal = floor.ordinal;
  result.txn = floor.txn;
  // Replay from the cache seed when it sits between the keyframe and the
  // floor — shorter than the keyframe replay.
  StateT state;
  uint64_t start;
  if (seed != nullptr && seed_ordinal >= floor.keyframe_ordinal &&
      seed_ordinal <= floor.ordinal) {
    state = *seed;
    start = seed_ordinal + 1;
  } else {
    TTRA_ASSIGN_OR_RETURN(
        state,
        DecodeSegmentEntry<StateT>(records[floor.keyframe_ordinal], nullptr));
    ++result.decoded_entries;
    start = floor.keyframe_ordinal + 1;
  }
  for (uint64_t o = start; o <= floor.ordinal; ++o) {
    TTRA_ASSIGN_OR_RETURN(state,
                          DecodeSegmentEntry<StateT>(records[o], &state));
    ++result.decoded_entries;
  }
  result.state = std::move(state);
  return result;
}

// Explicit instantiations: segments hold exactly the two state domains.
template std::string EncodeKeyframeEntry<SnapshotState>(const SnapshotState&,
                                                        TransactionNumber);
template std::string EncodeKeyframeEntry<HistoricalState>(
    const HistoricalState&, TransactionNumber);
template std::string EncodeDeltaEntry<SnapshotState>(const SnapshotState&,
                                                     const SnapshotState&,
                                                     TransactionNumber);
template std::string EncodeDeltaEntry<HistoricalState>(const HistoricalState&,
                                                       const HistoricalState&,
                                                       TransactionNumber);
template Result<SnapshotState> DecodeSegmentEntry<SnapshotState>(
    std::string_view, const SnapshotState*);
template Result<HistoricalState> DecodeSegmentEntry<HistoricalState>(
    std::string_view, const HistoricalState*);
template class SegmentWriter<SnapshotState>;
template class SegmentWriter<HistoricalState>;
template Result<std::vector<std::pair<SnapshotState, TransactionNumber>>>
DecodeSegmentSequence<SnapshotState>(const std::vector<std::string>&,
                                     const ManifestRelation&);
template Result<std::vector<std::pair<HistoricalState, TransactionNumber>>>
DecodeSegmentSequence<HistoricalState>(const std::vector<std::string>&,
                                       const ManifestRelation&);
template Result<SegmentProbeResult<SnapshotState>> ProbeSegment<SnapshotState>(
    const std::vector<std::string>&, const ManifestRelation&,
    TransactionNumber, const SnapshotState*, uint64_t);
template Result<SegmentProbeResult<HistoricalState>>
ProbeSegment<HistoricalState>(const std::vector<std::string>&,
                              const ManifestRelation&, TransactionNumber,
                              const HistoricalState*, uint64_t);

}  // namespace ttra
