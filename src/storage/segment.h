#ifndef TTRA_STORAGE_SEGMENT_H_
#define TTRA_STORAGE_SEGMENT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/serialize.h"
#include "storage/wal.h"

namespace ttra {

/// Compact on-disk form of a relation's state sequence (DESIGN.md §16):
/// one *segment file* per relation holding delta-encoded entries with
/// periodic keyframes, plus a shared WAL-framed *manifest* whose records
/// are incremental checkpoints chaining back to the last full one. Both
/// file kinds reuse the WAL frame (length + FNV-1a checksum per record),
/// so torn tails and bit rot classify exactly like WAL damage.
///
/// This layer is storage-only: relation *types* travel through it as an
/// opaque tag; the one semantic bit storage needs — whether segment
/// entries carry snapshot or historical rows — is its own explicit tag.

/// The manifest of a compact directory (presence marks the layout).
inline constexpr char kCompactManifestFile[] = "segments.manifest";

/// The full-copy checkpoint image (SaveDatabase format) that directories
/// written before the compact layout became the only one still hold.
/// Nothing writes it any more: CompactStore::Load reads it once when no
/// manifest exists, and the first manifest commit after that removes it.
/// fsck validates it, because recovery reads it.
inline constexpr char kLegacyCheckpointFile[] = "checkpoint.db";

/// "seg-<escaped relation name>.<generation>.seg". Escaping keeps names
/// with path-hostile characters on one flat directory level.
std::string SegmentFileName(std::string_view relation, uint64_t generation);

/// True for any file SegmentFileName could have produced (cleanup scans).
bool IsSegmentFileName(std::string_view file);

/// What a segment's entry payloads hold — snapshot rows (tuples) or
/// historical rows (tuple + temporal element).
enum class SegmentStateKind : uint8_t {
  kSnapshotRows = 0,
  kHistoricalRows = 1,
};

/// One interval-index entry: entry `ordinal` is a keyframe for
/// transaction time `txn`, at byte `offset` of the segment file. FINDSTATE
/// binary-searches these by txn and replays forward from the keyframe.
struct SegmentKeyframe {
  uint64_t ordinal = 0;
  TransactionNumber txn = 0;
  uint64_t offset = 0;
};

/// Entry payload layout: [u8 kind][u64 txn][body].
enum class SegmentEntryKind : uint8_t {
  /// Body = the full encoded state (schema + rows).
  kKeyframe = 0,
  /// Body = rows removed then rows added vs the previous entry (which, by
  /// construction, shares this entry's schema: schema changes force a
  /// keyframe).
  kDelta = 1,
};

struct SegmentEntryHeader {
  SegmentEntryKind kind = SegmentEntryKind::kKeyframe;
  TransactionNumber txn = 0;
};

/// Reads an entry's kind and transaction number without touching the body
/// — the cheap probe-path walk.
Result<SegmentEntryHeader> PeekSegmentEntry(std::string_view payload);

template <typename StateT>
std::string EncodeKeyframeEntry(const StateT& state, TransactionNumber txn);

/// Requires next.schema() == prev.schema() (callers keyframe on change).
template <typename StateT>
std::string EncodeDeltaEntry(const StateT& prev, const StateT& next,
                             TransactionNumber txn);

/// Decodes one entry. `prev` is the reconstructed previous entry's state;
/// required for deltas, ignored for keyframes.
template <typename StateT>
Result<StateT> DecodeSegmentEntry(std::string_view payload,
                                  const StateT* prev);

/// Structural validation for salvage: the payload must fully decode as an
/// entry of the given state kind (rows of a delta decode standalone).
Status ValidateSegmentEntry(SegmentStateKind kind, std::string_view payload);

// ---------------------------------------------------------------------------
// Manifest records
// ---------------------------------------------------------------------------

enum class ManifestRecordKind : uint8_t {
  /// Complete catalog: replaces everything before it (written by the
  /// first checkpoint and by every online compaction).
  kFull = 0,
  /// Only the relations dirtied since the previous record, plus deletes.
  kIncremental = 1,
};

/// Per-relation checkpoint metadata. `entry_count`/`valid_bytes` are the
/// covered watermark of the segment file: bytes beyond them are a torn
/// in-progress checkpoint, not damage. `keyframes` is the cumulative
/// interval index over the covered entries.
struct ManifestRelation {
  std::string name;
  uint8_t relation_type = 0;  // opaque rollback-layer tag
  SegmentStateKind state_kind = SegmentStateKind::kSnapshotRows;
  uint64_t generation = 0;
  uint64_t entry_count = 0;
  uint64_t valid_bytes = 0;
  TransactionNumber last_txn = 0;
  /// (install txn, schema) pairs, strictly increasing.
  std::vector<std::pair<TransactionNumber, Schema>> schema_history;
  std::vector<SegmentKeyframe> keyframes;
};

struct ManifestRecord {
  ManifestRecordKind kind = ManifestRecordKind::kFull;
  /// Strictly increasing per manifest file; detects misordered records.
  uint64_t sequence = 0;
  /// Database transaction counter as of this checkpoint.
  TransactionNumber db_txn = 0;
  std::vector<ManifestRelation> relations;
  /// Names dropped since the previous record (incremental only).
  std::vector<std::string> deleted;
};

std::string EncodeManifestRecord(const ManifestRecord& record);
Result<ManifestRecord> DecodeManifestRecord(std::string_view payload);

/// The folded view of a manifest: the latest full record plus every
/// incremental after it, latest-wins per relation.
struct CompactLayout {
  uint64_t sequence = 0;
  TransactionNumber db_txn = 0;
  std::map<std::string, ManifestRelation> relations;
};

Result<CompactLayout> FoldManifestRecords(
    const std::vector<std::string>& payloads);

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

/// Appender for one relation's segment file. Holds the last appended
/// state (copy-on-write — a pointer copy) as the delta base, and forces a
/// keyframe first, every `keyframe_interval` entries, and on schema
/// change. Appends are not durable until Sync(); the covering manifest
/// record is the commit point, so callers sync segments before it.
template <typename StateT>
class SegmentWriter {
 public:
  SegmentWriter(Env* env, std::string path, size_t keyframe_interval);

  /// Starts a fresh (empty) segment file.
  [[nodiscard]] Status Create();

  /// Re-attaches to an existing segment at its manifest watermark: cuts
  /// any torn checkpoint tail beyond `meta.valid_bytes`, restores the
  /// interval index, and seeds the delta base with `last` (the decoded
  /// state of the last covered entry; null only when entry_count is 0).
  [[nodiscard]] Status OpenAtWatermark(const ManifestRelation& meta,
                                       std::shared_ptr<const StateT> last);

  [[nodiscard]] Status Append(const StateT& state, TransactionNumber txn);
  [[nodiscard]] Status Sync();

  uint64_t entry_count() const { return entries_; }
  uint64_t valid_bytes() const { return wal_.good_size(); }
  TransactionNumber last_txn() const { return last_txn_; }
  const std::vector<SegmentKeyframe>& keyframes() const { return keyframes_; }
  std::shared_ptr<const StateT> last_state() const { return last_; }

 private:
  Env* env_;
  std::string path_;
  WalWriter wal_;
  size_t keyframe_interval_;
  uint64_t entries_ = 0;
  uint64_t since_keyframe_ = 0;
  TransactionNumber last_txn_ = 0;
  std::shared_ptr<const StateT> last_;
  std::vector<SegmentKeyframe> keyframes_;
};

// ---------------------------------------------------------------------------
// Segment reading
// ---------------------------------------------------------------------------

/// Decodes the covered prefix ([0, meta.entry_count)) of a segment file's
/// records into the logical (state, txn) sequence. `records` is the
/// ReadWal view of the file. Fails with kCorruption when the covered
/// prefix is short, misordered, or undecodable.
template <typename StateT>
Result<std::vector<std::pair<StateT, TransactionNumber>>>
DecodeSegmentSequence(const std::vector<std::string>& records,
                      const ManifestRelation& meta);

/// The index-probe half of FINDSTATE: the floor entry (last one with
/// transaction number <= txn), located by binary-searching the interval
/// index and then walking entry *headers* only — no body is decoded.
/// `found` is false when txn precedes the first covered entry or the
/// segment is empty. Callers key their probe caches by the ordinal, so a
/// cache hit skips all body decoding.
struct SegmentFloor {
  bool found = false;
  uint64_t ordinal = 0;
  TransactionNumber txn = 0;
  /// Ordinal of the governing keyframe (replay start on a cache miss).
  uint64_t keyframe_ordinal = 0;
};

Result<SegmentFloor> FindSegmentFloor(const std::vector<std::string>& records,
                                      const ManifestRelation& meta,
                                      TransactionNumber txn);

/// FINDSTATE over the raw records: the state of the last entry with
/// transaction number <= txn, by interval-index probe + short replay from
/// the nearest keyframe (or from `seed`, the reconstructed state of entry
/// `seed_ordinal`, when that is closer). Returns the entry's ordinal too,
/// so callers can key a cache by it. `found` is false when txn precedes
/// the first covered entry or the segment is empty (the paper's
/// "relation not yet recorded then" case — callers substitute the empty
/// state over the then-current scheme).
template <typename StateT>
struct SegmentProbeResult {
  bool found = false;
  StateT state;
  uint64_t ordinal = 0;
  TransactionNumber txn = 0;
  /// Entries whose bodies were decoded to reconstruct the state — the
  /// replay-length metric (keyframe replay or cache-seeded replay).
  uint64_t decoded_entries = 0;
};

template <typename StateT>
Result<SegmentProbeResult<StateT>> ProbeSegment(
    const std::vector<std::string>& records, const ManifestRelation& meta,
    TransactionNumber txn, const StateT* seed = nullptr,
    uint64_t seed_ordinal = 0);

}  // namespace ttra

#endif  // TTRA_STORAGE_SEGMENT_H_
