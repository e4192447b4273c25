#ifndef TTRA_STORAGE_SALVAGE_H_
#define TTRA_STORAGE_SALVAGE_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/segment.h"
#include "storage/wal.h"

namespace ttra {

/// Offline inspection and repair of a ShardedExecutor storage directory,
/// or of a legacy single-writer one (a "wal.log" written by an earlier
/// build, which the executor's first Start() migrates) — the engine
/// behind `ttra fsck`. The scan is
/// read-only and classifies the damage; repair quarantines the damaged
/// bytes (nothing is ever deleted, an operator can always reconstruct what
/// was cut) and truncates each WAL to its last valid prefix so recovery
/// succeeds. Sharded directories (MANIFEST present) are scanned log by
/// log: every shard WAL, with per-log findings —
/// cutting one shard's torn tail is safe because recovery drops every
/// batch beyond the first global gap (all provably unacknowledged),
/// leaving a consistent global prefix.
///
/// This layer knows framing and checksums only. Semantic validation — "is
/// this payload a decodable command record", "do these bytes decode as a
/// database" — is injected via SalvageOptions callbacks so storage/ never
/// depends on the rollback layer above it.

/// Overall verdict of a scan, ordered by severity. Maps onto the
/// documented `ttra fsck` / `ttra recover` exit codes via
/// SalvageExitCode().
enum class SalvageVerdict {
  /// Checkpoint and WAL fully intact.
  kClean = 0,
  /// Only a torn tail (the suffix power loss is allowed to take):
  /// recovery may truncate-and-continue without operator involvement.
  kTruncatedTail,
  /// Mid-log corruption, a semantically-bad checksummed record, or a
  /// damaged WAL header: intact data may lie beyond the damage, so
  /// recovery refuses until `fsck --repair` decides the cut.
  kNeedsRepair,
  /// The checkpoint itself is damaged: there is no base state to rebuild
  /// from, and repair will not fabricate one.
  kUnrecoverable,
};

/// Stable lowercase name, e.g. "needs-repair".
std::string_view SalvageVerdictName(SalvageVerdict verdict);

/// One damaged region found by the scan.
struct SalvageFinding {
  std::string file;     ///< path of the damaged file
  uint64_t offset = 0;  ///< byte offset of the damage
  std::string cause;    ///< stable slug (WalCorruptionCauseName, ...)
  std::string detail;   ///< human-readable explanation
};

struct SalvageOptions {
  /// File names inside the directory (the legacy single-writer layout). A
  /// legacy kLegacyCheckpointFile, when present, is validated too.
  std::string wal_file = "wal.log";
  /// Sharded (ShardedExecutor) layout: when `manifest_file` exists in the
  /// directory, the scan switches to it — shard count from the manifest
  /// (ParseShardManifest, the parser the executor opens it with), one log
  /// report per shard WAL, plus one for a `wal_file` left by an
  /// interrupted migration.
  std::string manifest_file = kShardManifestFile;
  /// Semantic validation of one intact WAL record payload; non-OK flags
  /// the record as corrupt even though its checksum matches. Unset =
  /// framing/checksum validation only.
  std::function<Status(std::string_view payload)> validate_record;
  /// Same, for shard WAL record payloads (the sharded commit protocol uses
  /// different record kinds).
  std::function<Status(std::string_view payload)> validate_shard_record;
  /// Semantic validation of a legacy checkpoint image's bytes. Unset =
  /// presence only.
  std::function<Status(std::string_view data)> validate_checkpoint;
  /// Compact layout (CompactStore): when this file exists in the
  /// directory, the scan also covers the checkpoint manifest chain and
  /// every segment file the folded chain references. Manifest records and
  /// segment entries are validated structurally right here — both formats
  /// live in the storage layer, so no injection is needed.
  std::string segment_manifest_file = kCompactManifestFile;
  /// Extracts the pre-commit transaction number of one intact WAL record
  /// payload (the single-writer executor's framing). Damage inside the
  /// compact state's COVERED region forces repair to quarantine the whole
  /// compact state, which is survivable only when WAL replay can rebuild
  /// it from the empty database — i.e. the first WAL record starts at
  /// transaction 0. Unset = unprovable; such damage classifies
  /// unrecoverable.
  std::function<Result<TransactionNumber>(std::string_view payload)>
      wal_record_pre_txn;
};

/// Per-log detail of a sharded scan (one entry per shard WAL, plus one for
/// a legacy wal.log an interrupted migration left).
struct SalvageLogReport {
  std::string file;  ///< path of the log
  bool present = false;
  uint64_t size = 0;
  uint64_t valid_size = 0;      ///< end of the salvageable prefix
  /// All-zero bytes after the last record: a pre-zeroed log's clean end
  /// (storage/env.h), reported but never repaired.
  uint64_t zero_tail = 0;
  uint64_t valid_records = 0;
  uint64_t records_after_hole = 0;
  /// Set by RepairStorage only.
  bool repaired = false;
  std::string quarantine_path;
  uint64_t quarantined_bytes = 0;
};

struct SalvageReport {
  SalvageVerdict verdict = SalvageVerdict::kClean;
  std::vector<SalvageFinding> findings;

  bool checkpoint_present = false;
  bool checkpoint_valid = false;
  bool wal_present = false;
  /// Aggregates. Single-writer layout: the one wal.log. Sharded layout:
  /// summed over every shard WAL (per-log detail in `logs`).
  uint64_t wal_size = 0;
  /// End of the salvageable prefix: header + every record that is both
  /// frame-intact and semantically valid. Repair truncates here.
  uint64_t wal_valid_size = 0;
  uint64_t wal_valid_records = 0;
  /// Intact frames stranded beyond the first damage (mid-log hole).
  uint64_t wal_records_after_hole = 0;

  /// Sharded layout only.
  bool sharded = false;
  uint32_t shards = 0;
  std::vector<SalvageLogReport> logs;

  /// Compact layout only (segment manifest present). `segment_logs` holds
  /// the manifest first, then one entry per segment file the folded chain
  /// references. Damage beyond a file's covered watermark is a torn
  /// in-progress checkpoint (cuttable); `compact_state_damaged` means
  /// damage INSIDE the covered region (missing segment, short prefix,
  /// undecodable covered entry, unfoldable manifest) — repair must
  /// quarantine the whole compact state and rebuild from the WAL.
  bool compact = false;
  uint64_t segments_referenced = 0;
  uint64_t segments_damaged = 0;
  bool compact_state_damaged = false;
  std::vector<SalvageLogReport> segment_logs;

  /// Set by RepairStorage only.
  bool repaired = false;
  bool compact_state_quarantined = false;
  std::string quarantine_path;
  uint64_t quarantined_bytes = 0;
};

/// Scans `dir` without modifying anything.
Result<SalvageReport> ScanStorage(Env* env, const std::string& dir,
                                  const SalvageOptions& options = {});

/// Scan, then repair what is repairable: damaged WAL bytes are moved to
/// "<wal>.quarantine" (overwriting any previous quarantine) and the WAL is
/// truncated to wal_valid_size. A WAL whose own header is damaged is
/// quarantined whole and re-created empty. kClean needs nothing;
/// kUnrecoverable (corrupt checkpoint) is reported but never "repaired".
Result<SalvageReport> RepairStorage(Env* env, const std::string& dir,
                                    const SalvageOptions& options = {});

/// Multi-line human rendering of the report.
std::string FormatSalvageReport(const SalvageReport& report);

/// Stable JSON rendering of the report (for `ttra fsck --json`).
std::string SalvageReportToJson(const SalvageReport& report);

/// Documented exit code: 0 clean, 1 torn tail (or successfully repaired),
/// 3 corruption-needs-repair, 4 unrecoverable. 2 is reserved for usage
/// errors, mirroring `ttra check`.
int SalvageExitCode(const SalvageReport& report);

}  // namespace ttra

#endif  // TTRA_STORAGE_SALVAGE_H_
