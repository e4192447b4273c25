#ifndef TTRA_STORAGE_WAL_H_
#define TTRA_STORAGE_WAL_H_

#include <string>
#include <vector>

#include "storage/env.h"

namespace ttra {

/// Write-ahead log of opaque records over an Env.
///
/// File layout: a 9-byte header (8-byte magic + 1-byte format version)
/// followed by length-prefixed, checksummed records:
///
///   [u64 payload length][u64 FNV-1a of payload][payload bytes]
///
/// A crash may leave any suffix of appended-but-unsynced bytes missing, so
/// the reader treats an incomplete or checksum-failing trailing record as
/// a *torn tail*: it stops there and reports the records before it. Zero
/// bytes from a record boundary to the end of the file are the log's clean
/// end, not a tear: PosixEnv keeps a `*.wal` zero-written ahead of its
/// records (env.h). A bad header on a non-empty file, by contrast, is real
/// corruption — the file is not a WAL — and fails loudly.

/// Appender. Typical lifecycle: Create() a fresh log (or OpenForAppend()
/// after recovery), then AddRecord()/Sync() per the caller's policy.
///
/// Not internally synchronized: callers serialize access (ShardedExecutor
/// holds the owning lock — a shard's WAL lock, or its order lock for the
/// coordinator log — around every member, stats() included).
class WalWriter {
 public:
  WalWriter(Env* env, std::string path) : env_(env), path_(std::move(path)) {}

  /// Starts a fresh, durably-empty log, discarding any existing file.
  [[nodiscard]] Status Create();

  /// Positions for appending to an existing log previously validated by
  /// ReadWal and cut to `size` bytes, a record boundary. The size comes
  /// from the caller, so the log is not read again.
  [[nodiscard]] Status OpenForAppend(uint64_t size);

  /// Appends one framed record. NOT durable until Sync().
  [[nodiscard]] Status AddRecord(std::string_view payload);

  /// Appends several framed records with a single underlying Env append —
  /// the group-commit write path: one I/O for the whole batch, one later
  /// Sync() covering all of it.
  [[nodiscard]] Status AddRecords(const std::vector<std::string>& payloads);

  /// Durably flushes all appended records.
  [[nodiscard]] Status Sync();

  /// Byte size of the log through the last frame this writer successfully
  /// appended — the known-good boundary ResetTail() cuts back to.
  uint64_t good_size() const { return good_size_; }

  /// Cuts the file back to the last known-good record boundary, discarding
  /// whatever a failed append left behind (a torn frame, or nothing). The
  /// repair step between a transient append failure and its retry: without
  /// it the retried record would land *after* the torn bytes and be
  /// unreachable to the reader, which stops at the first bad frame.
  [[nodiscard]] Status ResetTail();

  /// Cuts the zero tail a pre-zeroing Env (PosixEnv, for `*.wal` files)
  /// keeps past the last record, so the file holds exactly its records —
  /// a clean shutdown's last step. A no-op, and no I/O, unless a record
  /// was appended since Create(), OpenForAppend() or the last cut.
  [[nodiscard]] Status TrimTail();

  /// Group-commit accounting: how the record stream maps onto physical
  /// I/O. `appends` counts Env::Append calls (batching collapses these
  /// below `records`); `syncs` counts fsyncs. syncs/records is the
  /// per-commit durability cost the group-commit policies amortize.
  struct Stats {
    uint64_t records = 0;         ///< framed records appended
    uint64_t appends = 0;         ///< Env::Append calls issued
    uint64_t syncs = 0;           ///< Env::Sync calls issued
    uint64_t bytes_appended = 0;  ///< framed bytes (header + payloads)
  };
  const Stats& stats() const { return stats_; }

  const std::string& path() const { return path_; }

 private:
  Env* env_;
  std::string path_;
  Stats stats_;
  uint64_t good_size_ = 0;
  bool appended_ = false;  ///< a record landed since the file was last cut
};

/// Why the reader stopped before the end of the file.
enum class WalCorruptionCause {
  kNone = 0,          ///< every byte parsed
  kTornFileHeader,    ///< file shorter than the 9-byte WAL header
  kTornRecordHeader,  ///< fewer than 16 frame-header bytes at the tail
  kTornPayload,       ///< length field points past the end of the file
  kChecksumMismatch,  ///< payload present but its FNV-1a disagrees
};

/// Stable lowercase name, e.g. "checksum-mismatch".
std::string_view WalCorruptionCauseName(WalCorruptionCause cause);

struct WalReadResult {
  /// Payloads of all intact records, in append order.
  std::vector<std::string> records;
  /// Byte offset of each intact record's frame (parallel to `records`) —
  /// lets fsck name the exact location of a semantically-bad record.
  std::vector<uint64_t> record_offsets;
  /// True if trailing bytes (a torn record) were dropped.
  bool torn_tail = false;
  /// File size covered by the header plus the intact records.
  size_t valid_size = 0;
  /// All-zero bytes after valid_size: a pre-zeroed log's clean end, not
  /// damage (torn_tail stays false). A caller that appends to the file
  /// cuts it to valid_size first.
  size_t zero_tail = 0;

  /// Why the first invalid record is invalid (kNone if the whole file
  /// parsed). The fields below are meaningful only when this is not kNone.
  WalCorruptionCause cause = WalCorruptionCause::kNone;
  /// Byte offset of the first invalid record (== valid_size: the invalid
  /// frame starts where the valid prefix ends).
  uint64_t invalid_offset = 0;
  /// Zero-based index the first invalid record would have had.
  uint64_t invalid_record_index = 0;

  /// Post-hole resync: frames that parse and checksum cleanly *after* the
  /// first invalid record. Zero means the damage is a pure torn tail —
  /// consistent with power loss, safe to truncate and continue. Nonzero
  /// means mid-log corruption: intact committed records lie beyond the
  /// hole, so truncating silently would drop acked commits; recovery must
  /// refuse and send the operator to `ttra fsck`.
  uint64_t records_after_hole = 0;
  /// Byte offset of the first post-hole valid frame (0 when none).
  uint64_t resync_offset = 0;
};

/// Reads every intact record of the log. Missing file → kIoError; header
/// that is present-but-wrong → kCorruption; all-zero remainder → the clean
/// end (zero_tail); torn tail → reported, not an error (recovery truncates there, in line with the durability contract
/// that unsynced bytes may vanish). When the reader stops early it scans
/// the remainder for re-synchronizing valid frames (records_after_hole),
/// letting callers tell a torn tail from a mid-log hole.
Result<WalReadResult> ReadWal(const Env& env, const std::string& path);

}  // namespace ttra

#endif  // TTRA_STORAGE_WAL_H_
