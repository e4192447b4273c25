#include "storage/salvage.h"

#include <algorithm>

namespace ttra {

namespace {

/// Verdicts are ordered by severity, so "worst so far" is a max.
void Worsen(SalvageVerdict& verdict, SalvageVerdict candidate) {
  verdict = std::max(verdict, candidate);
}

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// True if `log` holds bytes past its salvageable prefix other than a
/// clean zero tail: the bytes repair quarantines.
bool HasDamage(const SalvageLogReport& log) {
  return log.valid_size + log.zero_tail < log.size;
}

/// Minimal parser of the sharded MANIFEST ("ttra-shards 1\nshards <N>\n").
/// Deliberately local: salvage sits in the storage layer and must not pull
/// in the executor above it, and the format is two fixed lines.
Result<uint32_t> ParseShardManifest(std::string_view data) {
  constexpr std::string_view kMagic = "ttra-shards 1\nshards ";
  if (data.substr(0, kMagic.size()) != kMagic) {
    return CorruptionError("malformed shard manifest");
  }
  uint32_t shards = 0;
  size_t i = kMagic.size();
  for (; i < data.size() && data[i] >= '0' && data[i] <= '9'; ++i) {
    shards = shards * 10 + static_cast<uint32_t>(data[i] - '0');
    if (shards > 4096) return CorruptionError("implausible shard count");
  }
  if (shards == 0 || i == kMagic.size() || data.substr(i) != "\n") {
    return CorruptionError("malformed shard manifest");
  }
  return shards;
}

/// Scans one WAL-framed log file; findings and the severity roll-up go to
/// `report`, per-file numbers to `log`. Shared by the single-writer path
/// (which then copies `log` into the report's flat wal_* fields) and the
/// sharded path (one call per shard WAL + coordinator).
void ScanOneLog(Env* env, const std::string& path,
                const std::function<Status(std::string_view)>& validate,
                SalvageReport& report, SalvageLogReport& log) {
  log.file = path;
  if (!env->Exists(path)) return;
  log.present = true;
  {
    // Size the file independently of ReadWal so even a bad-header report
    // can state how many bytes are at stake. A failed read of an existing
    // file is itself a finding (silently dropping it would report the
    // file as zero bytes with no explanation); the verdict is left to
    // ReadWal below, which re-reads the file authoritatively.
    Result<std::string> raw = env->Read(path);
    if (raw.ok()) {
      log.size = raw->size();
    } else {
      report.findings.push_back(
          SalvageFinding{path, 0, "unreadable", raw.status().message()});
    }
  }

  Result<WalReadResult> read = ReadWal(*env, path);
  if (!read.ok()) {
    // Bad magic or unsupported version: the file is not (any longer) a
    // WAL. Salvageable prefix is empty — repair quarantines it whole.
    report.findings.push_back(
        SalvageFinding{path, 0, "bad-header", read.status().message()});
    log.valid_size = 0;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    return;
  }

  const WalReadResult& r = *read;
  log.valid_size = r.valid_size;
  log.zero_tail = r.zero_tail;
  log.valid_records = r.records.size();
  log.records_after_hole = r.records_after_hole;

  // Semantic pass: a frame can checksum cleanly yet not decode as a
  // command record (a checksummed write of wrong bytes). The salvageable
  // prefix ends at the first such record.
  if (validate) {
    for (size_t i = 0; i < r.records.size(); ++i) {
      Status valid = validate(r.records[i]);
      if (valid.ok()) continue;
      report.findings.push_back(SalvageFinding{
          path, r.record_offsets[i], "invalid-record",
          "record #" + std::to_string(i) + ": " + valid.message()});
      log.valid_size = r.record_offsets[i];
      log.zero_tail = 0;
      log.valid_records = i;
      // Frame-intact records beyond this one are stranded behind the cut.
      log.records_after_hole += r.records.size() - i - 1;
      Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
      break;
    }
  }

  if (r.cause != WalCorruptionCause::kNone) {
    report.findings.push_back(SalvageFinding{
        path, r.invalid_offset, std::string(WalCorruptionCauseName(r.cause)),
        "record #" + std::to_string(r.invalid_record_index) +
            " is invalid at byte " + std::to_string(r.invalid_offset)});
    if (r.records_after_hole > 0) {
      report.findings.push_back(SalvageFinding{
          path, r.resync_offset, "stranded-records",
          std::to_string(r.records_after_hole) +
              " intact record(s) resync after the hole at byte " +
              std::to_string(r.resync_offset) +
              "; truncating without repair would drop them"});
      Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    } else {
      Worsen(report.verdict, SalvageVerdict::kTruncatedTail);
    }
  }
}

/// Quarantines the damaged suffix of one log and truncates it back to the
/// valid prefix (whole-file quarantine + fresh empty log when the header
/// itself is gone). No-op for a clean or absent log.
Status RepairOneLog(Env* env, SalvageLogReport& log) {
  if (!log.present) return Status::Ok();
  const std::string quarantine = log.file + ".quarantine";
  TTRA_ASSIGN_OR_RETURN(std::string data, env->Read(log.file));
  if (log.valid_size + log.zero_tail >= data.size() && log.valid_size > 0) {
    // The damage healed between scan and repair (or the scan raced a
    // writer); nothing to cut.
    return Status::Ok();
  }

  // Quarantine first, truncate second: a crash between the two leaves the
  // damaged bytes in both places, never in neither.
  const std::string tail = data.substr(log.valid_size);
  TTRA_RETURN_IF_ERROR(env->Truncate(quarantine));
  TTRA_RETURN_IF_ERROR(env->Append(quarantine, tail));
  TTRA_RETURN_IF_ERROR(env->Sync(quarantine));
  if (log.valid_size == 0) {
    // The log's own header is damaged: replace the whole file with a
    // fresh, durably-empty log.
    WalWriter writer(env, log.file);
    TTRA_RETURN_IF_ERROR(writer.Create());
  } else {
    TTRA_RETURN_IF_ERROR(env->TruncateTo(log.file, log.valid_size));
    TTRA_RETURN_IF_ERROR(env->Sync(log.file));
  }
  log.repaired = true;
  log.quarantine_path = quarantine;
  log.quarantined_bytes = tail.size();
  return Status::Ok();
}

/// Rolls one log's numbers into the report-level aggregates.
void Aggregate(SalvageReport& report, const SalvageLogReport& log) {
  if (!log.present) return;
  report.wal_present = true;
  report.wal_size += log.size;
  report.wal_valid_size += log.valid_size;
  report.wal_valid_records += log.valid_records;
  report.wal_records_after_hole += log.records_after_hole;
}

/// Scans one segment file against its manifest watermark. Unlike a WAL,
/// a segment has a COVERED region ([0, meta.valid_bytes), what the
/// manifest committed) and an uncovered tail (an in-progress checkpoint
/// the next writer cuts): damage beyond the watermark is a torn tail,
/// damage inside it loses checkpointed state.
void ScanSegment(Env* env, const std::string& path,
                 const ManifestRelation& meta, SalvageReport& report,
                 SalvageLogReport& log) {
  log.file = path;
  if (!env->Exists(path)) {
    report.findings.push_back(SalvageFinding{
        path, 0, "missing-segment",
        "segment for relation \"" + meta.name +
            "\" (generation " + std::to_string(meta.generation) +
            ") referenced by the manifest is absent"});
    ++report.segments_damaged;
    report.compact_state_damaged = true;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    return;
  }
  log.present = true;
  if (Result<std::string> raw = env->Read(path); raw.ok()) {
    log.size = raw->size();
  } else {
    report.findings.push_back(
        SalvageFinding{path, 0, "unreadable", raw.status().message()});
  }

  Result<WalReadResult> read = ReadWal(*env, path);
  if (!read.ok()) {
    report.findings.push_back(
        SalvageFinding{path, 0, "bad-header", read.status().message()});
    log.valid_size = 0;
    ++report.segments_damaged;
    report.compact_state_damaged = true;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    return;
  }
  const WalReadResult& r = *read;
  log.valid_records = r.records.size();
  log.records_after_hole = r.records_after_hole;
  log.valid_size = r.valid_size;
  log.zero_tail = r.zero_tail;

  if (r.valid_size < meta.valid_bytes || r.records.size() < meta.entry_count) {
    report.findings.push_back(SalvageFinding{
        path, r.invalid_offset,
        r.cause == WalCorruptionCause::kNone
            ? "short-segment"
            : std::string(WalCorruptionCauseName(r.cause)),
        "damage inside the covered region: manifest covers " +
            std::to_string(meta.entry_count) + " entries / " +
            std::to_string(meta.valid_bytes) + " bytes, but only " +
            std::to_string(r.records.size()) + " entries / " +
            std::to_string(r.valid_size) + " bytes are intact"});
    ++report.segments_damaged;
    report.compact_state_damaged = true;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    return;
  }

  // Structural validation of the covered entries: a bit flip that keeps
  // the checksum... cannot happen (FNV over the payload), but a
  // checksummed write of wrong bytes can — and the very first entry must
  // be a keyframe for replay to exist at all.
  for (uint64_t i = 0; i < meta.entry_count; ++i) {
    Status valid = ValidateSegmentEntry(meta.state_kind, r.records[i]);
    if (valid.ok() && i == 0) {
      Result<SegmentEntryHeader> head = PeekSegmentEntry(r.records[i]);
      if (head.ok() && head->kind != SegmentEntryKind::kKeyframe) {
        valid = CorruptionError("first covered entry is not a keyframe");
      }
    }
    if (valid.ok()) continue;
    report.findings.push_back(SalvageFinding{
        path, r.record_offsets[i], "invalid-entry",
        "covered entry #" + std::to_string(i) + ": " + valid.message()});
    ++report.segments_damaged;
    report.compact_state_damaged = true;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
    return;
  }

  // Beyond the watermark: torn bytes are an in-progress checkpoint that
  // never committed. Cutting them loses nothing the manifest promised.
  if (r.cause != WalCorruptionCause::kNone) {
    report.findings.push_back(SalvageFinding{
        path, r.invalid_offset, std::string(WalCorruptionCauseName(r.cause)),
        "torn bytes beyond the covered watermark (" +
            std::to_string(meta.valid_bytes) +
            "): an in-progress checkpoint that never committed"});
    Worsen(report.verdict, SalvageVerdict::kTruncatedTail);
  }
}

}  // namespace

std::string_view SalvageVerdictName(SalvageVerdict verdict) {
  switch (verdict) {
    case SalvageVerdict::kClean:
      return "clean";
    case SalvageVerdict::kTruncatedTail:
      return "truncated-tail";
    case SalvageVerdict::kNeedsRepair:
      return "needs-repair";
    case SalvageVerdict::kUnrecoverable:
      return "unrecoverable";
  }
  return "unknown";
}

Result<SalvageReport> ScanStorage(Env* env, const std::string& dir,
                                  const SalvageOptions& options) {
  SalvageReport report;
  const std::string checkpoint = dir + "/" + kLegacyCheckpointFile;
  const std::string manifest = dir + "/" + options.manifest_file;

  if (env->Exists(checkpoint)) {
    report.checkpoint_present = true;
    Result<std::string> data = env->Read(checkpoint);
    if (!data.ok()) {
      report.findings.push_back(SalvageFinding{
          checkpoint, 0, "io-error", data.status().message()});
      Worsen(report.verdict, SalvageVerdict::kUnrecoverable);
    } else {
      Status valid = options.validate_checkpoint
                         ? options.validate_checkpoint(*data)
                         : Status::Ok();
      if (valid.ok()) {
        report.checkpoint_valid = true;
      } else {
        report.findings.push_back(SalvageFinding{
            checkpoint, 0, "checkpoint-invalid", valid.message()});
        Worsen(report.verdict, SalvageVerdict::kUnrecoverable);
      }
    }
  }

  // First valid record of the single-writer WAL, for the compact section
  // below: the proof (or refutation) that a quarantined compact state can
  // be rebuilt by replaying the WAL from the empty database.
  std::string first_wal_record;
  bool have_first_wal_record = false;

  if (env->Exists(manifest)) {
    // Sharded layout: shard count from the manifest, then one log report
    // per shard WAL plus the coordinator.
    report.sharded = true;
    Result<std::string> data = env->Read(manifest);
    Result<uint32_t> shards =
        data.ok() ? ParseShardManifest(*data)
                  : Result<uint32_t>(data.status());
    if (!shards.ok()) {
      // Without the shard count the layout cannot be interpreted; there
      // is no base to rebuild from and repair will not guess one.
      report.findings.push_back(SalvageFinding{
          manifest, 0, "manifest-invalid", shards.status().message()});
      Worsen(report.verdict, SalvageVerdict::kUnrecoverable);
      return report;
    }
    report.shards = *shards;
    for (uint32_t k = 0; k < *shards; ++k) {
      SalvageLogReport log;
      const std::string path = dir + "/shard-" + std::to_string(k) + ".wal";
      ScanOneLog(env, path, options.validate_shard_record, report, log);
      if (!log.present) {
        // Recovery tolerates a missing shard WAL — its batches become the
        // first global gap and everything beyond is dropped as provably
        // unacknowledged — but the operator should know the file is gone.
        report.findings.push_back(SalvageFinding{
            path, 0, "missing-log",
            "shard wal absent; committed batches homed here (if any) are "
            "lost and recovery will cut back to the last gap-free prefix"});
        Worsen(report.verdict, SalvageVerdict::kTruncatedTail);
      }
      Aggregate(report, log);
      report.logs.push_back(std::move(log));
    }
    {
      SalvageLogReport log;
      ScanOneLog(env, dir + "/" + options.coordinator_file,
                 options.validate_shard_record, report, log);
      Aggregate(report, log);
      report.logs.push_back(std::move(log));
    }
    // A migration that stopped after writing the MANIFEST but before
    // removing the legacy single-writer log leaves both; the next open
    // replays that log, so it is scanned (and repaired) with the rest.
    if (env->Exists(dir + "/" + options.wal_file)) {
      SalvageLogReport log;
      ScanOneLog(env, dir + "/" + options.wal_file, options.validate_record,
                 report, log);
      Aggregate(report, log);
      report.logs.push_back(std::move(log));
    }
  } else {
    SalvageLogReport log;
    ScanOneLog(env, dir + "/" + options.wal_file, options.validate_record,
               report, log);
    if (log.present) {
      report.wal_present = true;
      report.wal_size = log.size;
      report.wal_valid_size = log.valid_size;
      report.wal_valid_records = log.valid_records;
      report.wal_records_after_hole = log.records_after_hole;
      if (log.valid_records > 0) {
        Result<WalReadResult> read =
            ReadWal(*env, dir + "/" + options.wal_file);
        if (read.ok() && !read->records.empty()) {
          first_wal_record = read->records.front();
          have_first_wal_record = true;
        }
      }
    }
  }

  // Compact layout (may coexist with either WAL layout above): scan the
  // manifest chain, fold its valid prefix, then check every referenced
  // segment against its covered watermark.
  const std::string seg_manifest = dir + "/" + options.segment_manifest_file;
  if (!env->Exists(seg_manifest)) return report;
  report.compact = true;

  SalvageLogReport mlog;
  ScanOneLog(
      env, seg_manifest,
      [](std::string_view payload) {
        return DecodeManifestRecord(payload).status();
      },
      report, mlog);

  CompactLayout layout;
  bool layout_ok = false;
  if (mlog.valid_records > 0) {
    Result<WalReadResult> mread = ReadWal(*env, seg_manifest);
    if (mread.ok()) {
      // Fold only the validated prefix: everything behind a cut point is
      // what a repair would keep, so the segment checks below must be
      // made against exactly that view.
      std::vector<std::string> prefix(
          mread->records.begin(),
          mread->records.begin() +
              std::min<size_t>(mlog.valid_records, mread->records.size()));
      Result<CompactLayout> folded = FoldManifestRecords(prefix);
      if (folded.ok()) {
        layout = *std::move(folded);
        layout_ok = true;
      } else {
        report.findings.push_back(SalvageFinding{
            seg_manifest, 0, "manifest-unfoldable",
            folded.status().message()});
      }
    }
  }
  if (!layout_ok) {
    // No interpretable checkpoint chain at all: the whole compact state
    // is damage.
    report.compact_state_damaged = true;
    Worsen(report.verdict, SalvageVerdict::kNeedsRepair);
  } else if (report.sharded) {
    // Cutting the manifest back past a COMMITTED record is safe in the
    // single-writer layout (its retained WAL re-derives the difference)
    // but fatal in the sharded one: the logs were truncated when those
    // records committed, so the cut-off coverage exists nowhere else.
    for (const SalvageFinding& f : report.findings) {
      if (f.file != seg_manifest ||
          (f.cause != "invalid-record" && f.cause != "stranded-records")) {
        continue;
      }
      report.findings.push_back(SalvageFinding{
          seg_manifest, f.offset, "no-rebuild-base",
          "manifest records behind the damage are the only coverage of "
          "the truncated sharded logs"});
      Worsen(report.verdict, SalvageVerdict::kUnrecoverable);
      break;
    }
  }
  report.segment_logs.push_back(std::move(mlog));

  if (layout_ok) {
    report.segments_referenced = layout.relations.size();
    for (const auto& [name, meta] : layout.relations) {
      SalvageLogReport slog;
      ScanSegment(env, dir + "/" + SegmentFileName(name, meta.generation),
                  meta, report, slog);
      report.segment_logs.push_back(std::move(slog));
    }
  }

  if (report.compact_state_damaged) {
    // Quarantining the compact state is survivable only when the WAL can
    // rebuild it from the empty database. Sharded layouts truncate their
    // logs at every checkpoint, so the chain back to empty is gone; the
    // single-writer layout retains its WAL across checkpoints (only an
    // explicit storage compaction truncates it), so the proof is simply
    // that the first record starts at transaction 0.
    bool recoverable = layout_ok && layout.db_txn == 0;
    if (!recoverable && !report.sharded && have_first_wal_record &&
        options.wal_record_pre_txn) {
      Result<TransactionNumber> pre =
          options.wal_record_pre_txn(first_wal_record);
      recoverable = pre.ok() && *pre == 0;
    }
    if (!recoverable) {
      report.findings.push_back(SalvageFinding{
          seg_manifest, 0, "no-rebuild-base",
          report.sharded
              ? "compact state damaged and sharded logs are truncated at "
                "every checkpoint; no path back to the empty database"
              : "compact state damaged and the wal does not start at "
                "transaction 0 (truncated by a storage compaction); "
                "replay cannot rebuild the acknowledged prefix"});
      Worsen(report.verdict, SalvageVerdict::kUnrecoverable);
    }
  }
  return report;
}

Result<SalvageReport> RepairStorage(Env* env, const std::string& dir,
                                    const SalvageOptions& options) {
  TTRA_ASSIGN_OR_RETURN(SalvageReport report, ScanStorage(env, dir, options));
  if (report.verdict == SalvageVerdict::kClean ||
      report.verdict == SalvageVerdict::kUnrecoverable) {
    return report;  // nothing to repair, or nothing repair could restore
  }

  if (report.compact) {
    if (report.compact_state_damaged) {
      // Damage inside the covered region: no segment surgery can restore
      // checkpointed state, but the scan proved the WAL rebuilds it from
      // the empty database. Move the WHOLE compact state aside (nothing
      // is deleted) so recovery starts from a clean slate.
      const std::string seg_manifest =
          dir + "/" + options.segment_manifest_file;
      uint64_t bytes = 0;
      if (env->Exists(seg_manifest)) {
        if (Result<std::string> data = env->Read(seg_manifest); data.ok()) {
          bytes += data->size();
        }
        TTRA_RETURN_IF_ERROR(
            env->Rename(seg_manifest, seg_manifest + ".quarantine"));
        report.quarantine_path = seg_manifest + ".quarantine";
      }
      TTRA_ASSIGN_OR_RETURN(std::vector<std::string> files, env->List(dir));
      for (const std::string& file : files) {
        if (!IsSegmentFileName(file)) continue;
        const std::string path = dir + "/" + file;
        if (Result<std::string> data = env->Read(path); data.ok()) {
          bytes += data->size();
        }
        TTRA_RETURN_IF_ERROR(env->Rename(path, path + ".quarantine"));
      }
      report.repaired = true;
      report.compact_state_quarantined = true;
      report.quarantined_bytes += bytes;
    } else {
      // Cuttable damage only: quarantine the manifest suffix behind the
      // validated prefix and each segment's torn uncovered tail.
      for (SalvageLogReport& log : report.segment_logs) {
        if (!log.present || !HasDamage(log)) continue;
        TTRA_RETURN_IF_ERROR(RepairOneLog(env, log));
        if (log.repaired) {
          report.repaired = true;
          report.quarantined_bytes += log.quarantined_bytes;
        }
      }
    }
  }

  if (report.sharded) {
    // Repair every damaged log independently; cutting one shard's tail is
    // safe because recovery drops committed batches beyond the first
    // global gap (all unacknowledged — the durability watermark never
    // acked past a hole). Recreate missing shard WALs as durably-empty
    // logs so the executor can start.
    for (SalvageLogReport& log : report.logs) {
      if (!log.present) {
        WalWriter writer(env, log.file);
        TTRA_RETURN_IF_ERROR(writer.Create());
        log.repaired = true;
        report.repaired = true;
        continue;
      }
      if (!HasDamage(log)) continue;  // this log is clean
      TTRA_RETURN_IF_ERROR(RepairOneLog(env, log));
      if (log.repaired) {
        report.repaired = true;
        report.quarantined_bytes += log.quarantined_bytes;
      }
    }
    return report;
  }

  if (!report.wal_present) return report;
  SalvageLogReport log;
  log.file = dir + "/" + options.wal_file;
  log.present = true;
  log.size = report.wal_size;
  log.valid_size = report.wal_valid_size;
  TTRA_RETURN_IF_ERROR(RepairOneLog(env, log));
  report.repaired = true;  // scan said repairable; healed-vs-cut both count
  report.quarantine_path = log.quarantine_path;
  report.quarantined_bytes = log.quarantined_bytes;
  return report;
}

std::string FormatSalvageReport(const SalvageReport& report) {
  std::string out;
  out += "verdict: " + std::string(SalvageVerdictName(report.verdict)) + "\n";
  out += "checkpoint: ";
  out += !report.checkpoint_present ? "absent"
         : report.checkpoint_valid  ? "valid"
                                    : "INVALID";
  out += "\n";
  if (report.sharded) {
    out += "layout: sharded, " + std::to_string(report.shards) +
           " shard(s)\n";
    for (const SalvageLogReport& log : report.logs) {
      out += log.file + ": ";
      if (!log.present) {
        out += "ABSENT\n";
        continue;
      }
      out += std::to_string(log.size) + " byte(s), " +
             std::to_string(log.valid_records) +
             " valid record(s), valid prefix " +
             std::to_string(log.valid_size) + " byte(s)";
      if (log.zero_tail > 0) {
        out += ", then " + std::to_string(log.zero_tail) +
               " zero byte(s) (clean end)";
      }
      if (log.records_after_hole > 0) {
        out += ", " + std::to_string(log.records_after_hole) +
               " record(s) stranded after the damage";
      }
      if (log.repaired) {
        out += ", repaired (" + std::to_string(log.quarantined_bytes) +
               " byte(s) quarantined)";
      }
      out += "\n";
    }
  } else if (report.wal_present) {
    out += "wal: " + std::to_string(report.wal_size) + " byte(s), " +
           std::to_string(report.wal_valid_records) +
           " valid record(s), valid prefix " +
           std::to_string(report.wal_valid_size) + " byte(s)\n";
    if (report.wal_records_after_hole > 0) {
      out += "wal: " + std::to_string(report.wal_records_after_hole) +
             " intact record(s) stranded after the damage\n";
    }
  } else {
    out += "wal: absent\n";
  }
  if (report.compact) {
    out += "layout: compact, " + std::to_string(report.segments_referenced) +
           " segment(s) referenced";
    if (report.segments_damaged > 0) {
      out += ", " + std::to_string(report.segments_damaged) +
             " damaged inside the covered region";
    }
    out += "\n";
    for (const SalvageLogReport& log : report.segment_logs) {
      out += log.file + ": ";
      if (!log.present) {
        out += "ABSENT\n";
        continue;
      }
      out += std::to_string(log.size) + " byte(s), " +
             std::to_string(log.valid_records) +
             " valid record(s), valid prefix " +
             std::to_string(log.valid_size) + " byte(s)";
      if (log.repaired) {
        out += ", repaired (" + std::to_string(log.quarantined_bytes) +
               " byte(s) quarantined)";
      }
      out += "\n";
    }
    if (report.compact_state_quarantined) {
      out += "compact state quarantined; recovery rebuilds from the wal\n";
    }
  }
  for (const SalvageFinding& f : report.findings) {
    out += f.file + " @" + std::to_string(f.offset) + " [" + f.cause +
           "]: " + f.detail + "\n";
  }
  if (report.repaired) {
    out += "repaired: " + std::to_string(report.quarantined_bytes) +
           " byte(s) quarantined";
    // Sharded repairs quarantine per log (paths in the lines above); the
    // single-writer layout has the one wal.log.quarantine.
    if (!report.quarantine_path.empty()) out += " to " + report.quarantine_path;
    out += "\n";
  }
  return out;
}

std::string SalvageReportToJson(const SalvageReport& report) {
  std::string findings;
  for (const SalvageFinding& f : report.findings) {
    if (!findings.empty()) findings += ",";
    findings += "\n    {\"file\": \"" + EscapeJson(f.file) +
                "\", \"offset\": " + std::to_string(f.offset) +
                ", \"cause\": \"" + EscapeJson(f.cause) +
                "\", \"detail\": \"" + EscapeJson(f.detail) + "\"}";
  }
  std::string out = "{\n";
  out += "  \"verdict\": \"" + std::string(SalvageVerdictName(report.verdict)) +
         "\",\n";
  out += "  \"exitCode\": " + std::to_string(SalvageExitCode(report)) + ",\n";
  out += "  \"checkpointPresent\": " +
         std::string(report.checkpoint_present ? "true" : "false") + ",\n";
  out += "  \"checkpointValid\": " +
         std::string(report.checkpoint_valid ? "true" : "false") + ",\n";
  out += "  \"walPresent\": " +
         std::string(report.wal_present ? "true" : "false") + ",\n";
  out += "  \"walSize\": " + std::to_string(report.wal_size) + ",\n";
  out += "  \"walValidSize\": " + std::to_string(report.wal_valid_size) + ",\n";
  out += "  \"walValidRecords\": " + std::to_string(report.wal_valid_records) +
         ",\n";
  out += "  \"walRecordsAfterHole\": " +
         std::to_string(report.wal_records_after_hole) + ",\n";
  out += "  \"sharded\": " +
         std::string(report.sharded ? "true" : "false") + ",\n";
  if (report.sharded) {
    out += "  \"shards\": " + std::to_string(report.shards) + ",\n";
    std::string logs;
    for (const SalvageLogReport& log : report.logs) {
      if (!logs.empty()) logs += ",";
      logs += "\n    {\"file\": \"" + EscapeJson(log.file) +
              "\", \"present\": " + (log.present ? "true" : "false") +
              ", \"size\": " + std::to_string(log.size) +
              ", \"validSize\": " + std::to_string(log.valid_size) +
              ", \"validRecords\": " + std::to_string(log.valid_records) +
              ", \"recordsAfterHole\": " +
              std::to_string(log.records_after_hole) +
              ", \"repaired\": " + (log.repaired ? "true" : "false") + "}";
    }
    out += "  \"logs\": [" + logs;
    out += logs.empty() ? "],\n" : "\n  ],\n";
  }
  out += "  \"compact\": " +
         std::string(report.compact ? "true" : "false") + ",\n";
  if (report.compact) {
    out += "  \"segmentsReferenced\": " +
           std::to_string(report.segments_referenced) + ",\n";
    out += "  \"segmentsDamaged\": " +
           std::to_string(report.segments_damaged) + ",\n";
    out += "  \"compactStateDamaged\": " +
           std::string(report.compact_state_damaged ? "true" : "false") +
           ",\n";
    out += "  \"compactStateQuarantined\": " +
           std::string(report.compact_state_quarantined ? "true" : "false") +
           ",\n";
    std::string seg_logs;
    for (const SalvageLogReport& log : report.segment_logs) {
      if (!seg_logs.empty()) seg_logs += ",";
      seg_logs += "\n    {\"file\": \"" + EscapeJson(log.file) +
                  "\", \"present\": " + (log.present ? "true" : "false") +
                  ", \"size\": " + std::to_string(log.size) +
                  ", \"validSize\": " + std::to_string(log.valid_size) +
                  ", \"validRecords\": " + std::to_string(log.valid_records) +
                  ", \"repaired\": " + (log.repaired ? "true" : "false") +
                  "}";
    }
    out += "  \"segmentLogs\": [" + seg_logs;
    out += seg_logs.empty() ? "],\n" : "\n  ],\n";
  }
  out += "  \"repaired\": " +
         std::string(report.repaired ? "true" : "false") + ",\n";
  if (report.repaired) {
    out += "  \"quarantinePath\": \"" + EscapeJson(report.quarantine_path) +
           "\",\n";
    out += "  \"quarantinedBytes\": " +
           std::to_string(report.quarantined_bytes) + ",\n";
  }
  out += "  \"findings\": [" + findings;
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

int SalvageExitCode(const SalvageReport& report) {
  if (report.repaired) return 1;
  switch (report.verdict) {
    case SalvageVerdict::kClean:
      return 0;
    case SalvageVerdict::kTruncatedTail:
      return 1;
    case SalvageVerdict::kNeedsRepair:
      return 3;
    case SalvageVerdict::kUnrecoverable:
      return 4;
  }
  return 4;
}

}  // namespace ttra
