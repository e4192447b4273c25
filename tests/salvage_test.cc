#include "storage/salvage.h"

#include <gtest/gtest.h>

#include "legacy_wal.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace ttra {
namespace {

// ScanStorage/RepairStorage behind `ttra fsck`: the scan classifies the
// damage (exit codes 0/1/3/4), repair quarantines the damaged bytes and
// truncates the WAL to its last valid prefix so recovery succeeds.

constexpr size_t kWalHeaderSize = 9;

/// Builds "<dir>/wal.log" holding `payloads`; returns the image bytes.
std::string MakeWal(Env* env, const std::string& dir,
                    const std::vector<std::string>& payloads) {
  WalWriter writer(env, dir + "/wal.log");
  EXPECT_TRUE(writer.Create().ok());
  for (const std::string& p : payloads) {
    EXPECT_TRUE(writer.AddRecord(p).ok());
  }
  EXPECT_TRUE(writer.Sync().ok());
  return *env->Read(dir + "/wal.log");
}

/// Replaces a file's content wholesale (InMemoryEnv has no overwrite op).
void Overwrite(Env* env, const std::string& path, const std::string& data) {
  ASSERT_TRUE(env->Truncate(path).ok());
  ASSERT_TRUE(env->Append(path, data).ok());
  ASSERT_TRUE(env->Sync(path).ok());
}

TEST(SalvageScanTest, CleanDirectoryIsClean) {
  InMemoryEnv env;
  MakeWal(&env, "d", {"r0", "r1"});
  auto report = ScanStorage(&env, "d");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->verdict, SalvageVerdict::kClean);
  EXPECT_TRUE(report->findings.empty());
  EXPECT_TRUE(report->wal_present);
  EXPECT_FALSE(report->checkpoint_present);
  EXPECT_EQ(report->wal_valid_records, 2u);
  EXPECT_EQ(report->wal_valid_size, report->wal_size);
  EXPECT_EQ(SalvageExitCode(*report), 0);
}

TEST(SalvageScanTest, EmptyDirectoryIsClean) {
  InMemoryEnv env;
  auto report = ScanStorage(&env, "d");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SalvageVerdict::kClean);
  EXPECT_FALSE(report->wal_present);
  EXPECT_EQ(SalvageExitCode(*report), 0);
}

TEST(SalvageScanTest, TornTailIsExitCodeOne) {
  InMemoryEnv env;
  const std::string image = MakeWal(&env, "d", {"r0", "r1"});
  Overwrite(&env, "d/wal.log", image.substr(0, image.size() - 3));
  auto report = ScanStorage(&env, "d");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SalvageVerdict::kTruncatedTail);
  EXPECT_EQ(report->wal_valid_records, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].file, "d/wal.log");
  EXPECT_EQ(report->findings[0].offset, report->wal_valid_size);
  EXPECT_EQ(SalvageExitCode(*report), 1);
}

TEST(SalvageScanTest, MidLogHoleNeedsRepair) {
  InMemoryEnv env;
  std::string image = MakeWal(&env, "d", {"r0", "r1", "r2"});
  // Flip one payload bit of r1: checksum mismatch with r2 intact behind.
  const size_t r1_end = MakeWal(&env, "scratch", {"r0", "r1"}).size();
  image[r1_end - 1] ^= 0x01;
  Overwrite(&env, "d/wal.log", image);

  auto report = ScanStorage(&env, "d");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_EQ(report->wal_valid_records, 1u);
  EXPECT_EQ(report->wal_records_after_hole, 1u);
  EXPECT_EQ(SalvageExitCode(*report), 3);
  // Two findings: the damaged record, and the stranded survivors.
  ASSERT_EQ(report->findings.size(), 2u);
  EXPECT_EQ(report->findings[0].cause, "checksum-mismatch");
  EXPECT_EQ(report->findings[1].cause, "stranded-records");
}

TEST(SalvageRepairTest, QuarantinesTheTailAndTruncatesToTheValidPrefix) {
  InMemoryEnv env;
  std::string image = MakeWal(&env, "d", {"r0", "r1", "r2"});
  const size_t valid = MakeWal(&env, "scratch", {"r0"}).size();
  image[valid + 3] ^= 0x40;  // corrupt r1's frame header
  Overwrite(&env, "d/wal.log", image);

  auto report = RepairStorage(&env, "d");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->repaired);
  EXPECT_EQ(report->quarantine_path, "d/wal.log.quarantine");
  EXPECT_EQ(report->quarantined_bytes, image.size() - valid);
  // Nothing was deleted: quarantine holds the exact damaged bytes.
  EXPECT_EQ(*env.Read("d/wal.log.quarantine"), image.substr(valid));
  // The WAL is now the exact valid prefix, and reads back clean.
  EXPECT_EQ(*env.Read("d/wal.log"), image.substr(0, valid));
  auto read = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"r0"});
  EXPECT_FALSE(read->torn_tail);
  // A re-scan agrees the directory is healthy again.
  auto rescan = ScanStorage(&env, "d");
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->verdict, SalvageVerdict::kClean);
}

TEST(SalvageRepairTest, CleanDirectoryIsLeftUntouched) {
  InMemoryEnv env;
  const std::string image = MakeWal(&env, "d", {"r0"});
  auto report = RepairStorage(&env, "d");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->repaired);
  EXPECT_EQ(SalvageExitCode(*report), 0);
  EXPECT_EQ(*env.Read("d/wal.log"), image);
  EXPECT_FALSE(env.Exists("d/wal.log.quarantine"));
}

TEST(SalvageRepairTest, DamagedHeaderQuarantinesTheWholeFile) {
  InMemoryEnv env;
  const std::string garbage = "this is definitely not a wal file";
  Overwrite(&env, "d/wal.log", garbage);
  auto scan = ScanStorage(&env, "d");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->verdict, SalvageVerdict::kNeedsRepair);
  ASSERT_FALSE(scan->findings.empty());
  EXPECT_EQ(scan->findings[0].cause, "bad-header");

  auto report = RepairStorage(&env, "d");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->repaired);
  EXPECT_EQ(*env.Read("d/wal.log.quarantine"), garbage);
  // The replacement is a fresh, durably-empty, readable log.
  auto read = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->torn_tail);
}

TEST(SalvageScanTest, InvalidCheckpointIsUnrecoverable) {
  InMemoryEnv env;
  MakeWal(&env, "d", {"r0"});
  Overwrite(&env, "d/checkpoint.db", "not a checkpoint");
  SalvageOptions options;
  options.validate_checkpoint = [](std::string_view data) {
    return DecodeDatabase(data).status();
  };
  auto report = ScanStorage(&env, "d", options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SalvageVerdict::kUnrecoverable);
  EXPECT_TRUE(report->checkpoint_present);
  EXPECT_FALSE(report->checkpoint_valid);
  EXPECT_EQ(SalvageExitCode(*report), 4);
  // Repair will not fabricate a base state: nothing is touched.
  auto repair = RepairStorage(&env, "d", options);
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->repaired);
  EXPECT_FALSE(env.Exists("d/wal.log.quarantine"));
}

TEST(SalvageScanTest, SemanticValidatorCutsAtChecksummedGarbage) {
  // A record can checksum perfectly and still be garbage (a misdirected
  // but well-framed write). Only the injected semantic validator can tell.
  InMemoryEnv env;
  MakeWal(&env, "d", {"good-0", "BAD", "good-2"});
  SalvageOptions options;
  options.validate_record = [](std::string_view payload) {
    return payload == "BAD" ? CorruptionError("not a command record")
                            : Status::Ok();
  };
  auto report = ScanStorage(&env, "d", options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_EQ(report->wal_valid_records, 1u);
  EXPECT_EQ(report->wal_records_after_hole, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].cause, "invalid-record");
  const size_t good0_size = MakeWal(&env, "scratch", {"good-0"}).size();
  EXPECT_EQ(report->findings[0].offset, good0_size);
  EXPECT_EQ(report->wal_valid_size, good0_size);

  auto repaired = RepairStorage(&env, "d", options);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->repaired);
  auto read = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"good-0"});
}

TEST(SalvageReportTest, JsonCarriesVerdictExitCodeAndFindings) {
  InMemoryEnv env;
  std::string image = MakeWal(&env, "d", {"r0", "r1", "r2"});
  const size_t r1_end = MakeWal(&env, "scratch", {"r0", "r1"}).size();
  image[r1_end - 1] ^= 0x01;
  Overwrite(&env, "d/wal.log", image);
  auto report = ScanStorage(&env, "d");
  ASSERT_TRUE(report.ok());

  const std::string json = SalvageReportToJson(*report);
  EXPECT_NE(json.find("\"verdict\": \"needs-repair\""), std::string::npos);
  EXPECT_NE(json.find("\"exitCode\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cause\": \"checksum-mismatch\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\": \"stranded-records\""), std::string::npos);
  EXPECT_NE(json.find("\"walRecordsAfterHole\": 1"), std::string::npos);

  const std::string human = FormatSalvageReport(*report);
  EXPECT_NE(human.find("verdict: needs-repair"), std::string::npos);
  EXPECT_NE(human.find("stranded"), std::string::npos);
}

TEST(SalvageReportTest, VerdictNamesAreStable) {
  EXPECT_EQ(SalvageVerdictName(SalvageVerdict::kClean), "clean");
  EXPECT_EQ(SalvageVerdictName(SalvageVerdict::kTruncatedTail),
            "truncated-tail");
  EXPECT_EQ(SalvageVerdictName(SalvageVerdict::kNeedsRepair), "needs-repair");
  EXPECT_EQ(SalvageVerdictName(SalvageVerdict::kUnrecoverable),
            "unrecoverable");
}

// --- End to end with the executor ------------------------------------------
//
// The damaged directories are legacy single-writer ones (tests/
// legacy_wal.h): fsck must still scan and repair a directory the first
// open has not migrated yet, and the executor's migrating Start() is the
// recovery that must refuse damage, then succeed on the repaired prefix.

Schema OneIntSchema() {
  return *Schema::Make({{"n", ValueType::kInt}});
}

std::vector<Command> NthSentence(int i) {
  std::vector<Tuple> rows;
  for (int k = 0; k <= i; ++k) rows.push_back(Tuple{Value::Int(k)});
  std::vector<Command> sentence;
  sentence.push_back(ModifySnapshotCmd{
      "r", *SnapshotState::Make(OneIntSchema(), std::move(rows))});
  return sentence;
}

/// The executor with one shard, as `ttra recover` opens a directory.
ShardedOptions OneShard(const DurableOptions& durable = {}) {
  ShardedOptions options;
  options.shards = 1;
  options.durable = durable;
  return options;
}

/// The CLI's configuration: semantic validation via the rollback decoders.
SalvageOptions ExecutorSalvageOptions() {
  SalvageOptions options;
  options.validate_record = [](std::string_view payload) {
    return DecodeWalRecord(payload).status();
  };
  options.validate_checkpoint = [](std::string_view data) {
    return DecodeDatabase(data).status();
  };
  return options;
}

TEST(SalvageEndToEndTest, RepairTurnsARefusedRecoveryIntoASuccessfulOne) {
  InMemoryEnv env;
  {
    LegacyDir legacy(&env, "d");
    ASSERT_TRUE(legacy.Create().ok());
    ASSERT_TRUE(legacy.Submit({Command(DefineRelationCmd{
                        "r", RelationType::kRollback, OneIntSchema()})})
                    .ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(legacy.Submit(NthSentence(i)).ok());
    }
  }
  // Bit rot strikes the middle of the WAL (inside record #2's payload,
  // well clear of the records around it).
  std::string image = *env.Read("d/wal.log");
  auto intact = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 5u);
  image[intact->record_offsets[2] + 20] ^= 0x02;
  Overwrite(&env, "d/wal.log", image);

  // Recovery refuses: intact acked commits lie beyond the hole, and
  // silently truncating would drop them.
  {
    ShardedExecutor exec(&env, "d", OneShard());
    Status refused = exec.Start();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kCorruption);
    EXPECT_NE(refused.message().find("fsck"), std::string::npos)
        << "refusal must point the operator at the repair tool: "
        << refused.message();
  }

  auto report = RepairStorage(&env, "d", ExecutorSalvageOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->repaired);
  EXPECT_EQ(SalvageExitCode(*report), 1);

  // After repair, recovery succeeds on the salvaged prefix: the records
  // before the hole.
  ShardedExecutor exec(&env, "d", OneShard());
  ASSERT_TRUE(exec.Start().ok());
  Database expected(DatabaseOptions{});
  ASSERT_TRUE(ApplySentence(expected,
                            {Command(DefineRelationCmd{
                                "r", RelationType::kRollback, OneIntSchema()})})
                  .ok());
  ASSERT_TRUE(ApplySentence(expected, NthSentence(0)).ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), EncodeDatabase(expected));
  // And the repaired executor accepts new writes.
  EXPECT_TRUE(exec.Submit(NthSentence(5)).ok());
}

// --- Sharded layout ---------------------------------------------------------

/// The CLI's configuration for a sharded directory: shard-protocol records
/// validated via the sharded decoder.
SalvageOptions ShardedSalvageOptions() {
  SalvageOptions options;
  options.validate_shard_record = [](std::string_view payload) {
    return DecodeShardRecord(payload).status();
  };
  options.validate_checkpoint = [](std::string_view data) {
    return DecodeDatabase(data).status();
  };
  return options;
}

/// A relation name whose home is `shard` under `shards` shards.
std::string NameOnShard(size_t shard, size_t shards) {
  for (int i = 0;; ++i) {
    std::string candidate = "rel" + std::to_string(i);
    if (ShardOfName(candidate, shards) == shard) return candidate;
  }
}

std::vector<Command> ModifyOf(const std::string& name, int i) {
  std::vector<Tuple> rows;
  for (int k = 0; k <= i; ++k) rows.push_back(Tuple{Value::Int(k)});
  std::vector<Command> sentence;
  sentence.push_back(ModifySnapshotCmd{
      name, *SnapshotState::Make(OneIntSchema(), std::move(rows))});
  return sentence;
}

/// Builds a 2-shard store with a deterministic alternating workload and
/// returns the sentences in commit order (each synchronous Submit is its
/// own batch). Shard 1's WAL ends up holding: prepare+commit for the
/// define of r1, then for each of its two modifies.
std::vector<std::vector<Command>> BuildShardedStore(Env* env,
                                                    const std::string& dir) {
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  std::vector<std::vector<Command>> sentences;
  sentences.push_back({Command{DefineRelationCmd{
      on0, RelationType::kRollback, OneIntSchema()}}});
  sentences.push_back({Command{DefineRelationCmd{
      on1, RelationType::kRollback, OneIntSchema()}}});
  sentences.push_back(ModifyOf(on0, 0));  // base 2
  sentences.push_back(ModifyOf(on1, 1));  // base 3
  sentences.push_back(ModifyOf(on0, 2));  // base 4
  sentences.push_back(ModifyOf(on1, 3));  // base 5
  sentences.push_back(ModifyOf(on0, 4));  // base 6

  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.shards = 2;
  ShardedExecutor exec(env, dir, options);
  EXPECT_TRUE(exec.Start().ok());
  for (const auto& sentence : sentences) {
    EXPECT_TRUE(exec.Submit(sentence).ok());
  }
  exec.Stop();
  return sentences;
}

/// Oracle: the database after serially applying `sentences[0..n)`.
std::string PrefixEncoding(const std::vector<std::vector<Command>>& sentences,
                           size_t n) {
  Database db{DatabaseOptions{}};
  for (size_t i = 0; i < n; ++i) {
    (void)ApplySentence(db, sentences[i]);
  }
  return EncodeDatabase(db);
}

TEST(ShardedSalvageTest, CleanShardedDirectoryScansCleanPerLog) {
  InMemoryEnv env;
  BuildShardedStore(&env, "d");
  auto report = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->sharded);
  EXPECT_EQ(report->shards, 2u);
  ASSERT_EQ(report->logs.size(), 2u);  // the two shard WALs
  EXPECT_EQ(report->verdict, SalvageVerdict::kClean);
  EXPECT_TRUE(report->findings.empty());
  EXPECT_EQ(SalvageExitCode(*report), 0);
  // Per-log accounting: every log present and fully valid; shard 1 homed
  // a define + three modifies = 2 records each (prepare + commit).
  for (const SalvageLogReport& log : report->logs) {
    EXPECT_TRUE(log.present) << log.file;
    EXPECT_EQ(log.valid_size, log.size) << log.file;
  }
  EXPECT_EQ(report->logs[1].file, "d/" + ShardWalFile(1));
  EXPECT_EQ(report->logs[1].valid_records, 6u);
  const std::string human = FormatSalvageReport(*report);
  EXPECT_NE(human.find("layout: sharded, 2 shard(s)"), std::string::npos);
  const std::string json = SalvageReportToJson(*report);
  EXPECT_NE(json.find("\"sharded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
}

TEST(ShardedSalvageTest, MissingShardWalIsFlaggedAndRecreatedByRepair) {
  InMemoryEnv env;
  BuildShardedStore(&env, "d");
  ASSERT_TRUE(env.Remove("d/" + ShardWalFile(1)).ok());
  auto scan = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(scan.ok());
  ASSERT_FALSE(scan->findings.empty());
  EXPECT_EQ(scan->findings[0].cause, "missing-log");
  auto repair = RepairStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->repaired);
  auto read = ReadWal(env, "d/" + ShardWalFile(1));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
}

TEST(ShardedSalvageTest, RepairingOneShardsTornTailRecoversAConsistentPrefix) {
  // Media damage tears the tail of ONE shard's WAL — the commit record
  // of its last batch (base 5). After `fsck --repair` cuts the tear,
  // recovery must come back with a consistent GLOBAL prefix: the torn
  // batch reads as in-doubt (dropped), which strands the later batch on
  // the OTHER shard (base 6) beyond the gap, so it is dropped too rather
  // than applied out of order. The quarantine preserves the cut bytes —
  // this is damage to durable data, and fsck's contract is a consistent
  // prefix plus nothing silently deleted, not resurrection.
  InMemoryEnv env;
  const auto sentences = BuildShardedStore(&env, "d");
  const std::string shard1 = "d/" + ShardWalFile(1);
  const std::string image = *env.Read(shard1);
  Overwrite(&env, shard1, image.substr(0, image.size() - 3));

  auto scan = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->verdict, SalvageVerdict::kTruncatedTail);
  EXPECT_EQ(SalvageExitCode(*scan), 1);

  auto repair = RepairStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_TRUE(repair->repaired);
  EXPECT_TRUE(env.Exists(shard1 + ".quarantine"));

  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.shards = 2;
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  // The base-5 batch lost its commit record (in-doubt, dropped); the
  // base-6 batch on shard 0 is beyond the gap (dropped). What survives is
  // exactly the first five sentences — transaction numbers 1..5.
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), PrefixEncoding(sentences, 5));
  EXPECT_EQ(exec.last_recovery().dropped_in_doubt, 2u);
  // The repaired store is live again.
  EXPECT_TRUE(exec.Submit(ModifyOf(NameOnShard(1, 2), 7)).ok());
  exec.Stop();
}

TEST(ShardedSalvageTest, ZeroTailScansCleanAndRepairQuarantinesNothing) {
  // The shape a crash leaves on a PosixEnv shard log: every record, then
  // the zeros written ahead of them (storage/env.h). That is a clean end:
  // fsck reports it, repair leaves it alone, and recovery loses nothing.
  InMemoryEnv env;
  const auto sentences = BuildShardedStore(&env, "d");
  const std::string shard1 = "d/" + ShardWalFile(1);
  const std::string records = *env.Read(shard1);
  ASSERT_TRUE(env.Append(shard1, std::string(1 << 16, '\0')).ok());

  auto scan = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->verdict, SalvageVerdict::kClean);
  EXPECT_TRUE(scan->findings.empty());
  EXPECT_EQ(SalvageExitCode(*scan), 0);
  ASSERT_EQ(scan->logs.size(), 2u);
  EXPECT_EQ(scan->logs[1].valid_size, records.size());
  EXPECT_EQ(scan->logs[1].zero_tail, 1u << 16);
  EXPECT_EQ(scan->logs[1].size, records.size() + (1u << 16));
  EXPECT_NE(FormatSalvageReport(*scan).find("65536 zero byte(s) (clean end)"),
            std::string::npos);

  auto repair = RepairStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_FALSE(repair->repaired);
  EXPECT_EQ(repair->quarantined_bytes, 0u);
  EXPECT_FALSE(env.Exists(shard1 + ".quarantine"));
  EXPECT_EQ(env.Read(shard1)->size(), records.size() + (1u << 16));

  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.shards = 2;
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()),
            PrefixEncoding(sentences, sentences.size()));
  EXPECT_EQ(exec.last_recovery().torn_tails, 0u);
  EXPECT_EQ(exec.last_recovery().dropped_in_doubt, 0u);
  exec.Stop();

  // Next to a torn log, repair cuts the tear and still spares the zeros.
  InMemoryEnv mixed;
  BuildShardedStore(&mixed, "m");
  const std::string torn = "m/" + ShardWalFile(0);
  const std::string zeroed = "m/" + ShardWalFile(1);
  ASSERT_TRUE(mixed.Append(torn, "torn-half-record").ok());
  ASSERT_TRUE(mixed.Append(zeroed, std::string(4096, '\0')).ok());
  const std::string zeroed_image = *mixed.Read(zeroed);
  auto mixed_repair = RepairStorage(&mixed, "m", ShardedSalvageOptions());
  ASSERT_TRUE(mixed_repair.ok()) << mixed_repair.status();
  EXPECT_TRUE(mixed_repair->repaired);
  EXPECT_EQ(mixed_repair->quarantined_bytes, std::string("torn-half-record").size());
  EXPECT_TRUE(mixed.Exists(torn + ".quarantine"));
  EXPECT_FALSE(mixed.Exists(zeroed + ".quarantine"));
  EXPECT_EQ(*mixed.Read(zeroed), zeroed_image);
}

TEST(ShardedSalvageTest, MidLogDamageInOneShardRefusesThenRepairs) {
  // Bit rot INSIDE one shard's WAL (intact records behind the hole):
  // recovery refuses with the fsck hint; repair cuts at the hole; the
  // recovered prefix is again globally consistent.
  InMemoryEnv env;
  const auto sentences = BuildShardedStore(&env, "d");
  const std::string shard1 = "d/" + ShardWalFile(1);
  std::string image = *env.Read(shard1);
  auto intact = ReadWal(env, shard1);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 6u);
  // Damage record #3: the commit record of the base-3 batch.
  image[intact->record_offsets[3] + 10] ^= 0x04;
  Overwrite(&env, shard1, image);

  {
    ShardedOptions options;
    options.shards = 2;
    ShardedExecutor exec(&env, "d", options);
    Status refused = exec.Start();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kCorruption);
    EXPECT_NE(refused.message().find("fsck"), std::string::npos);
  }

  auto scan = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_EQ(SalvageExitCode(*scan), 3);
  auto repair = RepairStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(repair.ok()) << repair.status();
  EXPECT_TRUE(repair->repaired);

  ShardedOptions options;
  options.shards = 2;
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  // The base-3 batch lost its commit record; everything from base 3 on is
  // dropped. Prefix = defines + the first modify.
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), PrefixEncoding(sentences, 3));
  exec.Stop();
}

TEST(ShardedSalvageTest, InterruptedMigrationScansTheLegacyLog) {
  // A migration that stopped after writing the MANIFEST but before
  // removing the legacy wal.log leaves both. The next Start() replays
  // wal.log, so fsck must scan and repair it with the shard logs.
  InMemoryEnv env;
  {
    LegacyDir legacy(&env, "d");
    ASSERT_TRUE(legacy.Create().ok());
    ASSERT_TRUE(legacy.Submit({Command(DefineRelationCmd{
                        "r", RelationType::kRollback, OneIntSchema()})})
                    .ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(legacy.Submit(NthSentence(i)).ok());
    }
  }
  Overwrite(&env, std::string("d/") + kShardManifestFile,
            "ttra-shards 1\nshards 1\n");
  // Bit rot in the middle of wal.log, inside record #2's payload.
  std::string image = *env.Read("d/wal.log");
  auto intact = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(intact.ok());
  image[intact->record_offsets[2] + 20] ^= 0x02;
  Overwrite(&env, "d/wal.log", image);

  SalvageOptions fsck = ExecutorSalvageOptions();
  fsck.validate_shard_record = ShardedSalvageOptions().validate_shard_record;
  auto scan = ScanStorage(&env, "d", fsck);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->sharded);
  EXPECT_EQ(scan->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_EQ(SalvageExitCode(*scan), 3);
  {
    ShardedExecutor exec(&env, "d", OneShard());
    EXPECT_EQ(exec.Start().code(), ErrorCode::kCorruption);
  }

  auto repaired = RepairStorage(&env, "d", fsck);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->repaired);
  ShardedExecutor exec(&env, "d", OneShard());
  ASSERT_TRUE(exec.Start().ok());
  Database expected(DatabaseOptions{});
  ASSERT_TRUE(ApplySentence(expected,
                            {Command(DefineRelationCmd{
                                "r", RelationType::kRollback, OneIntSchema()})})
                  .ok());
  ASSERT_TRUE(ApplySentence(expected, NthSentence(0)).ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), EncodeDatabase(expected));
  EXPECT_FALSE(env.Exists("d/wal.log"));
  exec.Stop();
}

TEST(ShardedSalvageTest, FsckAndStartAgreeOnTheShardCountLimit) {
  // fsck and Start() parse MANIFEST with one parser, so fsck never calls a
  // directory clean that Start() then refuses to open.
  InMemoryEnv env;
  BuildShardedStore(&env, "d");
  Overwrite(&env, std::string("d/") + kShardManifestFile,
            ShardManifestText(kMaxShards));
  auto at_limit = ScanStorage(&env, "d", ShardedSalvageOptions());
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(at_limit->shards, kMaxShards);
  EXPECT_NE(at_limit->verdict, SalvageVerdict::kUnrecoverable);

  ShardedOptions options;
  options.shards = 2;
  // Above the limit, and a count no integer type holds.
  for (const std::string count : {"2000", "123456789012345678901234567"}) {
    SCOPED_TRACE(count);
    Overwrite(&env, std::string("d/") + kShardManifestFile,
              "ttra-shards 1\nshards " + count + "\n");
    auto scan = ScanStorage(&env, "d", ShardedSalvageOptions());
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->verdict, SalvageVerdict::kUnrecoverable);
    ASSERT_EQ(scan->findings.size(), 1u);
    EXPECT_EQ(scan->findings[0].cause, "manifest-invalid");
    ShardedExecutor exec(&env, "d", options);
    EXPECT_EQ(exec.Start().code(), ErrorCode::kCorruption);
  }

  // A fresh directory is refused a count its MANIFEST could not hold.
  options.shards = kMaxShards + 1;
  ShardedExecutor fresh(&env, "fresh", options);
  EXPECT_EQ(fresh.Start().code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(env.Exists(std::string("fresh/") + kShardManifestFile));
}

// --- Compact layout ---------------------------------------------------------
//
// Segment-file torture for the compact checkpoint layout (DESIGN.md §16).
// The classification rules under test: damage BEYOND a file's covered
// watermark is a torn in-progress checkpoint (exit 1, cut it); damage
// INSIDE the covered region — bit rot in a covered delta, a missing
// segment file, an unfoldable manifest — taints the whole compact state
// (exit 3), and repair quarantines it wholesale so recovery rebuilds from
// the retained WAL; if the WAL cannot prove it replays from transaction 0
// (it was truncated by an online compaction), that damage is honestly
// unrecoverable (exit 4).

/// The CLI's fsck configuration for a compact directory: executor options
/// plus the pre-txn extractor that proves WAL rebuildability.
SalvageOptions CompactSalvageOptions() {
  SalvageOptions options = ExecutorSalvageOptions();
  options.wal_record_pre_txn =
      [](std::string_view payload) -> Result<TransactionNumber> {
    auto decoded = DecodeWalRecord(payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->empty()) return CorruptionError("empty wal record");
    return decoded->front().pre_txn;
  };
  return options;
}

CompactOptions CompactKeyframes() {
  CompactOptions options;
  options.keyframe_interval = 3;
  return options;
}

ShardedOptions CompactExecutorOptions() {
  DurableOptions options;
  options.compact = CompactKeyframes();
  return OneShard(options);
}

/// Writes the fixed workload as a legacy single-writer directory with a
/// checkpoint every three sentences; returns the expected final encoding.
/// The directory ends with a multi-entry segment for "r" and a WAL
/// retained back to transaction 0.
std::string BuildCompactDir(Env* env, const std::string& dir) {
  LegacyDir legacy(env, dir, CompactKeyframes());
  EXPECT_TRUE(legacy.Create().ok());
  EXPECT_TRUE(legacy.Submit({Command(DefineRelationCmd{
                      "r", RelationType::kRollback, OneIntSchema()})})
                  .ok());
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(legacy.Submit(NthSentence(i)).ok());
    if (i % 3 == 2) {
      EXPECT_TRUE(legacy.Checkpoint().ok());
    }
  }
  return EncodeDatabase(legacy.db());
}

/// The one segment file of "r" in `dir`.
std::string SegmentPathIn(Env* env, const std::string& dir) {
  auto entries = env->List(dir);
  EXPECT_TRUE(entries.ok());
  for (const std::string& name : *entries) {
    if (IsSegmentFileName(name)) return dir + "/" + name;
  }
  ADD_FAILURE() << "no segment file in " << dir;
  return "";
}

TEST(CompactSalvageTest, CleanCompactDirectoryScansCleanPerSegment) {
  InMemoryEnv env;
  BuildCompactDir(&env, "d");
  auto report = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->verdict, SalvageVerdict::kClean);
  EXPECT_TRUE(report->compact);
  EXPECT_EQ(report->segments_referenced, 1u);
  EXPECT_EQ(report->segments_damaged, 0u);
  EXPECT_FALSE(report->compact_state_damaged);
  // Manifest first, then the one referenced segment.
  ASSERT_EQ(report->segment_logs.size(), 2u);
  EXPECT_EQ(report->segment_logs[0].file, "d/segments.manifest");
  EXPECT_EQ(SalvageExitCode(*report), 0);
}

TEST(CompactSalvageTest, TornSegmentTailIsCutNotQuarantined) {
  InMemoryEnv env;
  const std::string expected = BuildCompactDir(&env, "d");
  // A checkpoint died after appending a keyframe but before its manifest
  // record: bytes beyond the covered watermark, not a valid frame.
  const std::string seg = SegmentPathIn(&env, "d");
  const std::string image = *env.Read(seg);
  ASSERT_TRUE(env.Append(seg, "torn keyframe bytes").ok());
  ASSERT_TRUE(env.Sync(seg).ok());

  auto report = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->verdict, SalvageVerdict::kTruncatedTail);
  EXPECT_FALSE(report->compact_state_damaged);
  EXPECT_EQ(SalvageExitCode(*report), 1);

  auto repaired = RepairStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->repaired);
  EXPECT_FALSE(repaired->compact_state_quarantined);
  // Only the torn bytes were cut: the covered prefix is intact.
  EXPECT_EQ(*env.Read(seg), image);

  ShardedExecutor exec(&env, "d", CompactExecutorOptions());
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), expected);
}

TEST(CompactSalvageTest, BitFlippedCoveredDeltaQuarantinesTheCompactState) {
  InMemoryEnv env;
  const std::string expected = BuildCompactDir(&env, "d");
  // Bit rot INSIDE the covered region of the segment.
  const std::string seg = SegmentPathIn(&env, "d");
  std::string image = *env.Read(seg);
  image[image.size() / 2] ^= 0x10;
  Overwrite(&env, seg, image);

  auto scan = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_TRUE(scan->compact_state_damaged);
  EXPECT_EQ(scan->segments_damaged, 1u);
  EXPECT_EQ(SalvageExitCode(*scan), 3);

  // Recovery refuses until fsck has ruled.
  {
    ShardedExecutor exec(&env, "d", CompactExecutorOptions());
    Status refused = exec.Start();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kCorruption);
  }

  auto repaired = RepairStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->repaired);
  EXPECT_TRUE(repaired->compact_state_quarantined);
  // The whole compact state moved aside; nothing was deleted.
  EXPECT_FALSE(env.Exists("d/segments.manifest"));
  EXPECT_TRUE(env.Exists("d/segments.manifest.quarantine"));
  EXPECT_EQ(*env.Read(seg + ".quarantine"), image);

  // The retained WAL rebuilds the EXACT acked state, byte for byte.
  ShardedExecutor exec(&env, "d", CompactExecutorOptions());
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), expected);
  EXPECT_TRUE(env.Exists("d/segments.manifest"))
      << "reopen must re-establish the compact layout";
}

TEST(CompactSalvageTest, MissingSegmentFileQuarantinesTheCompactState) {
  InMemoryEnv env;
  const std::string expected = BuildCompactDir(&env, "d");
  ASSERT_TRUE(env.Remove(SegmentPathIn(&env, "d")).ok());

  auto scan = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->verdict, SalvageVerdict::kNeedsRepair);
  EXPECT_TRUE(scan->compact_state_damaged);
  bool missing_finding = false;
  for (const SalvageFinding& finding : scan->findings) {
    if (finding.cause == "missing-segment") missing_finding = true;
  }
  EXPECT_TRUE(missing_finding);

  auto repaired = RepairStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->compact_state_quarantined);
  ShardedExecutor exec(&env, "d", CompactExecutorOptions());
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), expected);
}

TEST(CompactSalvageTest, CoveredDamageAfterOnlineCompactionIsUnrecoverable) {
  InMemoryEnv env;
  {
    LegacyDir legacy(&env, "d", CompactKeyframes());
    ASSERT_TRUE(legacy.Create().ok());
    ASSERT_TRUE(legacy.Submit({Command(DefineRelationCmd{
                        "r", RelationType::kRollback, OneIntSchema()})})
                    .ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(legacy.Submit(NthSentence(i)).ok());
    }
    // Online compaction truncates the WAL: the compact state is now the
    // ONLY copy of history before transaction 5.
    ASSERT_TRUE(legacy.CompactStorage().ok());
    ASSERT_TRUE(legacy.Submit(NthSentence(4)).ok());
  }
  const std::string seg = SegmentPathIn(&env, "d");
  std::string image = *env.Read(seg);
  image[image.size() / 2] ^= 0x10;
  Overwrite(&env, seg, image);

  auto scan = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->verdict, SalvageVerdict::kUnrecoverable);
  EXPECT_EQ(SalvageExitCode(*scan), 4);
  // Repair refuses to fabricate a base: nothing is moved.
  auto repaired = RepairStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_FALSE(repaired->repaired);
  EXPECT_TRUE(env.Exists("d/segments.manifest"));
}

TEST(CompactSalvageTest, JsonCarriesTheCompactSection) {
  InMemoryEnv env;
  BuildCompactDir(&env, "d");
  auto report = ScanStorage(&env, "d", CompactSalvageOptions());
  ASSERT_TRUE(report.ok());
  const std::string json = SalvageReportToJson(*report);
  EXPECT_NE(json.find("\"compact\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"segmentsReferenced\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"segmentLogs\""), std::string::npos) << json;
  const std::string human = FormatSalvageReport(*report);
  EXPECT_NE(human.find("layout: compact"), std::string::npos) << human;
}

}  // namespace
}  // namespace ttra
