#include "storage/wal.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "storage/env.h"

namespace ttra {
namespace {

// --- Env backends ----------------------------------------------------------

TEST(PosixEnvTest, AppendSyncReadRoundTrip) {
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/ttra_env_test.bin";
  ASSERT_TRUE(env->Truncate(path).ok());
  ASSERT_TRUE(env->Append(path, "hello ").ok());
  ASSERT_TRUE(env->Append(path, "world").ok());
  ASSERT_TRUE(env->Sync(path).ok());
  auto content = env->Read(path);
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(*content, "hello world");
  EXPECT_TRUE(env->Exists(path));
  ASSERT_TRUE(env->Remove(path).ok());
  EXPECT_FALSE(env->Exists(path));
  EXPECT_EQ(env->Read(path).status().code(), ErrorCode::kIoError);
}

TEST(PosixEnvTest, RenameReplacesAtomically) {
  Env* env = Env::Default();
  const std::string a = ::testing::TempDir() + "/ttra_env_a.bin";
  const std::string b = ::testing::TempDir() + "/ttra_env_b.bin";
  ASSERT_TRUE(env->Truncate(a).ok());
  ASSERT_TRUE(env->Append(a, "new").ok());
  ASSERT_TRUE(env->Truncate(b).ok());
  ASSERT_TRUE(env->Append(b, "old").ok());
  ASSERT_TRUE(env->Rename(a, b).ok());
  EXPECT_FALSE(env->Exists(a));
  EXPECT_EQ(*env->Read(b), "new");
  ASSERT_TRUE(env->Remove(b).ok());
}

TEST(PosixEnvTest, ListAndCreateDir) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/ttra_env_list_dir";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());  // idempotent
  ASSERT_TRUE(env->Append(dir + "/b.txt", "x").ok());
  ASSERT_TRUE(env->Append(dir + "/a.txt", "y").ok());
  auto names = env->List(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a.txt", "b.txt"}));
  ASSERT_TRUE(env->Remove(dir + "/a.txt").ok());
  ASSERT_TRUE(env->Remove(dir + "/b.txt").ok());
}

TEST(InMemoryEnvTest, DropUnsyncedLosesExactlyTheUnsyncedSuffix) {
  InMemoryEnv env;
  ASSERT_TRUE(env.Append("f", "durable").ok());
  ASSERT_TRUE(env.Sync("f").ok());
  ASSERT_TRUE(env.Append("f", " volatile").ok());
  env.DropUnsynced();
  EXPECT_EQ(*env.Read("f"), "durable");
  // A second crash loses nothing more.
  env.DropUnsynced();
  EXPECT_EQ(*env.Read("f"), "durable");
}

TEST(InMemoryEnvTest, RenameIsDurable) {
  InMemoryEnv env;
  ASSERT_TRUE(env.Append("tmp", "payload").ok());
  ASSERT_TRUE(env.Sync("tmp").ok());
  ASSERT_TRUE(env.Rename("tmp", "final").ok());
  env.DropUnsynced();
  EXPECT_FALSE(env.Exists("tmp"));
  EXPECT_EQ(*env.Read("final"), "payload");
}

TEST(FaultInjectionEnvTest, FailsTheNthOperation) {
  FaultInjectionEnv env;
  env.InjectFault(2, FaultInjectionEnv::FaultMode::kFailOp);
  EXPECT_TRUE(env.Append("f", "a").ok());
  Status failed = env.Append("f", "b");
  EXPECT_EQ(failed.code(), ErrorCode::kIoError);
  EXPECT_TRUE(env.fault_triggered());
  // One-shot: subsequent ops succeed again.
  EXPECT_TRUE(env.Append("f", "c").ok());
  EXPECT_EQ(*env.Read("f"), "ac");
}

TEST(FaultInjectionEnvTest, TornAppendWritesAPrefix) {
  FaultInjectionEnv env;
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kTornAppend);
  EXPECT_EQ(env.Append("f", "0123456789").code(), ErrorCode::kIoError);
  EXPECT_EQ(*env.Read("f"), "01234");  // half the write landed
  env.Crash();
  EXPECT_EQ(*env.Read("f"), "");  // and none of it was synced
}

TEST(FaultInjectionEnvTest, CountsAllMutatingOps) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.Truncate("f").ok());
  ASSERT_TRUE(env.Append("f", "x").ok());
  ASSERT_TRUE(env.TruncateTo("f", 0).ok());
  ASSERT_TRUE(env.Sync("f").ok());
  ASSERT_TRUE(env.Rename("f", "g").ok());
  ASSERT_TRUE(env.Remove("g").ok());
  EXPECT_EQ(env.op_count(), 6u);
}

TEST(InMemoryEnvTest, TruncateToCutsTheFileAndCapsSyncedSize) {
  InMemoryEnv env;
  ASSERT_TRUE(env.Append("f", "0123456789").ok());
  ASSERT_TRUE(env.Sync("f").ok());
  ASSERT_TRUE(env.TruncateTo("f", 4).ok());
  EXPECT_EQ(*env.Read("f"), "0123");
  // The cut bytes are gone for good: synced_size must have been capped,
  // or a crash would "restore" them.
  env.DropUnsynced();
  EXPECT_EQ(*env.Read("f"), "0123");
  // Growing a file via TruncateTo is not a thing.
  EXPECT_EQ(env.TruncateTo("f", 100).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(env.TruncateTo("missing", 0).code(), ErrorCode::kIoError);
}

TEST(PosixEnvTest, TruncateToCutsTheFile) {
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/ttra_truncate_to.bin";
  ASSERT_TRUE(env->Truncate(path).ok());
  ASSERT_TRUE(env->Append(path, "0123456789").ok());
  ASSERT_TRUE(env->Sync(path).ok());
  ASSERT_TRUE(env->TruncateTo(path, 7).ok());
  EXPECT_EQ(*env->Read(path), "0123456");
  ASSERT_TRUE(env->Append(path, "X").ok());  // append lands at the new end
  EXPECT_EQ(*env->Read(path), "0123456X");
  EXPECT_EQ(env->TruncateTo(path, 100).code(), ErrorCode::kInvalidArgument);
  ASSERT_TRUE(env->Remove(path).ok());
}

// --- Fault plans -----------------------------------------------------------

TEST(FaultPlanTest, SameSeedReplaysTheSameFailureHistory) {
  FaultPlanOptions plan;
  plan.transient_error_rate = 0.3;
  plan.torn_append_rate = 0.2;
  plan.max_transient_burst = 3;

  auto run = [&](FaultInjectionEnv& env) {
    env.ArmPlan(42, plan);
    std::vector<ErrorCode> history;
    for (int i = 0; i < 100; ++i) {
      history.push_back(env.Append("f", "payload-" + std::to_string(i)).code());
    }
    return history;
  };
  FaultInjectionEnv a, b;
  EXPECT_EQ(run(a), run(b));
  EXPECT_EQ(*a.Read("f"), *b.Read("f"));
  const auto stats = a.plan_stats();
  EXPECT_GT(stats.transient_failures + stats.torn_appends, 0u)
      << "schedule fired no faults; rates too low for the sweep to mean much";
}

TEST(FaultPlanTest, TransientBurstsFailThenHeal) {
  FaultInjectionEnv env;
  FaultPlanOptions plan;
  plan.transient_error_rate = 0.4;
  plan.max_transient_burst = 3;
  env.ArmPlan(7, plan);

  // A transient failure writes nothing, so the surviving file must be the
  // concatenation of exactly the successful appends.
  std::string expect;
  size_t failures = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string payload = "p" + std::to_string(i) + ";";
    Status status = env.Append("f", payload);
    if (status.ok()) {
      expect += payload;
    } else {
      EXPECT_EQ(status.code(), ErrorCode::kIoError);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 200u) << "bursts never healed";
  EXPECT_EQ(*env.Read("f"), expect);
  EXPECT_EQ(env.plan_stats().transient_failures, failures);

  // Disarming heals completely.
  env.DisarmPlan();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(env.Append("f", "x").ok());
  }
}

TEST(FaultPlanTest, EnospcIsPersistentUntilSpaceIsFreed) {
  FaultInjectionEnv env;
  FaultPlanOptions plan;
  plan.capacity_bytes = 10;
  env.ArmPlan(1, plan);
  ASSERT_TRUE(env.Append("f", "01234567").ok());  // 8 of 10 bytes
  Status full = env.Append("f", "89abc");          // would be 13
  EXPECT_EQ(full.code(), ErrorCode::kResourceExhausted);
  // Persistent, not transient: retrying does not help.
  EXPECT_EQ(env.Append("f", "89abc").code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(env.plan_stats().enospc_failures, 2u);
  // Freeing space heals it — ENOSPC is about the store, not the op.
  ASSERT_TRUE(env.Remove("f").ok());
  EXPECT_TRUE(env.Append("g", "89abc").ok());
}

TEST(FaultPlanTest, LyingSyncLosesAcknowledgedBytesAtCrash) {
  FaultInjectionEnv env;
  FaultPlanOptions plan;
  plan.lying_sync_rate = 1.0;
  env.ArmPlan(3, plan);
  ASSERT_TRUE(env.Append("f", "doomed").ok());
  ASSERT_TRUE(env.Sync("f").ok());  // the lie: OK without durability
  EXPECT_GE(env.plan_stats().lying_syncs, 1u);
  env.Crash();
  EXPECT_EQ(*env.Read("f"), "");
}

TEST(FaultPlanTest, ReadBitFlipIsStickyAndLogged) {
  FaultInjectionEnv env;
  const std::string original = "a long enough payload to flip a bit in";
  ASSERT_TRUE(env.Append("f", original).ok());
  ASSERT_TRUE(env.Sync("f").ok());
  FaultPlanOptions plan;
  plan.read_bit_flip_rate = 1.0;
  env.ArmPlan(9, plan);
  const std::string damaged = *env.Read("f");
  EXPECT_EQ(damaged.size(), original.size());
  EXPECT_NE(damaged, original);
  ASSERT_EQ(env.damage_log().size(), 1u);
  const auto event = env.damage_log()[0];
  EXPECT_EQ(event.path, "f");
  EXPECT_EQ(event.bytes, 1u);
  EXPECT_NE(damaged[event.offset], original[event.offset]);
  // Sticky: the rot stays after the plan is disarmed — it is on the
  // platter, not in the read path.
  env.DisarmPlan();
  EXPECT_EQ(*env.Read("f"), damaged);
  EXPECT_EQ(env.plan_stats().bit_flips, 1u);
}

TEST(FaultPlanTest, ReadTruncationCutsAStickySuffix) {
  FaultInjectionEnv env;
  const std::string original(100, 'z');
  ASSERT_TRUE(env.Append("f", original).ok());
  ASSERT_TRUE(env.Sync("f").ok());
  FaultPlanOptions plan;
  plan.read_truncate_rate = 1.0;
  env.ArmPlan(11, plan);
  const std::string damaged = *env.Read("f");
  EXPECT_LT(damaged.size(), original.size());
  EXPECT_EQ(damaged, original.substr(0, damaged.size()));
  ASSERT_GE(env.damage_log().size(), 1u);
  const auto event = env.damage_log()[0];
  EXPECT_EQ(event.offset, damaged.size());
  EXPECT_EQ(event.offset + event.bytes, original.size());
  env.DisarmPlan();
  EXPECT_EQ(*env.Read("f"), damaged);
}

// --- WAL -------------------------------------------------------------------

TEST(WalTest, RoundTripsRecordsInOrder) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("first").ok());
  ASSERT_TRUE(writer.AddRecord("").ok());  // empty payloads are legal
  ASSERT_TRUE(writer.AddRecord("third record, longer").ok());
  ASSERT_TRUE(writer.Sync().ok());
  auto read = ReadWal(env, "wal");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->records,
            (std::vector<std::string>{"first", "", "third record, longer"}));
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, AddRecordsMatchesIndividualAddsInOneAppend) {
  // Batch append: same framed bytes as N AddRecord calls, one Env::Append.
  const std::vector<std::string> payloads = {"alpha", "", "gamma-longer"};

  InMemoryEnv one_by_one_env;
  WalWriter one_by_one(&one_by_one_env, "wal");
  ASSERT_TRUE(one_by_one.Create().ok());
  for (const std::string& p : payloads) {
    ASSERT_TRUE(one_by_one.AddRecord(p).ok());
  }

  InMemoryEnv batched_env;
  WalWriter batched(&batched_env, "wal");
  ASSERT_TRUE(batched.Create().ok());
  ASSERT_TRUE(batched.AddRecords(payloads).ok());

  EXPECT_EQ(*one_by_one_env.Read("wal"), *batched_env.Read("wal"));
  auto read = ReadWal(batched_env, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, payloads);

  // The stats ledger shows the I/O saving: same records and bytes, one
  // append instead of three.
  EXPECT_EQ(one_by_one.stats().records, 3u);
  EXPECT_EQ(one_by_one.stats().appends, 3u);
  EXPECT_EQ(batched.stats().records, 3u);
  EXPECT_EQ(batched.stats().appends, 1u);
  EXPECT_EQ(batched.stats().bytes_appended,
            one_by_one.stats().bytes_appended);
  EXPECT_EQ(batched.stats().syncs, 0u);
  ASSERT_TRUE(batched.Sync().ok());
  EXPECT_EQ(batched.stats().syncs, 1u);
}

TEST(WalTest, AddRecordsEmptyBatchIsANoOp) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  const std::string before = *env.Read("wal");
  ASSERT_TRUE(writer.AddRecords({}).ok());
  EXPECT_EQ(*env.Read("wal"), before);
  EXPECT_EQ(writer.stats().appends, 0u);
}

TEST(WalTest, CreateDiscardsExistingRecords) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("old").ok());
  ASSERT_TRUE(writer.Create().ok());
  auto read = ReadWal(env, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("intact-1").ok());
  ASSERT_TRUE(writer.AddRecord("intact-2").ok());
  const size_t intact_size = env.Read("wal")->size();
  ASSERT_TRUE(writer.AddRecord("the record a crash tears").ok());
  const std::string full = *env.Read("wal");

  // Simulate every possible torn tail: the file ends mid-record (cuts
  // strictly inside the third record; at intact_size the file is whole).
  for (size_t cut = intact_size + 1; cut < full.size(); ++cut) {
    InMemoryEnv torn;
    ASSERT_TRUE(torn.Append("wal", full.substr(0, cut)).ok());
    auto read = ReadWal(torn, "wal");
    ASSERT_TRUE(read.ok()) << "cut at " << cut << ": " << read.status();
    EXPECT_EQ(read->records,
              (std::vector<std::string>{"intact-1", "intact-2"}))
        << "cut at " << cut;
    EXPECT_TRUE(read->torn_tail) << "cut at " << cut;
    EXPECT_EQ(read->valid_size, intact_size) << "cut at " << cut;
  }
}

TEST(WalTest, CorruptRecordTruncatesTail) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("good").ok());
  const size_t good_size = env.Read("wal")->size();
  ASSERT_TRUE(writer.AddRecord("bad").ok());
  std::string data = *env.Read("wal");
  data.back() ^= 0x01;  // flip a payload bit in the last record
  InMemoryEnv damaged;
  ASSERT_TRUE(damaged.Append("wal", data).ok());
  auto read = ReadWal(damaged, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"good"});
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->valid_size, good_size);
}

TEST(WalTest, ForeignFileIsCorruptionNotTornTail) {
  InMemoryEnv env;
  ASSERT_TRUE(env.Append("wal", "this is not a wal, definitely").ok());
  EXPECT_EQ(ReadWal(env, "wal").status().code(), ErrorCode::kCorruption);
}

TEST(WalTest, ShortHeaderReadsAsEmptyTornLog) {
  InMemoryEnv env;
  ASSERT_TRUE(env.Append("wal", "abc").ok());  // header never made it
  auto read = ReadWal(env, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_TRUE(read->torn_tail);
}

TEST(WalTest, MissingFileIsAnIoError) {
  InMemoryEnv env;
  EXPECT_EQ(ReadWal(env, "nope").status().code(), ErrorCode::kIoError);
}

TEST(WalTest, AppendAfterReopenContinuesTheLog) {
  InMemoryEnv env;
  {
    WalWriter writer(&env, "wal");
    ASSERT_TRUE(writer.Create().ok());
    ASSERT_TRUE(writer.AddRecord("before").ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  {
    auto validated = ReadWal(env, "wal");
    ASSERT_TRUE(validated.ok());
    WalWriter writer(&env, "wal");
    ASSERT_TRUE(writer.OpenForAppend(validated->valid_size).ok());
    ASSERT_TRUE(writer.AddRecord("after").ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  auto read = ReadWal(env, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, (std::vector<std::string>{"before", "after"}));
}

// --- Adversarial inputs ----------------------------------------------------
//
// These tests hand-assemble damaged WAL images byte by byte. The framing
// bytes are obtained from a real writer (never hand-encoded) so the tests
// stay valid if the format constants move.

constexpr size_t kWalHeaderSize = 9;    // u64 magic + u8 version
constexpr size_t kFrameHeaderSize = 16; // u64 length + u64 checksum

/// The full on-disk image of a WAL holding `payloads`.
std::string WalImage(const std::vector<std::string>& payloads) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  EXPECT_TRUE(writer.Create().ok());
  for (const std::string& p : payloads) {
    EXPECT_TRUE(writer.AddRecord(p).ok());
  }
  return *env.Read("wal");
}

/// Just the framed bytes of one record (no file header).
std::string Frame(const std::string& payload) {
  return WalImage({payload}).substr(kWalHeaderSize);
}

Result<WalReadResult> ReadImage(const std::string& image) {
  InMemoryEnv env;
  EXPECT_TRUE(env.Append("wal", image).ok());
  return ReadWal(env, "wal");
}

TEST(WalAdversarialTest, TruncatedFileHeaderReportsItsCause) {
  for (size_t len = 1; len < kWalHeaderSize; ++len) {
    auto read = ReadImage(WalImage({}).substr(0, len));
    ASSERT_TRUE(read.ok()) << "header cut at " << len;
    EXPECT_TRUE(read->records.empty());
    EXPECT_TRUE(read->torn_tail);
    EXPECT_EQ(read->cause, WalCorruptionCause::kTornFileHeader);
    EXPECT_EQ(read->records_after_hole, 0u);
  }
}

TEST(WalAdversarialTest, TornTailReportsOffsetIndexAndCause) {
  const std::string image = WalImage({"first", "second", "the-torn-one"});
  const size_t intact = WalImage({"first", "second"}).size();
  for (size_t cut = intact + 1; cut < image.size(); ++cut) {
    auto read = ReadImage(image.substr(0, cut));
    ASSERT_TRUE(read.ok()) << "cut at " << cut;
    EXPECT_TRUE(read->torn_tail);
    EXPECT_EQ(read->invalid_offset, intact) << "cut at " << cut;
    EXPECT_EQ(read->invalid_record_index, 2u);
    // A pure torn tail: nothing intact beyond the damage.
    EXPECT_EQ(read->records_after_hole, 0u) << "cut at " << cut;
    const WalCorruptionCause cause = read->cause;
    EXPECT_TRUE(cause == WalCorruptionCause::kTornRecordHeader ||
                cause == WalCorruptionCause::kTornPayload ||
                cause == WalCorruptionCause::kChecksumMismatch)
        << "cut at " << cut << ": "
        << std::string(WalCorruptionCauseName(cause));
  }
}

TEST(WalAdversarialTest, BitFlippedLengthPrefixIsMidLogCorruption) {
  std::string image = WalImage({"record-zero", "record-one", "record-two"});
  const size_t rec1 = WalImage({"record-zero"}).size();  // offset of #1
  const size_t rec2 = WalImage({"record-zero", "record-one"}).size();
  // Flip a high bit of record #1's length prefix: the length now points
  // far past the end of the file, but record #2 behind it is untouched.
  image[rec1 + 6] ^= 0x10;
  auto read = ReadImage(image);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"record-zero"});
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->cause, WalCorruptionCause::kTornPayload);
  EXPECT_EQ(read->invalid_offset, rec1);
  EXPECT_EQ(read->invalid_record_index, 1u);
  // The resync scan proves this is NOT a torn tail: an intact record lies
  // beyond the hole, so truncating here would drop an acked commit.
  EXPECT_EQ(read->records_after_hole, 1u);
  EXPECT_EQ(read->resync_offset, rec2);
}

TEST(WalAdversarialTest, ValidGarbageValidDoesNotResurrectPostHoleRecords) {
  // header | good-1 | 24 bytes of garbage | good-2 | good-3 — the image a
  // misdirected write (or bit rot across a whole frame) leaves behind.
  std::string image = WalImage({"good-1"});
  const size_t hole = image.size();
  image += std::string(24, 'X');
  const size_t resync = image.size();
  image += Frame("good-2");
  image += Frame("good-3");

  auto read = ReadImage(image);
  ASSERT_TRUE(read.ok());
  // The reader must NOT resurrect good-2/good-3: replaying records from
  // beyond a hole of unknown size could apply commits out of order. It
  // reports them instead, and the fsck --repair decision is explicit.
  EXPECT_EQ(read->records, std::vector<std::string>{"good-1"});
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->invalid_offset, hole);
  EXPECT_EQ(read->invalid_record_index, 1u);
  EXPECT_EQ(read->records_after_hole, 2u);
  EXPECT_EQ(read->resync_offset, resync);
  EXPECT_EQ(read->valid_size, hole);
}

TEST(WalAdversarialTest, CleanLogHasNoCorruptionDetail) {
  auto read = ReadImage(WalImage({"a", "b"}));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->cause, WalCorruptionCause::kNone);
  EXPECT_EQ(read->records_after_hole, 0u);
  EXPECT_EQ(read->resync_offset, 0u);
  ASSERT_EQ(read->record_offsets.size(), 2u);
  EXPECT_EQ(read->record_offsets[0], kWalHeaderSize);
  EXPECT_EQ(read->record_offsets[1],
            kWalHeaderSize + kFrameHeaderSize + 1);
}

// --- Zero tails ------------------------------------------------------------
//
// PosixEnv keeps a `*.wal` zero-written ahead of its records, so after a
// crash a log may end in zeros (storage/env.h).

TEST(WalAdversarialTest, AllZeroTailIsTheCleanEnd) {
  const std::string records = WalImage({"a", "b"});
  for (const size_t zeros : {1u, 15u, 16u, 4096u}) {
    auto read = ReadImage(records + std::string(zeros, '\0'));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->records, (std::vector<std::string>{"a", "b"}));
    EXPECT_FALSE(read->torn_tail) << zeros;
    EXPECT_EQ(read->cause, WalCorruptionCause::kNone);
    EXPECT_EQ(read->valid_size, records.size());
    EXPECT_EQ(read->zero_tail, zeros);
    EXPECT_EQ(read->records_after_hole, 0u);
  }
  // A log holding only its header ends cleanly in zeros too.
  auto empty = ReadImage(WalImage({}) + std::string(64, '\0'));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->torn_tail);
  EXPECT_EQ(empty->zero_tail, 64u);
}

TEST(WalAdversarialTest, ZerosBeforeAValidFrameAreMidLogCorruption) {
  std::string image = WalImage({"before"});
  const size_t hole = image.size();
  image += std::string(40, '\0');
  const size_t resync = image.size();
  image += Frame("after");
  auto read = ReadImage(image);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, std::vector<std::string>{"before"});
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->zero_tail, 0u);
  EXPECT_EQ(read->invalid_offset, hole);
  EXPECT_EQ(read->records_after_hole, 1u);
  EXPECT_EQ(read->resync_offset, resync);
}

TEST(WalAdversarialTest, TornFrameBeforeZerosIsATornTail) {
  const std::string intact = WalImage({"first"});
  const std::string frame = Frame("the-torn-one");
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    auto read = ReadImage(intact + frame.substr(0, cut) +
                          std::string(4096, '\0'));
    ASSERT_TRUE(read.ok()) << "cut at " << cut;
    EXPECT_EQ(read->records, std::vector<std::string>{"first"});
    EXPECT_TRUE(read->torn_tail) << "cut at " << cut;
    EXPECT_NE(read->cause, WalCorruptionCause::kNone);
    EXPECT_EQ(read->invalid_offset, intact.size());
    EXPECT_EQ(read->zero_tail, 0u);
    EXPECT_EQ(read->records_after_hole, 0u) << "cut at " << cut;
  }
}

/// A fresh directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(PosixEnvTest, WalFileIsZeroWrittenAheadOfItsRecords) {
  const std::string path = FreshDir("ttra_prezeroed") + "/shard-0.wal";
  PosixEnv env;
  WalWriter writer(&env, path);
  ASSERT_TRUE(writer.Create().ok());
  // The header alone is never followed by zeros.
  EXPECT_EQ(std::filesystem::file_size(path), writer.good_size());
  std::vector<std::string> payloads;
  for (int i = 0; i < 600; ++i) {
    payloads.push_back(std::string(2000, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(writer.AddRecord(payloads.back()).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  // 1.2 MB of records: the zeroed region was extended more than once, and
  // always runs ahead of the last record.
  const uint64_t physical = std::filesystem::file_size(path);
  EXPECT_GT(physical, writer.good_size());
  EXPECT_LE(physical, writer.good_size() + (1u << 20) + 4096);
  // This Env reads its logical size; a fresh one (the process after a
  // crash) reads the zeros, which are the log's clean end.
  EXPECT_EQ(env.Read(path)->size(), writer.good_size());
  PosixEnv after_crash;
  auto read = ReadWal(after_crash, path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->records, payloads);
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->valid_size, writer.good_size());
  EXPECT_EQ(read->zero_tail, physical - writer.good_size());
  // A clean shutdown cuts the zeros: the file holds exactly its records.
  ASSERT_TRUE(writer.TrimTail().ok());
  EXPECT_EQ(std::filesystem::file_size(path), writer.good_size());
}

TEST(PosixEnvTest, CutsThenAppendsOnAZeroWrittenLogReadBack) {
  const std::string path = FreshDir("ttra_prezeroed_cut") + "/shard-0.wal";
  PosixEnv env;
  WalWriter writer(&env, path);
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("one").ok());
  const uint64_t after_one = writer.good_size();
  ASSERT_TRUE(writer.AddRecord("two").ok());
  ASSERT_TRUE(writer.Sync().ok());
  // ResetTail cuts the zeros; the next append zero-writes again.
  ASSERT_TRUE(writer.ResetTail().ok());
  EXPECT_EQ(std::filesystem::file_size(path), writer.good_size());
  ASSERT_TRUE(writer.AddRecord("three").ok());
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_GT(std::filesystem::file_size(path), writer.good_size());
  // TruncateTo an earlier record boundary, then append from there.
  EXPECT_EQ(env.TruncateTo(path, writer.good_size() + 1).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(env.TruncateTo(path, after_one).ok());
  WalWriter reopened(&env, path);
  ASSERT_TRUE(reopened.OpenForAppend(after_one).ok());
  ASSERT_TRUE(reopened.AddRecord("four").ok());
  ASSERT_TRUE(reopened.AddRecord("five").ok());
  ASSERT_TRUE(reopened.Sync().ok());
  for (const Env* reader : {static_cast<const Env*>(&env),
                            static_cast<const Env*>(Env::Default())}) {
    auto read = ReadWal(*reader, path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(read->records,
              (std::vector<std::string>{"one", "four", "five"}));
    EXPECT_FALSE(read->torn_tail);
  }
}

TEST(PosixEnvTest, OtherFilesAreNotZeroWritten) {
  const std::string path = FreshDir("ttra_not_prezeroed") + "/plain.log";
  PosixEnv env;
  WalWriter writer(&env, path);
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("one").ok());
  ASSERT_TRUE(writer.AddRecord("two").ok());
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(std::filesystem::file_size(path), writer.good_size());
}

// --- ResetTail -------------------------------------------------------------

TEST(WalTest, GoodSizeTracksEveryAppend) {
  InMemoryEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  EXPECT_EQ(writer.good_size(), env.Read("wal")->size());
  ASSERT_TRUE(writer.AddRecord("one").ok());
  EXPECT_EQ(writer.good_size(), env.Read("wal")->size());
  ASSERT_TRUE(writer.AddRecords({"two", "three"}).ok());
  EXPECT_EQ(writer.good_size(), env.Read("wal")->size());
  // OpenForAppend takes the boundary ReadWal validated.
  auto validated = ReadWal(env, "wal");
  ASSERT_TRUE(validated.ok());
  WalWriter reopened(&env, "wal");
  ASSERT_TRUE(reopened.OpenForAppend(validated->valid_size).ok());
  EXPECT_EQ(reopened.good_size(), writer.good_size());
}

TEST(WalTest, ResetTailMakesATornAppendRetryable) {
  FaultInjectionEnv env;
  WalWriter writer(&env, "wal");
  ASSERT_TRUE(writer.Create().ok());
  ASSERT_TRUE(writer.AddRecord("intact").ok());

  env.InjectFault(1, FaultInjectionEnv::FaultMode::kTornAppend);
  ASSERT_EQ(writer.AddRecord("torn-then-retried").code(),
            ErrorCode::kIoError);
  // The torn frame is on disk; a blind retry would strand the re-appended
  // record behind it, invisible to the reader.
  ASSERT_GT(env.Read("wal")->size(), writer.good_size());
  ASSERT_TRUE(writer.ResetTail().ok());
  EXPECT_EQ(env.Read("wal")->size(), writer.good_size());
  ASSERT_TRUE(writer.AddRecord("torn-then-retried").ok());
  ASSERT_TRUE(writer.Sync().ok());

  auto read = ReadWal(env, "wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records,
            (std::vector<std::string>{"intact", "torn-then-retried"}));
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, WorksOnThePosixBackend) {
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/ttra_wal_test.log";
  WalWriter writer(env, path);
  ASSERT_TRUE(writer.Create().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.AddRecord("record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  auto read = ReadWal(*env, path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->records.size(), 100u);
  EXPECT_EQ(read->records[99], "record-99");
  EXPECT_FALSE(read->torn_tail);
  ASSERT_TRUE(env->Remove(path).ok());
}

}  // namespace
}  // namespace ttra
