#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "legacy_wal.h"
#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace ttra {
namespace {

// Deterministic unit tests for the sharded multi-writer executor: layout
// and routing, restart recovery, MANIFEST authority, cross-shard atomic
// sentences, checkpointing and degraded mode. The randomized end-to-end
// contract (merged order ≡ serial replay) lives in concurrent_oracle_test.

Schema EmpSchema() {
  return *Schema::Make(
      {{"name", ValueType::kString}, {"salary", ValueType::kInt}});
}

SnapshotState EmpState(
    std::initializer_list<std::pair<const char*, int64_t>> rows) {
  std::vector<Tuple> tuples;
  for (const auto& [name, salary] : rows) {
    tuples.push_back(Tuple{Value::String(name), Value::Int(salary)});
  }
  return *SnapshotState::Make(EmpSchema(), std::move(tuples));
}

ShardedOptions FastOptions(size_t shards) {
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.shards = shards;
  return options;
}

/// Relation names guaranteed to live on `shard` under `shards` shards.
std::string NameOnShard(size_t shard, size_t shards, int salt = 0) {
  for (int i = 0;; ++i) {
    std::string candidate =
        "rel_" + std::to_string(salt) + "_" + std::to_string(i);
    if (ShardOfName(candidate, shards) == shard) return candidate;
  }
}

TEST(ShardRoutingTest, ShardOfNameIsDeterministicAndInRange) {
  const std::vector<std::string> names = {"emp", "dept", "t0", "r1", ""};
  for (const std::string& name : names) {
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      const size_t first = ShardOfName(name, shards);
      EXPECT_LT(first, shards);
      EXPECT_EQ(first, ShardOfName(name, shards));  // pure function
    }
    // Degenerate counts collapse to shard 0.
    EXPECT_EQ(ShardOfName(name, 1), 0u);
    EXPECT_EQ(ShardOfName(name, 0), 0u);
  }
  // The hash actually spreads: across a modest name population and 4
  // shards, every shard is somebody's home.
  std::set<size_t> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(ShardOfName("rel" + std::to_string(i), 4));
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardLayoutTest, StartCreatesManifestAndShardWalsOnly) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(3));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(exec.shards(), 3u);
  EXPECT_TRUE(env.Exists(std::string("db/") + kShardManifestFile));
  auto manifest = ReadShardManifest(env, "db");
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(*manifest, 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(env.Exists("db/" + ShardWalFile(k))) << k;
  }
  EXPECT_FALSE(env.Exists(std::string("db/") + kCoordinatorLogFile));
  exec.Stop();
  EXPECT_FALSE(env.Exists(std::string("db/") + kCoordinatorLogFile));
}

TEST(ShardLayoutTest, ManifestShardCountIsAuthoritativeOnReopen) {
  InMemoryEnv env;
  {
    ShardedExecutor exec(&env, "db", FastOptions(4));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    exec.Stop();
  }
  // Reopening with a different requested count adopts the directory's
  // count: records were routed by hash-mod-4, so 4 it stays.
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(exec.shards(), 4u);
  EXPECT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                      "emp", EmpState({{"ed", 100}})}})
                  .ok());
  exec.Stop();
}

/// Writes a legacy single-writer directory "db" (tests/legacy_wal.h):
/// kind-0, kind-1 and kind-2 records before a checkpoint, so the migration
/// must skip them, and more of each kind after it, so it must replay them
/// — failing commands included. Returns the encoding of a SerialExecutor
/// replay of every logged sentence.
std::string WriteMixedLegacyDir(Env* env) {
  const Command define{
      DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()}};
  const Command ed{ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})}};
  const Command amy{
      ModifySnapshotCmd{"emp", EmpState({{"ed", 100}, {"amy", 200}})}};
  const Command bob{ModifySnapshotCmd{"emp", EmpState({{"bob", 300}})}};
  const Command missing{ModifySnapshotCmd{"missing", EmpState({})}};
  const Command dept{
      DefineRelationCmd{"dept", RelationType::kSnapshot, EmpSchema()}};
  using Logged = std::pair<std::vector<Command>, bool>;

  SerialExecutor serial;
  LegacyDir legacy(env, "db");
  EXPECT_TRUE(legacy.Create().ok());
  const auto submit = [&](std::vector<Logged> sentences, bool group) {
    for (const auto& [sentence, atomic] : sentences) {
      const auto body = [&sentence](Database& db) {
        return ApplySentence(db, sentence);
      };
      (void)(atomic ? serial.SubmitAtomic(body) : serial.Submit(body));
    }
    if (group) {
      EXPECT_TRUE(legacy.SubmitGroup(std::move(sentences)).ok());
    } else {
      EXPECT_TRUE(legacy.Submit(sentences[0].first, sentences[0].second).ok());
    }
  };
  // Covered by the checkpoint below.
  submit({Logged{{define}, false}}, false);                  // kind 0
  submit({Logged{{ed, missing}, true}}, false);              // kind 1, no-op
  submit({Logged{{ed}, false}, Logged{{amy}, true}}, true);  // kind 2
  EXPECT_TRUE(legacy.Checkpoint().ok());
  // Not covered: the migration replays these.
  submit({Logged{{bob, missing}, false}}, false);  // kind 0, partial effect
  submit({Logged{{dept}, true}, Logged{{missing}, false},
          Logged{{ed}, false}},
         true);                                    // kind 2
  submit({Logged{{amy, dept}, true}}, false);      // kind 1, refused whole
  submit({Logged{{amy}, true}}, false);            // kind 1
  const std::string want = EncodeDatabase(serial.Snapshot());
  EXPECT_EQ(EncodeDatabase(legacy.db()), want);
  return want;
}

TEST(ShardLayoutTest, MigratesSingleWriterDirectory) {
  InMemoryEnv env;
  const std::string want = WriteMixedLegacyDir(&env);
  ASSERT_TRUE(env.Exists(std::string("db/") + kLegacyWalFile));

  // Starts as ONE shard whatever count is requested: the legacy log is a
  // single writer's total order.
  {
    ShardedExecutor exec(&env, "db", FastOptions(2));
    ASSERT_TRUE(exec.Start().ok());
    EXPECT_EQ(exec.shards(), 1u);
    EXPECT_EQ(EncodeDatabase(exec.Snapshot()), want);
    const ShardedExecutor::RecoveryInfo info = exec.last_recovery();
    EXPECT_TRUE(info.migrated_legacy_wal);
    EXPECT_EQ(info.checkpoint_txn, 3u);
    EXPECT_EQ(info.replayed_sentences, 6u);  // the uncovered ones only
    exec.Stop();
  }
  EXPECT_FALSE(env.Exists(std::string("db/") + kLegacyWalFile));
  auto manifest = ReadShardManifest(env, "db");
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(*manifest, 1u);

  // A reopen recovers the same bytes from the sharded layout alone.
  ShardedExecutor reopened(&env, "db", FastOptions(2));
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_FALSE(reopened.last_recovery().migrated_legacy_wal);
  EXPECT_EQ(reopened.last_recovery().replayed_sentences, 0u);
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), want);
  EXPECT_TRUE(reopened.Submit(Command{ModifySnapshotCmd{
                          "emp", EmpState({{"cy", 1}})}})
                  .ok());
  reopened.Stop();
}

TEST(ShardLayoutTest, MigrationCrashAtEveryFaultPointRecoversTheSameBytes) {
  // Every counted op of a migrating Start() (replay, MANIFEST, covering
  // checkpoint, wal.log removal, fresh shard logs) × {fail, torn write},
  // then a crash and a clean Start(): the migrated state must be the
  // legacy directory's, byte for byte, and wal.log must end up gone.
  for (const auto mode : {FaultInjectionEnv::FaultMode::kFailOp,
                          FaultInjectionEnv::FaultMode::kTornAppend}) {
    uint64_t total_ops = 0;
    for (uint64_t n = 0; n == 0 || n <= total_ops; ++n) {
      SCOPED_TRACE(
          "fault at op " + std::to_string(n) +
          (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                         : " (torn)"));
      FaultInjectionEnv env;
      const std::string want = WriteMixedLegacyDir(&env);
      const uint64_t ops_before = env.op_count();
      if (n != 0) env.InjectFault(n, mode);
      {
        ShardedExecutor exec(&env, "db", FastOptions(1));
        const Status started = exec.Start();
        if (n == 0) {
          ASSERT_TRUE(started.ok()) << started;
        }
      }
      if (n == 0) total_ops = env.op_count() - ops_before;
      env.Crash();

      ShardedExecutor clean(&env, "db", FastOptions(1));
      ASSERT_TRUE(clean.Start().ok());
      EXPECT_EQ(EncodeDatabase(clean.Snapshot()), want);
      EXPECT_FALSE(env.Exists(std::string("db/") + kLegacyWalFile));
      clean.Stop();
    }
    EXPECT_GT(total_ops, 0u);
  }
}

TEST(ShardLayoutTest, ResetWalDirStartsEveryLayoutEmpty) {
  InMemoryEnv env;
  const Command define{
      DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()}};
  {
    LegacyDir single(&env, "single");
    ASSERT_TRUE(single.Create().ok());
    ASSERT_TRUE(single.Submit({define}).ok());
    ASSERT_TRUE(single.Checkpoint().ok());
  }
  {
    ShardedExecutor sharded(&env, "sharded", FastOptions(3));
    ASSERT_TRUE(sharded.Start().ok());
    ASSERT_TRUE(sharded.Submit(define).ok());
    ASSERT_TRUE(sharded.Checkpoint().ok());
    ASSERT_TRUE(sharded
                    .Submit(Command{
                        ModifySnapshotCmd{"emp", EmpState({{"a", 1}})}})
                    .ok());
    sharded.Stop();
  }
  // A legacy image and fsck's quarantined bytes are swept too; a file the
  // executors never write is left alone.
  ASSERT_TRUE(env.Append("single/checkpoint.db", "legacy").ok());
  ASSERT_TRUE(env.Append("single/wal.log.quarantine", "cut").ok());
  ASSERT_TRUE(env.Append("sharded/notes.txt", "kept").ok());
  ASSERT_TRUE(ResetWalDir(&env, "single").ok());
  ASSERT_TRUE(ResetWalDir(&env, "sharded").ok());
  ASSERT_TRUE(ResetWalDir(&env, "missing").ok());
  EXPECT_TRUE(env.List("single")->empty());
  EXPECT_EQ(*env.List("sharded"), std::vector<std::string>{"notes.txt"});

  // Each starts as an empty database: the define succeeds again.
  ShardedExecutor single(&env, "single", FastOptions(1));
  ASSERT_TRUE(single.Start().ok());
  EXPECT_EQ(single.transaction_number(), 0u);
  EXPECT_TRUE(single.Snapshot().RelationNames().empty());
  EXPECT_TRUE(single.Submit(define).ok());
  single.Stop();
  ShardedExecutor sharded(&env, "sharded", FastOptions(1));
  ASSERT_TRUE(sharded.Start().ok());
  EXPECT_EQ(sharded.shards(), 1u);  // no MANIFEST left to adopt
  EXPECT_EQ(sharded.transaction_number(), 0u);
  EXPECT_TRUE(sharded.Snapshot().RelationNames().empty());
  EXPECT_TRUE(sharded.Submit(define).ok());
  sharded.Stop();
}

TEST(ShardedExecutorTest, CommitsRouteToHomeShardsAndReadersSeeOneChain) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on0, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on1, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}}).ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on1, EmpState({{"b", 2}})}}).ok());
  EXPECT_EQ(exec.transaction_number(), 4u);

  // Both shards actually homed work (the partitioning is real) and the
  // reader surface is one database chain across all of them.
  const ShardedExecutor::Stats stats = exec.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_GT(stats.per_shard[0].batches, 0u);
  EXPECT_GT(stats.per_shard[1].batches, 0u);
  EXPECT_EQ(stats.commits, 4u);
  Session session = exec.OpenSession();
  EXPECT_EQ(session.epoch(), 4u);
  EXPECT_TRUE(session.Rollback(on0).ok());
  EXPECT_TRUE(session.Rollback(on1).ok());
  exec.Stop();
}

TEST(ShardedExecutorTest, RestartRecoversTheMergedOrder) {
  InMemoryEnv env;
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  std::string before;
  {
    ShardedExecutor exec(&env, "db", FastOptions(2));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on0, RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on1, RelationType::kRollback, EmpSchema()}})
                    .ok());
    for (int i = 0; i < 6; ++i) {
      const std::string& target = (i % 2 == 0) ? on0 : on1;
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                          target, EmpState({{"x", i}})}})
                      .ok());
    }
    before = EncodeDatabase(exec.Snapshot());
    exec.Stop();
  }
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), before);
  EXPECT_EQ(exec.transaction_number(), 8u);
  const ShardedExecutor::RecoveryInfo info = exec.last_recovery();
  EXPECT_EQ(info.shards, 2u);
  EXPECT_EQ(info.replayed_sentences, 8u);
  EXPECT_EQ(info.dropped_in_doubt, 0u);
  // History (not just the tip) survived the merge: every epoch answers.
  Session session = exec.OpenSession();
  for (TransactionNumber n = 2; n <= 8; ++n) {
    EXPECT_TRUE(session.Rollback(on0, n).ok()) << n;
  }
  exec.Stop();
}

TEST(ShardedExecutorTest, CrossShardAtomicSentenceIsAllOrNothing) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on0, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on1, RelationType::kRollback, EmpSchema()}})
                  .ok());

  // Failing atomic sentence spanning both shards: no effect, no txn.
  std::vector<Command> failing;
  failing.push_back(ModifySnapshotCmd{on0, EmpState({{"a", 1}})});
  failing.push_back(DefineRelationCmd{on1, RelationType::kRollback,
                                      EmpSchema()});  // duplicate → error
  const auto refused = exec.SubmitAtomic(std::move(failing));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(exec.transaction_number(), 2u);
  {
    Session session = exec.OpenSession();
    auto state = session.Rollback(on0);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->size(), 0u);  // the modify rolled back with the batch
  }

  // Successful atomic sentence spanning both shards: both effects land.
  std::vector<Command> ok;
  ok.push_back(ModifySnapshotCmd{on0, EmpState({{"a", 1}})});
  ok.push_back(ModifySnapshotCmd{on1, EmpState({{"b", 2}})});
  const auto committed = exec.SubmitAtomic(std::move(ok));
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 4u);
  EXPECT_GE(exec.stats().cross_shard_batches, 1u);

  // The cross-shard batch survives restart: its home shard's prepare and
  // commit records hold all of it.
  const std::string before = EncodeDatabase(exec.Snapshot());
  exec.Stop();
  ShardedExecutor reopened(&env, "db", FastOptions(2));
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), before);
  reopened.Stop();
}

TEST(ShardedExecutorTest, CheckpointTruncatesAllShardLogs) {
  InMemoryEnv env;
  ShardedOptions options = FastOptions(2);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        name, RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(
        exec.Submit(Command{ModifySnapshotCmd{name, EmpState({{"a", 1}})}})
            .ok());
  }
  ASSERT_TRUE(exec.Checkpoint().ok());
  // All logs truncated to a bare header: recovery now starts from the
  // checkpoint alone.
  for (size_t k = 0; k < 2; ++k) {
    auto wal = ReadWal(env, "db/" + ShardWalFile(k));
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->records.empty()) << "shard " << k;
  }

  // Post-checkpoint commits (fresh sequence space) chain correctly across
  // a restart.
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"z", 9}})}}).ok());
  const std::string before = EncodeDatabase(exec.Snapshot());
  const TransactionNumber txn = exec.transaction_number();
  exec.Stop();
  ShardedExecutor reopened(&env, "db", options);
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(reopened.transaction_number(), txn);
  EXPECT_EQ(reopened.last_recovery().checkpoint_txn, txn - 1);
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), before);
  reopened.Stop();
}

TEST(ShardedExecutorTest, PermanentWriteFaultDegradesAllShardsReadersServe) {
  FaultInjectionEnv env;
  ShardedOptions options = FastOptions(2);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        name, RelationType::kRollback, EmpSchema()}})
                    .ok());
  }
  const TransactionNumber epoch = exec.transaction_number();

  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;  // permanent: never heals
  env.ArmPlan(1, plan);
  const auto failing =
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}});
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.degraded_reason().code(), ErrorCode::kIoError);

  // Degraded mode is executor-wide: a sentence homed on the OTHER shard is
  // refused at the door with the distinct read-only code.
  const auto refused =
      exec.Submit(Command{ModifySnapshotCmd{on1, EmpState({{"b", 2}})}});
  EXPECT_EQ(refused.status().code(), ErrorCode::kReadOnly);
  EXPECT_GE(exec.stats().rejected_read_only, 1u);

  // Readers keep serving the last published epoch.
  Session session = exec.OpenSession();
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_TRUE(session.Rollback(on0).ok());

  // The way out: repair the fault, Stop() + Start().
  env.DisarmPlan();
  exec.Stop();
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_FALSE(exec.degraded());
  EXPECT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}}).ok());
  exec.Stop();
}

// --- PosixEnv shard logs ----------------------------------------------------

/// The byte size of every file in `dir`, by name.
std::map<std::string, uint64_t> FileSizes(const std::string& dir) {
  std::map<std::string, uint64_t> sizes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    sizes[entry.path().filename().string()] = entry.file_size();
  }
  return sizes;
}

TEST(PosixShardLogTest, AckedCommitsSurviveADropWithoutStop) {
  // PosixEnv keeps each shard log zero-written ahead of its records. A
  // process that dies without Stop() leaves the zeros behind; a fresh
  // process must read them as the clean end and recover every ack.
  for (const size_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    const std::string root = ::testing::TempDir() + "/ttra_posix_shard_logs";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const std::string live = root + "/live";
    const std::string crashed = root + "/crashed";
    std::string acked;
    {
      PosixEnv env;
      ShardedExecutor exec(&env, live, FastOptions(shards));
      ASSERT_TRUE(exec.Start().ok());
      for (size_t k = 0; k < shards; ++k) {
        ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                                    NameOnShard(k, shards), RelationType::kRollback,
                                    EmpSchema()}})
                        .ok());
      }
      for (int i = 0; i < 300; ++i) {
        const std::string name = NameOnShard(i % shards, shards);
        ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                                    name, EmpState({{"ann", i}, {"bob", -i}})}})
                        .ok());
      }
      acked = EncodeDatabase(exec.Snapshot());
      // The crash image: the files as a process kill leaves them.
      std::filesystem::copy(live, crashed);
      exec.Stop();
      // A clean stop cuts the zeros: each log holds exactly its records.
      for (size_t k = 0; k < shards; ++k) {
        const std::string wal = live + "/" + ShardWalFile(k);
        auto read = ReadWal(PosixEnv(), wal);
        ASSERT_TRUE(read.ok()) << read.status();
        EXPECT_EQ(std::filesystem::file_size(wal), read->valid_size);
        EXPECT_EQ(read->zero_tail, 0u);
      }
    }
    const std::map<std::string, uint64_t> crashed_sizes = FileSizes(crashed);
    for (size_t k = 0; k < shards; ++k) {
      auto read = ReadWal(PosixEnv(), crashed + "/" + ShardWalFile(k));
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_FALSE(read->torn_tail);
      EXPECT_GT(read->zero_tail, 0u) << "no zero tail: nothing was exercised";
      EXPECT_EQ(crashed_sizes.at(ShardWalFile(k)),
                read->valid_size + read->zero_tail);
    }
    PosixEnv fresh;
    ShardedExecutor recovered(&fresh, crashed, FastOptions(shards));
    ASSERT_TRUE(recovered.Start().ok());
    EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), acked);
    EXPECT_EQ(recovered.last_recovery().torn_tails, 0u);
    EXPECT_EQ(recovered.last_recovery().dropped_in_doubt, 0u);
    recovered.Stop();
    std::filesystem::remove_all(root);
  }
}

// --- Recovery cost -----------------------------------------------------------

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// A one-shard directory whose log holds `committed` empty batches
/// (prepare + commit at base = post = 0) and then `in_doubt` prepares that
/// never committed: recovery decodes and matches every one of them.
void WriteUncoveredLog(Env* env, const std::string& dir, uint64_t committed,
                       uint64_t in_doubt) {
  ASSERT_TRUE(env->CreateDir(dir).ok());
  std::vector<std::string> records;
  for (uint64_t seq = 1; seq <= committed + in_doubt; ++seq) {
    std::string prepare(1, static_cast<char>(ShardRecordKind::kPrepare));
    PutU64(seq, prepare);
    PutU64(0, prepare);  // no entries
    records.push_back(std::move(prepare));
    if (seq > committed) continue;
    std::string commit(1, static_cast<char>(ShardRecordKind::kCommit));
    PutU64(seq, commit);
    PutU64(0, commit);  // base
    PutU64(0, commit);  // post
    records.push_back(std::move(commit));
  }
  WalWriter wal(env, dir + "/" + ShardWalFile(0));
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.AddRecords(records).ok());
  ASSERT_TRUE(wal.Sync().ok());
}

/// Best of three: seconds one Start() takes over WriteUncoveredLog.
double RecoverSeconds(uint64_t committed, uint64_t in_doubt) {
  double best = 1e9;
  for (int round = 0; round < 3; ++round) {
    InMemoryEnv env;
    WriteUncoveredLog(&env, "d", committed, in_doubt);
    ShardedExecutor exec(&env, "d", FastOptions(1));
    const auto start = std::chrono::steady_clock::now();
    const Status started = exec.Start();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(started.ok()) << started;
    EXPECT_EQ(exec.last_recovery().dropped_in_doubt, in_doubt);
    best = std::min(best, took.count());
  }
  return best;
}

TEST(ShardRecoveryTest, MatchingPreparesIsLinearInUncoveredBatches) {
  // Each prepare is matched with its commit by key, not by a scan of every
  // commit: 4x the batches must cost about 4x, where the scan cost 16x
  // (40k batches: 1.6e9 comparisons).
  const double small = RecoverSeconds(10'000, 250);
  const double large = RecoverSeconds(40'000, 1'000);
  EXPECT_LT(large, 8 * small + 0.05)
      << "10k batches: " << small << " s, 40k batches: " << large << " s";
}

// --- Directories written by earlier builds ---------------------------------

/// A batch payload record: `kind`, its header words, then the sentences as
/// paper-sequenced entries.
std::string BatchRecord(ShardRecordKind kind,
                        const std::vector<uint64_t>& header,
                        const std::vector<Command>& sentence) {
  std::string out(1, static_cast<char>(kind));
  for (const uint64_t word : header) PutU64(word, out);
  PutU64(1, out);    // one entry
  out.push_back(0);  // not atomic
  PutU64(sentence.size(), out);
  for (const Command& command : sentence) EncodeCommand(command, out);
  return out;
}

/// A 2-shard directory whose uncovered shard-log tails hold four committed
/// batches and one in-doubt prepare. With `earlier_build`, it also holds
/// what earlier builds wrote besides: a kCrossPrepare copy of the
/// cross-shard batch on the other shard, and a coordinator.log with
/// damage in the middle. Returns the database the batches commit.
std::string WriteTwoShardDir(Env* env, const std::string& dir,
                             bool earlier_build) {
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  // Each sentence is homed on the shard of its first relation.
  const size_t homes[] = {0, 1, 0, 1};
  const std::vector<std::vector<Command>> sentences = {
      {DefineRelationCmd{on0, RelationType::kRollback, EmpSchema()}},
      {DefineRelationCmd{on1, RelationType::kRollback, EmpSchema()}},
      {ModifySnapshotCmd{on0, EmpState({{"a", 1}})},
       ModifySnapshotCmd{on1, EmpState({{"b", 2}})}},
      {ModifySnapshotCmd{on1, EmpState({{"c", 3}})}},
  };
  EXPECT_TRUE(env->CreateDir(dir).ok());
  EXPECT_TRUE(env->Append(dir + "/" + kShardManifestFile,
                          ShardManifestText(2))
                  .ok());
  Database db{DatabaseOptions{}};
  std::vector<std::string> logs[2];
  std::vector<std::string> coordinator;
  uint64_t next_seq[2] = {1, 1};
  for (size_t i = 0; i < sentences.size(); ++i) {
    const std::vector<Command>& sentence = sentences[i];
    const uint64_t home = homes[i];
    const uint64_t seq = next_seq[home]++;
    const TransactionNumber base = db.transaction_number();
    EXPECT_TRUE(ApplySentence(db, sentence).ok());
    const TransactionNumber post = db.transaction_number();
    logs[home].push_back(BatchRecord(ShardRecordKind::kPrepare, {seq},
                                     sentence));
    if (earlier_build && sentence.size() > 1) {
      logs[1 - home].push_back(BatchRecord(ShardRecordKind::kCrossPrepare,
                                           {home, seq}, sentence));
    }
    std::string commit(1, static_cast<char>(ShardRecordKind::kCommit));
    for (const uint64_t word : {seq, base, post}) PutU64(word, commit);
    logs[home].push_back(std::move(commit));
    std::string coord(1, 6);  // the reserved coordinator-record kind
    for (const uint64_t word : {home, seq, base, post, uint64_t{1}}) {
      PutU64(word, coord);
    }
    coordinator.push_back(std::move(coord));
  }
  // In doubt: prepared on shard 1, never committed.
  logs[1].push_back(BatchRecord(ShardRecordKind::kPrepare, {next_seq[1]},
                                {ModifySnapshotCmd{on1, EmpState({})}}));
  for (size_t k = 0; k < 2; ++k) {
    WalWriter wal(env, dir + "/" + ShardWalFile(k));
    EXPECT_TRUE(wal.Create().ok());
    EXPECT_TRUE(wal.AddRecords(logs[k]).ok());
    EXPECT_TRUE(wal.Sync().ok());
  }
  if (earlier_build) {
    const std::string path = dir + "/" + kCoordinatorLogFile;
    WalWriter wal(env, path);
    EXPECT_TRUE(wal.Create().ok());
    EXPECT_TRUE(wal.AddRecords(coordinator).ok());
    EXPECT_TRUE(wal.Sync().ok());
    // Flip a payload byte of record #1: intact records follow the hole.
    Result<WalReadResult> intact = ReadWal(*env, path);
    EXPECT_TRUE(intact.ok());
    std::string image = *env->Read(path);
    image[intact->record_offsets[1] + 20] ^= 0x01;
    EXPECT_TRUE(env->Truncate(path).ok());
    EXPECT_TRUE(env->Append(path, image).ok());
    Result<WalReadResult> damaged = ReadWal(*env, path);
    EXPECT_TRUE(damaged.ok());
    EXPECT_GT(damaged->records_after_hole, 0u);
  }
  return EncodeDatabase(db);
}

TEST(ShardRecoveryTest, OpensADirectoryAnEarlierBuildWrote) {
  // Recovery reads only the home shards' prepare and commit records: an
  // earlier build's cross-shard copies are skipped, and its coordinator
  // log, damaged or not, is removed unread once the covering checkpoint
  // is durable.
  InMemoryEnv env;
  const std::string expected = WriteTwoShardDir(&env, "earlier", true);
  ASSERT_EQ(WriteTwoShardDir(&env, "current", false), expected);

  ShardedExecutor current(&env, "current", FastOptions(2));
  ASSERT_TRUE(current.Start().ok());
  EXPECT_EQ(EncodeDatabase(current.Snapshot()), expected);
  current.Stop();

  ShardedExecutor earlier(&env, "earlier", FastOptions(2));
  const Status started = earlier.Start();
  ASSERT_TRUE(started.ok()) << started;
  EXPECT_EQ(EncodeDatabase(earlier.Snapshot()), expected);
  const ShardedExecutor::RecoveryInfo info = earlier.last_recovery();
  EXPECT_EQ(info.replayed_batches, 4u);
  EXPECT_EQ(info.dropped_in_doubt, 1u);
  EXPECT_EQ(info.torn_tails, 0u);
  EXPECT_FALSE(env.Exists(std::string("earlier/") + kCoordinatorLogFile));
  earlier.Stop();

  // The reopened directory holds only the current layout and still
  // recovers the same database.
  ShardedExecutor reopened(&env, "earlier", FastOptions(2));
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), expected);
  reopened.Stop();
}

// --- Caller-led commits ---------------------------------------------------

TEST(CallerLedTest, SynchronousSubmitOnIdleShardIsCommittedByTheCaller) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(1));
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  for (int i = 0; i < 5; ++i) {
    Result<TransactionNumber> txn = exec.Submit(
        Command{ModifySnapshotCmd{"emp", EmpState({{"ed", 100 + i}})}});
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_EQ(*txn, static_cast<TransactionNumber>(2 + i));
  }
  ASSERT_TRUE(
      exec.SubmitAtomic({Command{ModifySnapshotCmd{"emp", EmpState({})}}})
          .ok());
  // Submit queues without waking the writer and leads at once on an idle
  // shard, so every batch ran on this thread — no race with the writer.
  const ShardedExecutor::Stats stats = exec.stats();
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_EQ(stats.per_shard[0].batches, 7u);
  EXPECT_EQ(stats.per_shard[0].caller_led_batches, 7u);
  EXPECT_EQ(stats.commits, 7u);
  exec.Stop();
}

/// InMemoryEnv whose syncs block while the gate is closed: a test holds a
/// batch in its fsync for as long as it needs, with no sleeps.
class GatedSyncEnv : public InMemoryEnv {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(gate_mutex_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }
  Status Sync(const std::string& path) override {
    {
      std::unique_lock<std::mutex> lock(gate_mutex_);
      opened_.wait(lock, [this] { return open_; });
    }
    return InMemoryEnv::Sync(path);
  }

 private:
  std::mutex gate_mutex_;
  std::condition_variable opened_;
  bool open_ = true;
};

TEST(CallerLedTest, AsyncWindowFromOneThreadStillFormsBatches) {
  GatedSyncEnv env;
  ShardedOptions options = FastOptions(1);
  options.group_commit.max_batch = 64;
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  // SubmitAsync never leads, even on an idle shard: it wakes the writer
  // and returns. With every sync held shut, at most one batch can start
  // before the whole window is queued; whatever it took, the rest is
  // queued together and leaves as one batch (led by the writer or by the
  // first get() that finds its sentence still queued).
  env.Close();
  std::vector<std::future<Result<TransactionNumber>>> window;
  for (int i = 0; i < 64; ++i) {
    window.push_back(exec.SubmitAsync(
        {Command{ModifySnapshotCmd{"emp", EmpState({{"ed", i}})}}}));
  }
  env.Open();
  for (int i = 0; i < 64; ++i) {
    Result<TransactionNumber> txn = window[i].get();
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_EQ(*txn, static_cast<TransactionNumber>(2 + i));
  }
  const ShardedExecutor::Stats stats = exec.stats();
  EXPECT_EQ(stats.commits, 65u);
  EXPECT_LE(stats.batches, 3u);  // the define, then at most two
  EXPECT_GE(stats.max_batch, 32u);
  exec.Stop();
}

TEST(CallerLedTest, DeferredFutureOutlivesStopAndTheExecutor) {
  InMemoryEnv env;
  std::vector<std::future<Result<TransactionNumber>>> futures;
  {
    ShardedExecutor exec(&env, "db", FastOptions(2));
    ASSERT_TRUE(exec.Start().ok());
    auto define = exec.SubmitAsync({Command{
        DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()}}});
    // A queued sentence's future is deferred: polling never blocks, and
    // get() does the waiting.
    EXPECT_EQ(define.wait_for(std::chrono::seconds(0)),
              std::future_status::deferred);
    futures.push_back(std::move(define));
    for (int i = 0; i < 3; ++i) {
      futures.push_back(exec.SubmitAsync(
          {Command{ModifySnapshotCmd{"emp", EmpState({{"ed", i}})}}}));
    }
    exec.Stop();
    // Stop() answered everything queued; a refused submission's future is
    // ready at once.
    auto refused = exec.SubmitAsync(
        {Command{ModifySnapshotCmd{"emp", EmpState({})}}});
    ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(refused.get().status().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({})}})
                  .status()
                  .code(),
              ErrorCode::kUnavailable);
  }
  // The executor is gone; the answers are not.
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TransactionNumber> txn = futures[i].get();
    ASSERT_TRUE(txn.ok()) << txn.status();
    EXPECT_EQ(*txn, static_cast<TransactionNumber>(i + 1));
  }
}

TEST(CallerLedTest, CallerLedBatchesCheckpointAndRecover) {
  InMemoryEnv env;
  ShardedOptions options = FastOptions(1);
  options.durable.checkpoint_every = 3;
  std::string want;
  {
    ShardedExecutor exec(&env, "db", options);
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                          "emp", EmpState({{"ed", i}})}})
                      .ok());
    }
    // The auto-checkpoints ran on this thread after its own batches and
    // truncated the log: the last one covers txn 9, so two batches remain.
    EXPECT_EQ(exec.stats().per_shard[0].caller_led_batches, 11u);
    want = EncodeDatabase(exec.Snapshot());
    exec.Stop();
  }
  ShardedExecutor reopened(&env, "db", options);
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(reopened.last_recovery().checkpoint_txn, 9u);
  EXPECT_EQ(reopened.last_recovery().replayed_batches, 2u);
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), want);
  reopened.Stop();
}

// --- Replayed histories share rows --------------------------------------

/// ApproxBytes of the database one Start() of "db" recovers.
size_t RecoveredBytes(Env* env, std::string* encoded) {
  ShardedExecutor exec(env, "db", FastOptions(1));
  EXPECT_TRUE(exec.Start().ok());
  const Database db = exec.Snapshot();
  *encoded = EncodeDatabase(db);
  exec.Stop();
  return db.ApproxBytes();
}

TEST(ShardRecoveryTest, ReplayedHistorySharesRowsLikeACheckpointLoad) {
  // Each commit repeats most rows of the one before it, in fresh payloads
  // (the client built every state from scratch).
  InMemoryEnv env;
  {
    ShardedExecutor exec(&env, "db", FastOptions(1));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                          "emp", EmpState({{"ann", 1}, {"bob", 2},
                                           {"cy", 3}, {"dee", 10 + i}})}})
                      .ok());
    }
    exec.Stop();
  }
  // The first open replays the shard log; the second loads the checkpoint
  // the first one wrote. Same bytes, and now the same payload sharing.
  std::string replayed, loaded;
  const size_t replayed_bytes = RecoveredBytes(&env, &replayed);
  const size_t loaded_bytes = RecoveredBytes(&env, &loaded);
  EXPECT_EQ(replayed, loaded);
  EXPECT_EQ(replayed_bytes, loaded_bytes);
}

TEST(ShardRecoveryTest, MigratedHistorySharesRowsLikeACheckpointLoad) {
  InMemoryEnv env;
  const std::string want = WriteMixedLegacyDir(&env);
  std::string migrated, loaded;
  const size_t migrated_bytes = RecoveredBytes(&env, &migrated);
  const size_t loaded_bytes = RecoveredBytes(&env, &loaded);
  EXPECT_EQ(migrated, want);
  EXPECT_EQ(loaded, want);
  EXPECT_EQ(migrated_bytes, loaded_bytes);
}

}  // namespace
}  // namespace ttra
