#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "legacy_wal.h"
#include "lang/evaluator.h"
#include "rollback/compact_store.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "rollback/vacuum.h"
#include "storage/env.h"
#include "storage/salvage.h"
#include "storage/wal.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Database BuildLedger() {
  auto db = lang::EvalSentence(R"(
    define_relation(log, rollback, (n: int));
    modify_state(log, (n: int) {(1)});
    modify_state(log, (n: int) {(1), (2)});
    modify_state(log, (n: int) {(1), (2), (3)});
    modify_state(log, (n: int) {(1), (2), (3), (4)});
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return *std::move(db);
}

TEST(VacuumTest, SplitsHistoryAtCutoff) {
  Database db = BuildLedger();  // states at txns 2, 3, 4, 5
  auto result = VacuumRelation(db, "log", /*before_txn=*/4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->archived_states, 2u);  // txns 2 and 3
  EXPECT_FALSE(result->archive.empty());
  // Vacuuming is itself a transaction.
  EXPECT_EQ(db.transaction_number(), 6u);
  // The online relation kept txns 4 and 5.
  const Relation* log = db.Find("log");
  ASSERT_EQ(log->history_length(), 2u);
  EXPECT_EQ(log->TxnAt(0), 4u);
  EXPECT_EQ(*db.Rollback("log"), *db.Rollback("log", 5));
  // Before the cutoff the online history is empty (as if it began at 4).
  EXPECT_TRUE(db.Rollback("log", 3)->empty());
}

TEST(VacuumTest, NothingToArchiveIsNoOp) {
  Database db = BuildLedger();
  auto result = VacuumRelation(db, "log", /*before_txn=*/2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->archived_states, 0u);
  EXPECT_TRUE(result->archive.empty());
  EXPECT_EQ(db.transaction_number(), 5u);  // no transaction consumed
  EXPECT_EQ(db.Find("log")->history_length(), 4u);
}

TEST(VacuumTest, TypeRules) {
  auto db = lang::EvalSentence(
      "define_relation(s, snapshot, (n: int));");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(VacuumRelation(*db, "s", 10).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(VacuumRelation(*db, "ghost", 10).status().code(),
            ErrorCode::kUnknownIdentifier);
}

TEST(VacuumTest, AttachRestoresFullHistory) {
  Database db = BuildLedger();
  Database original = db;
  auto result = VacuumRelation(db, "log", 4);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(AttachArchive(db, "log", result->archive).ok());
  // Every pre-vacuum rollback answer is restored.
  for (TransactionNumber txn = 0; txn <= 5; ++txn) {
    EXPECT_EQ(*db.Rollback("log", txn), *original.Rollback("log", txn))
        << "txn " << txn;
  }
  EXPECT_EQ(db.Find("log")->history_length(), 4u);
}

TEST(VacuumTest, AttachValidation) {
  Database db = BuildLedger();
  auto result = VacuumRelation(db, "log", 4);
  ASSERT_TRUE(result.ok());
  // Wrong relation.
  ASSERT_TRUE(
      db.DefineRelation("other", RelationType::kRollback,
                        *Schema::Make({{"n", ValueType::kInt}}))
          .ok());
  EXPECT_EQ(AttachArchive(db, "other", result->archive).code(),
            ErrorCode::kInvalidArgument);
  // Corrupted archive.
  std::string bad = result->archive;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_FALSE(AttachArchive(db, "log", bad).ok());
  // Bad magic.
  std::string bad_magic = result->archive;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(AttachArchive(db, "log", bad_magic).code(),
            ErrorCode::kCorruption);
  // Double attach overlaps.
  ASSERT_TRUE(AttachArchive(db, "log", result->archive).ok());
  EXPECT_EQ(AttachArchive(db, "log", result->archive).code(),
            ErrorCode::kInvalidArgument);
}

TEST(VacuumTest, WorksOnTemporalRelations) {
  auto db = lang::EvalSentence(R"(
    define_relation(t, temporal, (n: int));
    modify_state(t, (n: int) {(1) @ [0, 5)});
    modify_state(t, (n: int) {(1) @ [0, 9)});
    modify_state(t, (n: int) {(1) @ [0, 9), (2) @ [4, 6)});
  )");
  ASSERT_TRUE(db.ok());
  Database original = *db;
  auto result = VacuumRelation(*db, "t", 4);  // archive txns 2 and 3
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->archived_states, 2u);
  EXPECT_EQ(db->Find("t")->history_length(), 1u);
  EXPECT_TRUE(db->RollbackHistorical("t", 3)->empty());
  ASSERT_TRUE(AttachArchive(*db, "t", result->archive).ok());
  for (TransactionNumber txn = 0; txn <= 4; ++txn) {
    EXPECT_EQ(*db->RollbackHistorical("t", txn),
              *original.RollbackHistorical("t", txn));
  }
}

TEST(VacuumTest, PreservesSchemeHistory) {
  auto db = lang::EvalSentence(R"(
    define_relation(r, rollback, (a: int));
    modify_state(r, (a: int) {(1)});
    modify_schema(r, (a: int, b: int));
    modify_state(r, (a: int, b: int) {(1, 2)});
  )");
  ASSERT_TRUE(db.ok());
  auto result = VacuumRelation(*db, "r", 4);  // archives the txn-2 state
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->archived_states, 1u);
  // Current scheme and state intact; old scheme still recorded.
  EXPECT_EQ(db->Find("r")->schema().size(), 2u);
  EXPECT_EQ(db->Find("r")->schema_history().size(), 2u);
  EXPECT_EQ(db->Rollback("r")->size(), 1u);
  ASSERT_TRUE(AttachArchive(*db, "r", result->archive).ok());
  EXPECT_EQ(db->Rollback("r", 2)->schema().size(), 1u);
}

TEST(VacuumTest, CompactsTheSalvagedPrefixOfAnFsckRepairedWal) {
  // A legacy single-writer WAL (tests/legacy_wal.h) is damaged mid-log,
  // `fsck --repair` cuts it back to the valid prefix, the migrating
  // recovery succeeds — and vacuuming the recovered database must operate
  // on EXACTLY the salvaged prefix: archive + online answers together
  // reproduce it, with no trace of the quarantined commits.
  InMemoryEnv env;
  Schema schema = *Schema::Make({{"n", ValueType::kInt}});
  auto nth_state = [&](int i) {
    std::vector<Tuple> rows;
    for (int k = 0; k <= i; ++k) rows.push_back(Tuple{Value::Int(k)});
    return *SnapshotState::Make(schema, std::move(rows));
  };
  {
    LegacyDir legacy(&env, "d");
    ASSERT_TRUE(legacy.Create().ok());
    ASSERT_TRUE(legacy.Submit({Command(DefineRelationCmd{
                         "log", RelationType::kRollback, schema})})
                    .ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          legacy.Submit({Command(ModifySnapshotCmd{"log", nth_state(i)})})
              .ok());
    }
  }

  // Bit rot inside record #4's payload: the salvaged prefix is records
  // 0..3 (define + three states); records #5, #6 end up quarantined.
  std::string image = *env.Read("d/wal.log");
  auto intact = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 7u);
  image[intact->record_offsets[4] + 20] ^= 0x08;
  ASSERT_TRUE(env.Truncate("d/wal.log").ok());
  ASSERT_TRUE(env.Append("d/wal.log", image).ok());
  ASSERT_TRUE(env.Sync("d/wal.log").ok());

  SalvageOptions fsck;
  fsck.validate_record = [](std::string_view payload) {
    return DecodeWalRecord(payload).status();
  };
  fsck.validate_checkpoint = [](std::string_view data) {
    return DecodeDatabase(data).status();
  };
  auto repaired = RepairStorage(&env, "d", fsck);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  ASSERT_TRUE(repaired->repaired);

  ShardedOptions one_shard;
  one_shard.shards = 1;
  ShardedExecutor recovered(&env, "d", one_shard);
  ASSERT_TRUE(recovered.Start().ok());
  Database db = recovered.Snapshot();
  recovered.Stop();
  ASSERT_EQ(db.transaction_number(), 4u);  // define + states 0..2
  Database salvaged = db;

  // Vacuum the middle of the salvaged history, then re-attach: every
  // rollback answer of the salvaged prefix survives the round trip.
  auto result = VacuumRelation(db, "log", /*before_txn=*/4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->archived_states, 2u);  // txns 2 and 3
  // Post-vacuum, the online relation holds exactly the prefix's tail...
  EXPECT_EQ(*db.Rollback("log"), *salvaged.Rollback("log"));
  EXPECT_TRUE(db.Rollback("log", 3)->empty());
  // ...and nothing from beyond the hole leaked in: the latest state is
  // still nth_state(2), not the quarantined nth_state(5).
  EXPECT_EQ(db.Rollback("log")->size(), 3u);
  ASSERT_TRUE(AttachArchive(db, "log", result->archive).ok());
  for (TransactionNumber txn = 0; txn <= 4; ++txn) {
    EXPECT_EQ(*db.Rollback("log", txn), *salvaged.Rollback("log", txn))
        << "txn " << txn;
  }
}

class VacuumPropertyTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, VacuumPropertyTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST_P(VacuumPropertyTest, VacuumThenAttachIsIdentityForRollbackAnswers) {
  workload::Generator gen(GetParam());
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 20,
                                          15, 0.3);
  Database db;
  ASSERT_TRUE(ApplySentence(db, commands).ok());
  Database original = db;
  const TransactionNumber cutoff = 1 + gen.rng().Uniform(20);
  auto result = VacuumRelation(db, "r", cutoff);
  ASSERT_TRUE(result.ok());
  if (result->archived_states > 0) {
    ASSERT_TRUE(AttachArchive(db, "r", result->archive).ok());
  }
  for (TransactionNumber txn = 0; txn <= original.transaction_number();
       ++txn) {
    EXPECT_EQ(*db.Rollback("r", txn), *original.Rollback("r", txn));
  }
}

// --- Online storage compaction (DESIGN.md §16) ------------------------------

/// CompactStore::Compact swaps fresh-generation segments under live
/// traffic without blocking epoch-pinned readers: readers hold in-memory
/// snapshots, and on-disk probes that lose the generation race retry onto
/// the new manifest. This is the tier-1 race test; the TSan-sized variant
/// lives in tsan_stress_test.cc.
TEST(OnlineCompactionTest, CompactionRacesWritersReadersAndProbes) {
  InMemoryEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.durable.compact.keyframe_interval = 4;
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  Schema schema = *Schema::Make({{"n", ValueType::kInt}});
  auto nth_state = [&](int i) {
    std::vector<Tuple> rows;
    for (int k = 0; k <= i % 4; ++k) {
      rows.push_back(Tuple{Value::Int(i * 10 + k)});
    }
    return *SnapshotState::Make(schema, std::move(rows));
  };
  ASSERT_TRUE(exec.Submit(Command(DefineRelationCmd{
                      "r", RelationType::kRollback, schema}))
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command(ModifySnapshotCmd{"r", nth_state(0)})).ok());
  ASSERT_TRUE(exec.Checkpoint().ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  // Writer: keeps committing while compactions rewrite the segments.
  threads.emplace_back([&] {
    for (int i = 1; i <= 32; ++i) {
      auto txn = exec.Submit(Command(ModifySnapshotCmd{"r", nth_state(i)}));
      if (!txn.ok()) errors.fetch_add(1);
    }
  });
  // Pinned readers: a session opened at any moment — including mid-swap —
  // must answer ρ(r, epoch) from its in-memory snapshot.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 64; ++i) {
        Session session = exec.OpenSession();
        auto state = session.Rollback("r", session.epoch());
        if (!state.ok()) errors.fetch_add(1);
        if (session.Rollback("r", session.epoch() + 1).ok()) {
          errors.fetch_add(1);
        }
        (void)t;
      }
    });
  }
  // Prober: on-disk ρ through the interval index, concurrent with the
  // generation swaps (the probe's retry path).
  threads.emplace_back([&] {
    CompactStore* store = exec.compact_store();
    for (int i = 0; i < 64; ++i) {
      const TransactionNumber covered = store->checkpoint_txn();
      if (covered < 2) continue;
      auto probed = store->ProbeSnapshot("r", 2 + i % (covered - 1));
      if (!probed.ok()) errors.fetch_add(1);
    }
  });
  // Compactor: online vacuum, repeatedly, against all of the above.
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      if (!exec.CompactStorage().ok()) errors.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(exec.healthy());

  // Post-race ground truth: every epoch's ρ equals the serial replay of
  // the committed order, on-disk probe included.
  ASSERT_TRUE(exec.Checkpoint().ok());
  const Database db = exec.Snapshot();
  const Relation* rel = db.Find("r");
  ASSERT_NE(rel, nullptr);
  for (TransactionNumber txn = 0; txn <= db.transaction_number(); ++txn) {
    auto in_memory = rel->SnapshotAt(txn);
    ASSERT_TRUE(in_memory.ok());
    auto probed = exec.compact_store()->ProbeSnapshot("r", txn);
    ASSERT_TRUE(probed.ok()) << probed.status();
    EXPECT_EQ(*in_memory, *probed) << "txn " << txn;
  }
  exec.Stop();
}

}  // namespace
}  // namespace ttra
