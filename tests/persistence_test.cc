#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "lang/evaluator.h"
#include "rollback/persistence.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Database BuildSampleDb() {
  auto db = lang::EvalSentence(R"(
    define_relation(emp, rollback, (name: string, salary: int));
    modify_state(emp, (name: string, salary: int) {("ed", 100)});
    modify_state(emp, rho(emp, inf) union
                      (name: string, salary: int) {("amy", 200)});
    define_relation(now, snapshot, (n: int));
    modify_state(now, (n: int) {(7)});
    define_relation(hist, temporal, (name: string));
    modify_state(hist, (name: string) {("x") @ [0, 10)});
    modify_state(hist, (name: string) {("x") @ [0, 20)});
  )");
  EXPECT_TRUE(db.ok()) << db.status();
  return *std::move(db);
}

void ExpectDatabasesEqual(const Database& a, const Database& b) {
  EXPECT_EQ(a.transaction_number(), b.transaction_number());
  ASSERT_EQ(a.RelationNames(), b.RelationNames());
  for (const std::string& name : a.RelationNames()) {
    const Relation* ra = a.Find(name);
    const Relation* rb = b.Find(name);
    EXPECT_EQ(ra->type(), rb->type()) << name;
    EXPECT_EQ(ra->schema(), rb->schema()) << name;
    ASSERT_EQ(ra->history_length(), rb->history_length()) << name;
    for (size_t i = 0; i < ra->history_length(); ++i) {
      EXPECT_EQ(ra->TxnAt(i), rb->TxnAt(i)) << name;
      if (HoldsSnapshotStates(ra->type())) {
        EXPECT_EQ(*ra->SnapshotAt(ra->TxnAt(i)),
                  *rb->SnapshotAt(rb->TxnAt(i)))
            << name << " state " << i;
      } else {
        EXPECT_EQ(*ra->HistoricalAt(ra->TxnAt(i)),
                  *rb->HistoricalAt(rb->TxnAt(i)))
            << name << " state " << i;
      }
    }
  }
}

TEST(PersistenceTest, EncodeDecodeRoundTrip) {
  Database db = BuildSampleDb();
  const std::string bytes = EncodeDatabase(db);
  auto restored = DecodeDatabase(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectDatabasesEqual(db, *restored);
}

TEST(PersistenceTest, RestoredDatabaseContinuesCorrectly) {
  Database db = BuildSampleDb();
  auto restored = DecodeDatabase(EncodeDatabase(db));
  ASSERT_TRUE(restored.ok());
  // New work picks up at the preserved transaction counter.
  const TransactionNumber before = restored->transaction_number();
  ASSERT_TRUE(lang::Run(
      "modify_state(emp, select[salary > 150](rho(emp, inf)));", *restored)
          .ok());
  EXPECT_EQ(restored->transaction_number(), before + 1);
  EXPECT_EQ(restored->Rollback("emp")->size(), 1u);
  // Past states from before the save/restore boundary still answer.
  EXPECT_EQ(restored->Rollback("emp", 2)->size(), 1u);
}

TEST(PersistenceTest, EngineChangesAcrossSaveLoad) {
  // The format names no storage engine: decoding with the (inert)
  // options set restores the same database.
  Database db = BuildSampleDb();
  const std::string bytes = EncodeDatabase(db);
  auto restored = DecodeDatabase(
      bytes, DatabaseOptions{.storage = StorageKind::kFullCopy});
  ASSERT_TRUE(restored.ok());
  ExpectDatabasesEqual(db, *restored);
  EXPECT_EQ(EncodeDatabase(*restored), bytes);
}

TEST(PersistenceTest, SchemeEvolutionSurvives) {
  auto db = lang::EvalSentence(R"(
    define_relation(emp, rollback, (name: string));
    modify_state(emp, (name: string) {("ed")});
    modify_schema(emp, (name: string, dept: string));
    modify_state(emp, (name: string, dept: string) {("ed", "cs")});
  )");
  ASSERT_TRUE(db.ok());
  auto restored = DecodeDatabase(EncodeDatabase(*db));
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectDatabasesEqual(*db, *restored);
  EXPECT_EQ(restored->Find("emp")->schema_history().size(), 2u);
  EXPECT_EQ(restored->Rollback("emp", 2)->schema().size(), 1u);
  EXPECT_EQ(restored->Rollback("emp")->schema().size(), 2u);
}

TEST(PersistenceTest, EmptyDatabaseRoundTrips) {
  Database db;
  auto restored = DecodeDatabase(EncodeDatabase(db));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->transaction_number(), 0u);
  EXPECT_TRUE(restored->RelationNames().empty());
}

TEST(PersistenceTest, CorruptionDetectedAtEveryByte) {
  Database db = BuildSampleDb();
  const std::string good = EncodeDatabase(db);
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x3c);
    auto decoded = DecodeDatabase(bad);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i << " undetected";
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption) << i;
    }
  }
}

TEST(PersistenceTest, TruncationDetected) {
  Database db = BuildSampleDb();
  const std::string good = EncodeDatabase(db);
  for (size_t keep = 0; keep < good.size(); keep += 7) {
    auto decoded =
        DecodeDatabase(std::string_view(good).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << keep;
  }
}

TEST(PersistenceTest, TruncationAtEveryOffsetIsCorruption) {
  // A crash can cut the file anywhere; every cut must decode to
  // kCorruption — never crash, never yield a wrong database.
  Database db = BuildSampleDb();
  const std::string good = EncodeDatabase(db);
  for (size_t keep = 0; keep < good.size(); ++keep) {
    auto decoded = DecodeDatabase(std::string_view(good).substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "truncation at " << keep << " undetected";
    EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption)
        << "truncation at " << keep;
  }
}

TEST(PersistenceTest, EveryBitFlipInHeaderAndFirstFrameIsCorruption) {
  // Single-bit rot in the frame header (magic, version, checksum, length)
  // or the leading payload bytes must always surface as kCorruption.
  Database db = BuildSampleDb();
  const std::string good = EncodeDatabase(db);
  const size_t probe = std::min<size_t>(good.size(), 96);
  for (size_t byte = 0; byte < probe; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      auto decoded = DecodeDatabase(bad);
      ASSERT_FALSE(decoded.ok())
          << "flip of bit " << bit << " in byte " << byte << " undetected";
      EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(PersistenceTest, SaveAndLoadFile) {
  Database db = BuildSampleDb();
  const std::string path = ::testing::TempDir() + "/ttra_db_test.bin";
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  auto restored = LoadDatabase(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectDatabasesEqual(db, *restored);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadDatabase(path).ok());  // gone
}

class PersistencePropertyTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, PersistencePropertyTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST_P(PersistencePropertyTest, RandomDatabasesRoundTrip) {
  workload::Generator gen(GetParam());
  Database db;
  auto r1 = gen.RandomCommandStream("alpha", RelationType::kRollback, 12, 15,
                                    0.3);
  auto r2 = gen.RandomCommandStream("beta", RelationType::kTemporal, 8, 10,
                                    0.3);
  auto r3 = gen.RandomCommandStream("gamma", RelationType::kSnapshot, 5, 8,
                                    0.5);
  ASSERT_TRUE(ApplySentence(db, r1).ok());
  ASSERT_TRUE(ApplySentence(db, r2).ok());
  ASSERT_TRUE(ApplySentence(db, r3).ok());
  auto restored = DecodeDatabase(EncodeDatabase(db));
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectDatabasesEqual(db, *restored);
  // Re-encoding the restored database is byte-identical (canonical form).
  EXPECT_EQ(EncodeDatabase(db), EncodeDatabase(*restored));
}

}  // namespace
}  // namespace ttra
