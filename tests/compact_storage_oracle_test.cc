#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "legacy_wal.h"
#include "rollback/commands.h"
#include "rollback/compact_store.h"
#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "workload/generator.h"

namespace ttra {
namespace {

// Compact-storage equivalence oracle (DESIGN.md §16). The paper's
// semantics IS the full-state-copy model: every transaction appends a
// complete database state, and ρ(I, N) selects one. The compact engine —
// delta-encoded segments, incremental manifest chain, interval-indexed
// probes, online compaction — is an implementation of that spec, so its
// observable behavior must be indistinguishable from it. This suite makes
// the claim a property: for each seed, one random command program is
// executed through a plain SerialExecutor (the spec) and through the
// durable executor (ShardedExecutor, one shard and three), interleaved
// with random checkpoints, reopens (recovery through CompactStore::Load),
// and online CompactStorage() calls. The contracts:
//
//  1. the final databases are byte-equal (EncodeDatabase) across all
//     engines, storage layouts, and any interleaving of checkpoint /
//     reopen / compact — and per-sentence ack outcomes agree;
//  2. ρ(I, N) answers are equal at EVERY epoch 0..final, both through the
//     recovered in-memory database and through the on-disk probe path
//     (ProbeSnapshot/ProbeHistorical), with the probe cache on or off;
//  3. migrating a legacy directory (full-copy checkpoint.db plus a
//     single-writer wal.log of plain records, built by hand because
//     nothing writes it any more) to the compact, sharded layout
//     preserves byte-equality and removes the legacy image and log.
//
// Runs as 10 fixed ctest shards that together sweep TTRA_ORACLE_SEEDS
// seeds (read at RUN time; default 100 — CI's quick lane lowers it to 25,
// tools/check.sh --stress raises it).

constexpr int kOracleShards = 10;
constexpr int kSentences = 24;

int OracleSeedCount() {
  const char* env = std::getenv("TTRA_ORACLE_SEEDS");
  if (env == nullptr) return 100;
  int n = std::atoi(env);
  return n > 0 ? n : 100;
}

struct RelationSpec {
  std::string name;
  RelationType type;
  Schema schema;
};

struct Sentence {
  std::vector<Command> commands;
  bool atomic = false;
};

struct Program {
  std::vector<RelationSpec> catalog;
  std::vector<Sentence> sentences;
};

/// What the engine does after each sentence — drawn once per seed so
/// every engine replays the identical schedule.
enum class Interleave { kNone, kCheckpoint, kReopen, kCompactStorage };

std::string EncodeState(const SnapshotState& state) {
  std::string out;
  EncodeSnapshotState(state, out);
  return out;
}

std::string EncodeState(const HistoricalState& state) {
  std::string out;
  EncodeHistoricalState(state, out);
  return out;
}

/// A random program over all four relation types: single modifies, schema
/// changes, delete + redefine, multi-command sentences with a deliberately
/// failing middle (atomic or paper-sequenced), and pure-error sentences.
Program RandomProgram(uint64_t seed) {
  workload::Generator gen(seed + 1, workload::GeneratorOptions{});
  Program program;
  const RelationType kinds[] = {RelationType::kSnapshot,
                                RelationType::kRollback,
                                RelationType::kHistorical,
                                RelationType::kTemporal};
  // At least one retains-history relation of each state kind (rollback,
  // temporal) so the probe sweep always has full-coverage subjects.
  for (size_t i = 0; i < 5; ++i) {
    const RelationType type =
        i < 4 ? kinds[i] : kinds[gen.rng().Uniform(4)];
    program.catalog.push_back(RelationSpec{
        "r" + std::to_string(i), type, gen.RandomSchema(2)});
  }
  for (const RelationSpec& rel : program.catalog) {
    program.sentences.push_back(Sentence{
        {Command{DefineRelationCmd{rel.name, rel.type, rel.schema}}}, false});
  }
  auto modify = [&](const RelationSpec& rel) -> Command {
    if (!HoldsSnapshotStates(rel.type)) {
      return ModifyHistoricalCmd{
          rel.name,
          gen.RandomHistoricalState(rel.schema, gen.rng().Uniform(4))};
    }
    return ModifySnapshotCmd{
        rel.name, gen.RandomState(rel.schema, gen.rng().Uniform(4))};
  };
  for (int i = 0; i < kSentences; ++i) {
    const RelationSpec& rel =
        program.catalog[gen.rng().Uniform(program.catalog.size())];
    Sentence sentence;
    const uint64_t kind = gen.rng().Uniform(12);
    if (kind < 7) {
      sentence.commands.push_back(modify(rel));
    } else if (kind == 7) {
      // Schema change: forces a keyframe in the relation's segment.
      sentence.commands.push_back(
          ModifySchemaCmd{rel.name, gen.RandomSchema(3)});
      sentence.commands.push_back(modify(RelationSpec{
          rel.name, rel.type, gen.RandomSchema(3)}));  // likely fails
    } else if (kind == 8) {
      // Delete + redefine: the manifest must drop and re-cover the name.
      sentence.commands.push_back(DeleteRelationCmd{rel.name});
      sentence.commands.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
      sentence.commands.push_back(modify(rel));
    } else if (kind < 11) {
      // Failing middle command: paper sequencing keeps the flanking
      // effects, an atomic submit rolls all three back.
      sentence.atomic = gen.rng().Bernoulli(0.5);
      sentence.commands.push_back(modify(rel));
      sentence.commands.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
      sentence.commands.push_back(
          modify(program.catalog[gen.rng().Uniform(3)]));
    } else {
      sentence.commands.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
    }
    program.sentences.push_back(std::move(sentence));
  }
  return program;
}

std::vector<Interleave> RandomSchedule(uint64_t seed, size_t n) {
  workload::Generator gen(seed + 7);
  std::vector<Interleave> schedule(n, Interleave::kNone);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = gen.rng().Uniform(10);
    if (roll < 3) {
      schedule[i] = Interleave::kCheckpoint;
    } else if (roll == 3) {
      schedule[i] = Interleave::kReopen;
    } else if (roll == 4) {
      schedule[i] = Interleave::kCompactStorage;
    }
  }
  return schedule;
}

/// The spec: serial execution with full-state-copy semantics. Returns the
/// per-sentence ack outcomes alongside the final database.
Database RunSerialOracle(const Program& program, std::vector<bool>& acks) {
  SerialExecutor serial;
  for (const Sentence& sentence : program.sentences) {
    auto body = [&](Database& db) {
      return ApplySentence(db, sentence.commands);
    };
    const Result<TransactionNumber> txn =
        sentence.atomic ? serial.SubmitAtomic(body) : serial.Submit(body);
    acks.push_back(txn.ok());
  }
  return serial.Snapshot();
}

/// Writes the pre-compact single-writer layout by hand: SaveDatabase of the
/// oracle after the first `split` sentences as checkpoint.db, and a
/// wal.log of plain kind-0 (sequenced) / kind-1 (atomic) records
/// (tests/legacy_wal.h). The log starts two sentences before the split,
/// as a crash between checkpoint publication and WAL truncation left it,
/// so the migration must skip the covered records.
void WriteLegacyDir(Env* env, const std::string& dir, const Program& program,
                    size_t split) {
  ASSERT_TRUE(env->CreateDir(dir).ok());
  WalWriter wal(env, dir + "/" + kLegacyWalFile);
  ASSERT_TRUE(wal.Create().ok());
  const size_t wal_from = split >= 2 ? split - 2 : 0;
  Database db;
  for (size_t i = 0; i <= program.sentences.size(); ++i) {
    if (i == split) {
      ASSERT_TRUE(
          SaveDatabase(db, dir + "/" + kLegacyCheckpointFile, env).ok());
    }
    if (i == program.sentences.size()) break;
    const Sentence& sentence = program.sentences[i];
    const LoggedSentence entry =
        LogLegacySentence(db, sentence.commands, sentence.atomic);
    if (i >= wal_from) {
      ASSERT_TRUE(wal.AddRecord(EncodeLegacyRecord(entry)).ok());
    }
  }
  ASSERT_TRUE(wal.Sync().ok());
}

/// The durable executor with one shard: the single-writer pipeline.
ShardedOptions OneShard(const DurableOptions& durable) {
  ShardedOptions options;
  options.shards = 1;
  options.durable = durable;
  return options;
}

/// Runs the program through a one-shard ShardedExecutor, honoring the
/// interleave schedule.
void RunOneShard(Env* env, const std::string& dir,
                 const DurableOptions& options, const Program& program,
                 const std::vector<Interleave>& schedule,
                 std::vector<bool>& acks) {
  auto exec = std::make_unique<ShardedExecutor>(env, dir, OneShard(options));
  ASSERT_TRUE(exec->Start().ok());
  for (size_t i = 0; i < program.sentences.size(); ++i) {
    const Sentence& sentence = program.sentences[i];
    const Result<TransactionNumber> txn =
        sentence.atomic ? exec->SubmitAtomic(sentence.commands)
                        : exec->Submit(sentence.commands);
    acks.push_back(txn.ok());
    switch (schedule[i]) {
      case Interleave::kNone:
        break;
      case Interleave::kCheckpoint:
        ASSERT_TRUE(exec->Checkpoint().ok());
        break;
      case Interleave::kReopen:
        exec.reset();
        exec = std::make_unique<ShardedExecutor>(env, dir, OneShard(options));
        ASSERT_TRUE(exec->Start().ok()) << "reopen after sentence " << i;
        break;
      case Interleave::kCompactStorage:
        ASSERT_TRUE(exec->CompactStorage().ok());
        break;
    }
  }
  // Cover the full history so the probe sweep can answer every epoch.
  ASSERT_TRUE(exec->Checkpoint().ok());
}

/// Contract 2, in-memory side: ρ(I, N) through the recovered database
/// equals the oracle at every epoch for every retains-history relation.
void VerifyRollbackEquality(const Database& oracle, const Database& actual) {
  ASSERT_EQ(oracle.transaction_number(), actual.transaction_number());
  for (const std::string& name : oracle.RelationNames()) {
    const Relation* rel = oracle.Find(name);
    ASSERT_NE(rel, nullptr);
    if (!RetainsHistory(rel->type())) continue;
    for (TransactionNumber txn = 0; txn <= oracle.transaction_number();
         ++txn) {
      SCOPED_TRACE(name + " @" + std::to_string(txn));
      if (HoldsSnapshotStates(rel->type())) {
        Result<SnapshotState> want = oracle.Rollback(name, txn);
        Result<SnapshotState> got = actual.Rollback(name, txn);
        ASSERT_EQ(want.ok(), got.ok());
        if (want.ok()) {
          ASSERT_EQ(EncodeState(*want), EncodeState(*got));
        }
      } else {
        Result<HistoricalState> want = oracle.RollbackHistorical(name, txn);
        Result<HistoricalState> got = actual.RollbackHistorical(name, txn);
        ASSERT_EQ(want.ok(), got.ok());
        if (want.ok()) {
          ASSERT_EQ(EncodeState(*want), EncodeState(*got));
        }
      }
    }
  }
}

/// Contract 2, on-disk side: the interval-index probe answers every epoch
/// the same way the in-memory relation does — including epochs before the
/// relation existed (both say "empty at the then-current schema"). The
/// sweep runs twice so the second pass exercises the FINDSTATE probe
/// cache when it is enabled.
void VerifyProbeEquality(CompactStore& store, const Database& db) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& name : db.RelationNames()) {
      const Relation* rel = db.Find(name);
      ASSERT_NE(rel, nullptr);
      if (!RetainsHistory(rel->type())) continue;
      for (TransactionNumber txn = 0; txn <= db.transaction_number();
           ++txn) {
        SCOPED_TRACE(name + " @" + std::to_string(txn) + " pass " +
                     std::to_string(pass));
        if (HoldsSnapshotStates(rel->type())) {
          Result<SnapshotState> probed = store.ProbeSnapshot(name, txn);
          ASSERT_TRUE(probed.ok()) << probed.status();
          Result<SnapshotState> direct = rel->SnapshotAt(txn);
          ASSERT_TRUE(direct.ok()) << direct.status();
          ASSERT_EQ(EncodeState(*direct), EncodeState(*probed));
        } else {
          Result<HistoricalState> probed = store.ProbeHistorical(name, txn);
          ASSERT_TRUE(probed.ok()) << probed.status();
          Result<HistoricalState> direct = rel->HistoricalAt(txn);
          ASSERT_TRUE(direct.ok()) << direct.status();
          ASSERT_EQ(EncodeState(*direct), EncodeState(*probed));
        }
      }
    }
  }
}

void RunCompactOracleSeed(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Program program = RandomProgram(seed);
  const std::vector<Interleave> schedule =
      RandomSchedule(seed, program.sentences.size());

  std::vector<bool> oracle_acks;
  const Database oracle = RunSerialOracle(program, oracle_acks);
  const std::string oracle_bytes = EncodeDatabase(oracle);

  // --- durable executor, one shard ----------------------------------------
  InMemoryEnv env;
  const std::string dir = "compact";
  DurableOptions compact_options;
  compact_options.compact.keyframe_interval = 3;  // short replay chains
  std::vector<bool> compact_acks;
  RunOneShard(&env, dir, compact_options, program, schedule, compact_acks);
  ASSERT_EQ(oracle_acks, compact_acks);

  // Recover once more through CompactStore::Load and compare everything.
  ShardedExecutor reopened(&env, dir, OneShard(compact_options));
  ASSERT_TRUE(reopened.Start().ok());
  const Database recovered = reopened.Snapshot();
  ASSERT_EQ(oracle_bytes, EncodeDatabase(recovered));
  VerifyRollbackEquality(oracle, recovered);
  VerifyProbeEquality(*reopened.compact_store(), recovered);
  if (recovered.transaction_number() > 0) {
    EXPECT_GT(reopened.compact_store()->stats().probes, 0u);
  }

  // Same directory probed through a cache-disabled store: identical
  // answers, zero hits (the cached store above may hit on its second
  // sweep; equality of the answers is the contract).
  CompactOptions uncached = compact_options.compact;
  uncached.probe_cache_capacity = 0;
  CompactStore cold(&env, dir, uncached);
  Result<Database> cold_db = cold.Load(DatabaseOptions{});
  ASSERT_TRUE(cold_db.ok()) << cold_db.status();
  ASSERT_EQ(oracle_bytes, EncodeDatabase(*cold_db));
  VerifyProbeEquality(cold, *cold_db);
  EXPECT_EQ(cold.stats().probe_cache_hits, 0u);

  // --- legacy directory + migration ----------------------------------------
  const std::string legacy_dir = "legacy";
  WriteLegacyDir(&env, legacy_dir, program,
                 seed % (program.sentences.size() + 1));
  if (::testing::Test::HasFatalFailure()) return;
  {
    ShardedExecutor migrated(&env, legacy_dir, OneShard(compact_options));
    ASSERT_TRUE(migrated.Start().ok());
    ASSERT_EQ(oracle_bytes, EncodeDatabase(migrated.Snapshot()));
  }
  ASSERT_TRUE(env.Exists(legacy_dir + "/" + kCompactManifestFile));
  ASSERT_FALSE(env.Exists(legacy_dir + "/" + kLegacyCheckpointFile));
  ASSERT_FALSE(env.Exists(legacy_dir + "/" + kLegacyCheckpointFile + ".tmp"));
  ASSERT_FALSE(env.Exists(legacy_dir + "/" + kLegacyWalFile));

  // Once migrated, a reopen recovers from the manifest.
  ShardedExecutor adopted(&env, legacy_dir, OneShard(compact_options));
  ASSERT_TRUE(adopted.Start().ok());
  ASSERT_EQ(oracle_bytes, EncodeDatabase(adopted.Snapshot()));
}

class CompactStorageOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactStorageOracleTest, CompactEngineMatchesFullCopySemantics) {
  const int shard = GetParam();
  const int total = OracleSeedCount();
  for (int seed = shard; seed < total; seed += kOracleShards) {
    RunCompactOracleSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CompactStorageOracleTest,
                         ::testing::Range(0, kOracleShards));

// ---------------------------------------------------------------------------
// The queued (group-commit) engine under compact storage
// ---------------------------------------------------------------------------

/// One synchronous replay per seed, with no reopen through a second
/// executor object, pins byte-equality and recovery on the single-writer
/// pipeline (one shard) and on three shards; the concurrency-vs-serial
/// contract itself is owned by concurrent_oracle_test.
void RunConcurrentCompactSeed(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Program program = RandomProgram(seed);
  const std::vector<Interleave> schedule =
      RandomSchedule(seed, program.sentences.size());
  std::vector<bool> oracle_acks;
  const Database oracle = RunSerialOracle(program, oracle_acks);
  const std::string oracle_bytes = EncodeDatabase(oracle);

  InMemoryEnv env;
  for (const size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const std::string dir = "sharded-" + std::to_string(shards);
    ShardedOptions options;
    options.shards = shards;
    options.durable.compact.keyframe_interval = 3;
    ShardedExecutor exec(&env, dir, options);
    ASSERT_TRUE(exec.Start().ok());
    std::vector<bool> acks;
    for (size_t i = 0; i < program.sentences.size(); ++i) {
      const Sentence& sentence = program.sentences[i];
      const Result<TransactionNumber> txn =
          sentence.atomic ? exec.SubmitAtomic(sentence.commands)
                          : exec.Submit(sentence.commands);
      acks.push_back(txn.ok());
      if (schedule[i] == Interleave::kCheckpoint) {
        ASSERT_TRUE(exec.Checkpoint().ok());
      } else if (schedule[i] == Interleave::kCompactStorage) {
        ASSERT_TRUE(exec.CompactStorage().ok());
      } else if (schedule[i] == Interleave::kReopen) {
        exec.Stop();
        ASSERT_TRUE(exec.Start().ok());
      }
    }
    ASSERT_EQ(oracle_acks, acks);
    ASSERT_TRUE(exec.Checkpoint().ok());
    const Database final_db = exec.Snapshot();
    ASSERT_EQ(oracle_bytes, EncodeDatabase(final_db));
    VerifyProbeEquality(*exec.compact_store(), final_db);
    exec.Stop();

    // Recovery from the compact layout alone (the shard WALs were
    // truncated by the final checkpoint).
    ShardedExecutor recovered(&env, dir, options);
    ASSERT_TRUE(recovered.Start().ok());
    ASSERT_EQ(oracle_bytes, EncodeDatabase(recovered.Snapshot()));
    recovered.Stop();
  }
}

class ConcurrentCompactOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentCompactOracleTest, GroupCommitEnginesMatchOracle) {
  const int shard = GetParam();
  const int total = OracleSeedCount();
  for (int seed = shard; seed < total; seed += kOracleShards) {
    RunConcurrentCompactSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentCompactOracleTest,
                         ::testing::Range(0, kOracleShards));

}  // namespace
}  // namespace ttra
