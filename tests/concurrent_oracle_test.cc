#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/serialize.h"
#include "workload/generator.h"

namespace ttra {
namespace {

// Differential concurrency oracle. Many producer threads push random
// sentences through the queued ShardedExecutor (group commit enabled)
// while many reader threads sample pinned sessions. Afterwards the shard
// write-ahead logs — which record the committed order verbatim — are read
// back, merged and replayed through a plain SerialExecutor. The contract
// under test:
//
//  1. the concurrent final database equals the serial replay of the
//     committed order (every batch is equivalent to some serial C⟦·⟧
//     order, and the WAL names that order);
//  2. every view a session observed at epoch N equals ρ(I, N) evaluated
//     against the replayed database (epoch pinning = the rollback
//     operator as snapshot-isolation spec);
//  3. the logged transaction numbers chain gap-free: each committed
//     batch's base equals the replay's transaction number — ONE total
//     order merged from N shard WALs, byte-equal to serial execution.
//
// ConcurrentOracleTest runs the single-writer pipeline (one shard) and
// also proves that multi-sentence batches formed; ShardedOracleTest runs
// two and four shards. Both suites run as 10 fixed ctest shards that
// together sweep TTRA_ORACLE_SEEDS seeds (read at RUN time; default 50 —
// tools/check.sh --stress raises it). Designed to run under TSan: fixed
// iteration counts, no sleeps, all waiting via futures/Drain.

constexpr int kOracleShards = 10;

constexpr int kProducers = 4;
constexpr int kReaders = 4;
constexpr int kSentencesPerProducer = 10;
/// Sentences a producer enqueues back to back before awaiting them: the
/// writer takes whatever queued while its previous batch was syncing, so
/// bursts are what make multi-sentence batches.
constexpr size_t kBurst = 5;
constexpr int kReadsPerReader = 24;

int OracleSeedCount() {
  const char* env = std::getenv("TTRA_ORACLE_SEEDS");
  if (env == nullptr) return 50;
  int n = std::atoi(env);
  return n > 0 ? n : 50;
}

struct Relation {
  std::string name;
  RelationType type;
  Schema schema;
};

// What one reader observed: relation `rel` through a session pinned at
// `epoch`. The state is kept encoded so views are cheap to store and
// compare exactly.
struct View {
  TransactionNumber epoch = 0;
  size_t rel = 0;
  bool ok = false;
  std::string error;    // status message when !ok (for diagnostics)
  std::string encoded;  // EncodeSnapshotState / EncodeHistoricalState
};

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

/// Fixed catalog: three rollback relations plus one temporal, seeded
/// synchronously so every reader view is over a defined relation.
void SeedCatalog(ShardedExecutor& exec, workload::Generator& setup,
                 std::vector<Relation>& catalog) {
  for (int i = 0; i < 3; ++i) {
    catalog.push_back(Relation{"r" + std::to_string(i),
                               RelationType::kRollback,
                               setup.RandomSchema(2)});
  }
  catalog.push_back(Relation{"t0", RelationType::kTemporal,
                             setup.RandomSchema(2)});
  for (const Relation& rel : catalog) {
    ASSERT_TRUE(
        exec.Submit(Command{DefineRelationCmd{rel.name, rel.type, rel.schema}})
            .ok());
    Command initial =
        rel.type == RelationType::kTemporal
            ? Command{ModifyHistoricalCmd{
                  rel.name, setup.RandomHistoricalState(rel.schema, 3)}}
            : Command{ModifySnapshotCmd{rel.name,
                                        setup.RandomState(rel.schema, 3)}};
    ASSERT_TRUE(exec.Submit(std::move(initial)).ok());
  }
}

/// Producers push random sentences (mixing plain/atomic submits,
/// successful updates, and deliberate failures) in bursts of kBurst while
/// readers sample pinned sessions concurrently.
void DriveWorkload(ShardedExecutor& exec, uint64_t seed,
                   const workload::GeneratorOptions& gen_options,
                   const std::vector<Relation>& catalog,
                   std::vector<std::vector<View>>& observed,
                   std::atomic<uint64_t>& acked_ok,
                   std::atomic<uint64_t>& acked_err) {
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      workload::Generator gen(seed * 1000 + static_cast<uint64_t>(p) + 1,
                              gen_options);
      std::vector<std::future<Result<TransactionNumber>>> futures;
      for (int i = 0; i < kSentencesPerProducer; ++i) {
        const Relation& rel = catalog[gen.rng().Uniform(catalog.size())];
        std::vector<Command> sentence;
        bool atomic = false;
        const uint64_t kind = gen.rng().Uniform(10);
        auto modify = [&](const Relation& r) -> Command {
          if (r.type == RelationType::kTemporal) {
            return ModifyHistoricalCmd{
                r.name,
                gen.RandomHistoricalState(r.schema, gen.rng().Uniform(5))};
          }
          return ModifySnapshotCmd{
              r.name, gen.RandomState(r.schema, gen.rng().Uniform(5))};
        };
        if (kind < 6) {
          sentence.push_back(modify(rel));
        } else if (kind < 8) {
          // Multi-command sentence; the middle command fails (duplicate
          // define). Plain submit → paper sequencing keeps the flanking
          // effects; atomic submit → all three roll back. For the sharded
          // executor the third command usually lands on ANOTHER shard —
          // this is the cross-shard two-phase traffic.
          atomic = gen.rng().Bernoulli(0.5);
          sentence.push_back(modify(rel));
          sentence.push_back(
              DefineRelationCmd{rel.name, rel.type, rel.schema});
          sentence.push_back(modify(catalog[gen.rng().Uniform(3)]));
        } else {
          // Pure error sentence: no effect either way.
          sentence.push_back(
              DefineRelationCmd{rel.name, rel.type, rel.schema});
        }
        futures.push_back(exec.SubmitAsync(std::move(sentence), atomic));
        if (futures.size() == kBurst || gen.rng().Bernoulli(0.1)) {
          // Await the burst (or, now and then, a shorter one) so this
          // producer's next sentence lands in a later batch
          // (read-your-writes pressure).
          for (auto& f : futures) f.get().ok() ? ++acked_ok : ++acked_err;
          futures.clear();
        }
      }
      for (auto& f : futures) f.get().ok() ? ++acked_ok : ++acked_err;
    });
  }

  // Readers: sample sessions concurrently with commits. Each view must be
  // internally consistent now, and must match the serial oracle later.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      for (int i = 0; i < kReadsPerReader; ++i) {
        Session session = exec.OpenSession();
        const size_t rel_index =
            (static_cast<size_t>(r) + static_cast<size_t>(i)) %
            catalog.size();
        const Relation& rel = catalog[rel_index];
        View view;
        view.epoch = session.epoch();
        view.rel = rel_index;
        if (rel.type == RelationType::kTemporal) {
          Result<HistoricalState> now = session.RollbackHistorical(rel.name);
          Result<HistoricalState> pinned =
              session.RollbackHistorical(rel.name, session.epoch());
          ASSERT_EQ(now.ok(), pinned.ok());
          if (now.ok()) {
            // nullopt ("current") and the explicit epoch must agree: the
            // snapshot's present IS the epoch.
            ASSERT_EQ(EncodeState(*now), EncodeState(*pinned));
            view.ok = true;
            view.encoded = EncodeState(*now);
          } else {
            view.error = now.status().message();
          }
          // Beyond the pin is rejected, never answered.
          ASSERT_FALSE(
              session.RollbackHistorical(rel.name, session.epoch() + 1).ok());
        } else {
          Result<SnapshotState> now = session.Rollback(rel.name);
          Result<SnapshotState> pinned =
              session.Rollback(rel.name, session.epoch());
          ASSERT_EQ(now.ok(), pinned.ok());
          if (now.ok()) {
            ASSERT_EQ(EncodeState(*now), EncodeState(*pinned));
            view.ok = true;
            view.encoded = EncodeState(*now);
          } else {
            view.error = now.status().message();
          }
          ASSERT_FALSE(session.Rollback(rel.name, session.epoch() + 1).ok());
        }
        observed[static_cast<size_t>(r)].push_back(std::move(view));
      }
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();
}

/// Contract 2: every observed view equals ρ(I, N) against the replayed
/// history. Nothing was deleted, so the final database answers every
/// epoch the readers pinned.
void VerifyViews(const Database& replay_db,
                 const std::vector<Relation>& catalog,
                 const std::vector<std::vector<View>>& observed) {
  for (const auto& per_reader : observed) {
    for (const View& view : per_reader) {
      const Relation& rel = catalog[view.rel];
      SCOPED_TRACE("rel=" + rel.name +
                   " epoch=" + std::to_string(view.epoch));
      if (rel.type == RelationType::kTemporal) {
        Result<HistoricalState> oracle =
            replay_db.RollbackHistorical(rel.name, view.epoch);
        ASSERT_EQ(oracle.ok(), view.ok)
            << (view.ok ? oracle.status().message() : view.error);
        if (oracle.ok()) {
          ASSERT_EQ(EncodeState(*oracle), view.encoded);
        }
      } else {
        Result<SnapshotState> oracle = replay_db.Rollback(rel.name, view.epoch);
        ASSERT_EQ(oracle.ok(), view.ok)
            << (view.ok ? oracle.status().message() : view.error);
        if (oracle.ok()) {
          ASSERT_EQ(EncodeState(*oracle), view.encoded);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded oracle: N writer shards, one merged total order
// ---------------------------------------------------------------------------

/// One committed batch reconstructed from a shard WAL: the prepare record
/// carries the payload, the commit record the global position.
struct MergedBatch {
  uint64_t shard = 0;
  uint64_t seq = 0;
  TransactionNumber base = 0;
  TransactionNumber post = 0;
  std::vector<GroupEntry> entries;
};

/// Reads every shard WAL plus the coordinator log and reconstructs the
/// committed order, sorted by base transaction number — the merge the
/// sharded executor's recovery performs, re-implemented independently so
/// the test does not trust the code under test.
void MergeCommittedOrder(
    const Env& env, const std::string& dir, size_t nshards,
    std::vector<MergedBatch>& merged,
    std::map<std::pair<uint64_t, uint64_t>, ShardRecord>& coordinator) {
  for (size_t k = 0; k < nshards; ++k) {
    const std::string path = dir + "/" + ShardWalFile(k);
    if (!env.Exists(path)) continue;
    Result<WalReadResult> wal = ReadWal(env, path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_FALSE(wal->torn_tail) << path;
    std::map<uint64_t, ShardRecord> prepares;
    for (const std::string& payload : wal->records) {
      Result<ShardRecord> record = DecodeShardRecord(payload);
      ASSERT_TRUE(record.ok()) << record.status();
      switch (record->kind) {
        case ShardRecordKind::kPrepare:
          ASSERT_TRUE(
              prepares.emplace(record->seq, std::move(*record)).second)
              << "duplicate prepare in " << path;
          break;
        case ShardRecordKind::kCommit: {
          const auto prepared = prepares.find(record->seq);
          ASSERT_NE(prepared, prepares.end())
              << "commit without prepare in " << path;
          MergedBatch batch;
          batch.shard = k;
          batch.seq = record->seq;
          batch.base = record->base_txn;
          batch.post = record->post_txn;
          batch.entries = std::move(prepared->second.entries);
          merged.push_back(std::move(batch));
          break;
        }
        case ShardRecordKind::kCrossPrepare:
          break;  // marker only; the home shard's prepare is authoritative
        case ShardRecordKind::kCoordCommit:
          FAIL() << "coordinator record in shard wal " << path;
      }
    }
  }
  const std::string coord_path = dir + "/" + kCoordinatorLogFile;
  if (env.Exists(coord_path)) {
    Result<WalReadResult> wal = ReadWal(env, coord_path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const std::string& payload : wal->records) {
      Result<ShardRecord> record = DecodeShardRecord(payload);
      ASSERT_TRUE(record.ok()) << record.status();
      ASSERT_EQ(record->kind, ShardRecordKind::kCoordCommit);
      ASSERT_TRUE(coordinator
                      .emplace(std::make_pair(record->shard, record->seq),
                               std::move(*record))
                      .second);
    }
  }
  // Bases are not unique: a batch whose every sentence fails consumes no
  // transaction numbers (base == post), and the next batch reuses its
  // base. No-op batches order before the advancing batch at that base.
  std::sort(merged.begin(), merged.end(),
            [](const MergedBatch& a, const MergedBatch& b) {
              return a.base != b.base ? a.base < b.base : a.post < b.post;
            });
}

/// Runs one seed on `nshards` shards; `max_batch` receives the largest
/// batch committed.
void RunShardedOracleSeed(uint64_t seed, size_t nshards,
                          uint64_t* max_batch) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(nshards));

  InMemoryEnv env;
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = 8;
  options.shards = nshards;

  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_EQ(exec.shards(), nshards);

  workload::GeneratorOptions gen_options;
  gen_options.value_range = 10;
  workload::Generator setup(seed, gen_options);
  std::vector<Relation> catalog;
  SeedCatalog(exec, setup, catalog);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<std::vector<View>> observed(kReaders);
  std::atomic<uint64_t> acked_ok{0};
  std::atomic<uint64_t> acked_err{0};
  DriveWorkload(exec, seed, gen_options, catalog, observed, acked_ok,
                acked_err);
  ASSERT_TRUE(exec.Drain().ok());
  ASSERT_TRUE(exec.healthy());

  const uint64_t total_submitted =
      static_cast<uint64_t>(2 * catalog.size()) +
      static_cast<uint64_t>(kProducers) * kSentencesPerProducer;
  EXPECT_EQ(acked_ok.load() + acked_err.load(),
            static_cast<uint64_t>(kProducers) * kSentencesPerProducer);

  ShardedExecutor::Stats stats = exec.stats();
  *max_batch = stats.max_batch;
  EXPECT_EQ(stats.commits, total_submitted);
  EXPECT_GE(stats.batches, 1u);
  ASSERT_EQ(stats.per_shard.size(), nshards);
  uint64_t shard_batches = 0;
  uint64_t shard_records = 0;
  uint64_t shard_syncs = 0;
  uint64_t cross_marks = 0;
  for (const ShardedExecutor::ShardStats& per : stats.per_shard) {
    shard_batches += per.batches;
    shard_records += per.wal.records;
    shard_syncs += per.wal.syncs;
    cross_marks += per.cross_prepares;
  }
  EXPECT_EQ(shard_batches, stats.batches);
  // Physical accounting under kAlways: every batch costs exactly one
  // prepare record, one commit record and ONE fsync on its home shard,
  // plus one durable cross-prepare marker per extra touched shard.
  EXPECT_EQ(shard_records, 2 * stats.batches + cross_marks);
  EXPECT_EQ(shard_syncs, stats.batches + cross_marks);
  // The advisory coordinator logged the whole order without ack-path
  // fsyncs (Stop() performs the final lazy sync).
  EXPECT_EQ(stats.coordinator_records, stats.batches);
  if (nshards == 1) {
    EXPECT_EQ(stats.cross_shard_batches, 0u);
    EXPECT_EQ(cross_marks, 0u);
  }

  const Database final_db = exec.Snapshot();
  exec.Stop();

  // Merge the committed order from all shard WALs + the coordinator log
  // and replay it serially.
  std::vector<MergedBatch> merged;
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> coordinator;
  MergeCommittedOrder(env, "db", nshards, merged, coordinator);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(merged.size(), stats.batches);

  SerialExecutor serial(options.durable.db);
  uint64_t replayed = 0;
  for (const MergedBatch& batch : merged) {
    SCOPED_TRACE("shard=" + std::to_string(batch.shard) +
                 " seq=" + std::to_string(batch.seq));
    // Contract 3 (sharded form): the merged order is gap-free — each
    // batch's base is exactly where the serial replay stands, so the N
    // sequence spaces reassemble into ONE strictly-increasing
    // transaction-number order.
    ASSERT_EQ(batch.base, serial.transaction_number());
    const auto coord = coordinator.find({batch.shard, batch.seq});
    ASSERT_NE(coord, coordinator.end())
        << "coordinator lost a committed batch";
    EXPECT_EQ(coord->second.base_txn, batch.base);
    EXPECT_EQ(coord->second.post_txn, batch.post);
    EXPECT_EQ(coord->second.count, batch.entries.size());
    for (const GroupEntry& entry : batch.entries) {
      if (entry.atomic) {
        (void)serial.SubmitAtomic([&](Database& db) {
          return ApplySentence(db, entry.sentence);
        });
      } else {
        (void)serial.Submit([&](Database& db) {
          return ApplySentence(db, entry.sentence);
        });
      }
      ++replayed;
    }
    ASSERT_EQ(serial.transaction_number(), batch.post);
  }
  EXPECT_EQ(replayed, total_submitted);

  // Contract 1: byte-equal databases.
  const Database replay_db = serial.Snapshot();
  EXPECT_EQ(replay_db.transaction_number(), final_db.transaction_number());
  ASSERT_EQ(EncodeDatabase(replay_db), EncodeDatabase(final_db));

  VerifyViews(replay_db, catalog, observed);
}

class ConcurrentOracleTest : public ::testing::TestWithParam<int> {};

// The single-writer pipeline: one shard, one queue, one WAL.
TEST_P(ConcurrentOracleTest, MatchesSerialReplayOfCommittedOrder) {
  const int shard = GetParam();
  const int total = OracleSeedCount();
  uint64_t largest = 0;
  for (int seed = shard; seed < total; seed += kOracleShards) {
    uint64_t max_batch = 0;
    RunShardedOracleSeed(static_cast<uint64_t>(seed), 1, &max_batch);
    if (::testing::Test::HasFatalFailure()) return;
    largest = std::max(largest, max_batch);
  }
  // With no linger, a batch is whatever queued during the previous
  // batch's sync; producer bursts must have formed at least one
  // multi-sentence batch, or batching went untested here.
  if (shard < total) {
    EXPECT_GT(largest, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentOracleTest,
                         ::testing::Range(0, kOracleShards));

class ShardedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedOracleTest, MergedOrderMatchesSerialReplay) {
  const int shard = GetParam();
  const int total = OracleSeedCount();
  for (int seed = shard; seed < total; seed += kOracleShards) {
    for (const size_t nshards : {2u, 4u}) {
      uint64_t max_batch = 0;
      RunShardedOracleSeed(static_cast<uint64_t>(seed), nshards, &max_batch);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedOracleTest,
                         ::testing::Range(0, kOracleShards));

}  // namespace
}  // namespace ttra
