#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "rollback/sharded_executor.h"
#include "storage/env.h"

namespace ttra {
namespace {

// Epoch-pinning property suite: a Session opened at transaction number N
// must answer every query from exactly ρ(·, N) — never observing a later
// commit — across batch bounds, segment keyframe spacings, checkpoints,
// and executor restarts. The workload is the counter trick:
// the state committed at transaction n has a size that is a pure function
// of n, so "never observes beyond the epoch" becomes a size equation any
// thread can check without synchronizing with the writer.

Schema CounterSchema() {
  return *Schema::Make({{"id", ValueType::kInt}});
}

SnapshotState StateOfSize(size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{Value::Int(static_cast<int64_t>(i))});
  }
  return *SnapshotState::Make(CounterSchema(), std::move(rows));
}

// Size committed at transaction n (modify_state commits start at txn 2:
// txn 1 is the define). Kept non-monotonic so a read serving the wrong
// transaction is a visible size mismatch, not a plausible value.
size_t SizeAt(TransactionNumber n) { return static_cast<size_t>(n % 7); }

ShardedOptions OptionsFor(int variant) {
  ShardedOptions options;
  options.shards = 1;
  // Variants sweep the batch bound (1, 2, 4, 8) and, on odd variants, a
  // segment keyframe every 2 entries instead of 16, so the serial phase's
  // restart reloads history through mostly keyframes or mostly deltas.
  options.group_commit.max_batch = size_t{1} << ((variant / 2) % 4);
  options.durable.compact.keyframe_interval = variant % 2 == 1 ? 2 : 16;
  return options;
}

class EpochPinningTest : public ::testing::TestWithParam<int> {};

// Serial phase: sessions captured at increasing epochs stay pinned while
// the executor commits on, checkpoints (truncating the on-disk log), and
// even stops/restarts (recovery). Every stored session must keep
// answering from its own epoch.
TEST_P(EpochPinningTest, PinnedSessionsSurviveCommitsCheckpointsAndRestart) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", OptionsFor(GetParam()));
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "c", RelationType::kRollback, CounterSchema()}})
                  .ok());

  std::vector<Session> pinned;
  for (int i = 0; i < 30; ++i) {
    const TransactionNumber expect_txn = exec.transaction_number() + 1;
    Result<TransactionNumber> txn = exec.Submit(
        Command{ModifySnapshotCmd{"c", StateOfSize(SizeAt(expect_txn))}});
    ASSERT_TRUE(txn.ok()) << txn.status();
    ASSERT_EQ(*txn, expect_txn);
    if (i % 5 == 0) pinned.push_back(exec.OpenSession());
    if (i % 7 == 0) {
      ASSERT_TRUE(exec.Checkpoint().ok());
    }
    if (i == 15) {
      // Cross a full recovery: stop, restart (checkpoint + WAL replay).
      // Sessions opened before the restart hold immutable snapshots and
      // must be unaffected.
      exec.Stop();
      ASSERT_TRUE(exec.Start().ok());
    }
  }
  const TransactionNumber final_txn = exec.transaction_number();

  for (const Session& session : pinned) {
    SCOPED_TRACE("epoch=" + std::to_string(session.epoch()));
    ASSERT_LT(session.epoch(), final_txn);
    // The pinned present: current state == state at the epoch, sized by
    // the epoch — not by anything committed since.
    ASSERT_EQ(session.database().transaction_number(), session.epoch());
    Result<SnapshotState> now = session.Rollback("c");
    ASSERT_TRUE(now.ok()) << now.status();
    EXPECT_EQ(now->size(), SizeAt(session.epoch()));
    // Every historical state up to the epoch, twice: repeating a read must
    // not change the answer.
    for (int pass = 0; pass < 2; ++pass) {
      for (TransactionNumber n = 2; n <= session.epoch(); ++n) {
        Result<SnapshotState> at = session.Rollback("c", n);
        ASSERT_TRUE(at.ok()) << at.status();
        ASSERT_EQ(at->size(), SizeAt(n)) << "txn " << n << " pass " << pass;
      }
    }
    // Beyond the pin — committed by now, but after this session opened —
    // is rejected outright.
    for (TransactionNumber n = session.epoch() + 1; n <= final_txn; ++n) {
      EXPECT_FALSE(session.Rollback("c", n).ok());
    }
  }
}

// Concurrent phase: readers open sessions while the writer commits. The
// size equation must hold for every transaction a session can see, at the
// moment it is checked — no reader/writer synchronization beyond the
// executor's own publication.
TEST_P(EpochPinningTest, ConcurrentReadersNeverObserveBeyondEpoch) {
  constexpr int kReaderThreads = 4;
  constexpr int kCommits = 48;
  constexpr int kReadsPerThread = 120;

  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", OptionsFor(GetParam()));
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "c", RelationType::kRollback, CounterSchema()}})
                  .ok());
  // One committed modify_state before readers start, so txn 2 exists.
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"c", StateOfSize(SizeAt(2))}})
          .ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      TransactionNumber last_epoch = 0;
      for (int i = 0; i < kReadsPerThread; ++i) {
        Session session = exec.OpenSession();
        // Published epochs are monotone: a later session never travels
        // backwards in transaction time.
        if (session.epoch() < last_epoch) errors.fetch_add(1);
        last_epoch = session.epoch();
        // A pseudo-random committed transaction in [2, epoch].
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        const TransactionNumber txn =
            2 + (salt >> 33) % (session.epoch() - 1);
        auto at = session.Rollback("c", txn);
        if (!at.ok() || at->size() != SizeAt(txn)) errors.fetch_add(1);
        auto now = session.Rollback("c");
        if (!now.ok() || now->size() != SizeAt(session.epoch())) {
          errors.fetch_add(1);
        }
        if (session.Rollback("c", session.epoch() + 1).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }

  // The writer keeps the epoch moving while readers sample it; each
  // commit's size is the pure function of its (asserted) transaction
  // number, so reader checks stay valid at any interleaving.
  for (int i = 0; i < kCommits; ++i) {
    const TransactionNumber expect_txn = exec.transaction_number() + 1;
    Result<TransactionNumber> txn = exec.Submit(
        Command{ModifySnapshotCmd{"c", StateOfSize(SizeAt(expect_txn))}});
    ASSERT_TRUE(txn.ok()) << txn.status();
    ASSERT_EQ(*txn, expect_txn);
    if (i % 9 == 0) {
      ASSERT_TRUE(exec.Checkpoint().ok());
    }
  }

  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(exec.Drain().ok());
  ASSERT_TRUE(exec.healthy());
}

INSTANTIATE_TEST_SUITE_P(Variants, EpochPinningTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace ttra
