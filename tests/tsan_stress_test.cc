// Multi-threaded stress tests for the documented concurrency contracts:
//
//  * FindStateCache, the compact store's probe cache, is thread-safe on
//    its own (probes of one relation run concurrently);
//  * SerialExecutor serializes writers and runs readers concurrently, so
//    StateLog::StateAt races only against other readers, never against
//    Append;
//  * states are copy-on-write — Snapshot() and Database copies hand
//    immutable reps to other threads, which evaluate operators on them
//    concurrently;
//  * tuple payloads are immutable and shared by reference count, so
//    threads copy and drop the same tuples concurrently;
//  * Database versions are persistent — readers FINDSTATE on old pinned
//    versions while the writer appends to newer ones across chunk
//    boundaries of the shared state logs.
//
// The assertions are deliberately light: these tests earn their keep under
// ThreadSanitizer (cmake -DTTRA_SANITIZE=thread; tools/check.sh --tsan),
// where any data race in the cache, the state logs, or the shared-rep
// refcounting is a hard failure. They still run (fast) unsanitized.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "lang/evaluator.h"
#include "lang/parser.h"
#include "rollback/compact_store.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "snapshot/operators.h"
#include "storage/env.h"
#include "storage/state_log.h"

namespace ttra {
namespace {

constexpr int kReaderThreads = 4;
constexpr int kWriterCommits = 64;

Schema StressSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

SnapshotState StateOfSize(size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{Value::Int(static_cast<int64_t>(i)),
                         Value::Int(static_cast<int64_t>(i * i))});
  }
  return *SnapshotState::Make(StressSchema(), std::move(rows));
}

TEST(TsanStressTest, FindStateCacheConcurrentProbesAndFills) {
  const FindStateCache<SnapshotState> cache(/*capacity=*/4);
  auto shared = std::make_shared<const SnapshotState>(StateOfSize(3));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads + 1);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&cache, &shared, &mismatches, t] {
      for (int i = 0; i < 500; ++i) {
        const size_t index = static_cast<size_t>((t * 31 + i) % 8);
        cache.Put(index, shared);
        if (auto hit = cache.Get(index); hit && hit->size() != 3) {
          mismatches.fetch_add(1);
        }
        if (auto floor = cache.Floor(index);
            floor && floor->second->size() != 3) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // One thread keeps copying the cache while the others fill it.
  threads.emplace_back([&cache, &mismatches] {
    for (int i = 0; i < 500; ++i) {
      const FindStateCache<SnapshotState> copy(cache);
      if (auto floor = copy.Floor(7); floor && floor->second->size() != 3) {
        mismatches.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Tuple payloads are shared by reference count. Every thread copies the
/// same pinned tuples (concurrent increments on one payload) and drops its
/// copies (concurrent decrements); each round's hand-off copies outlive
/// the main thread's, so the block is freed on whichever worker drops the
/// last reference. Under TSan a missing acquire on that last drop, or a
/// read of a freed payload, is a hard failure.
TEST(TsanStressTest, SharedTuplePayloadsCopiedAndDroppedAcrossThreads) {
  std::atomic<int> mismatches{0};
  for (int round = 0; round < 40; ++round) {
    std::vector<Tuple> pinned;
    for (int i = 0; i < 16; ++i) {
      // Strings long enough to live on the heap, so a use after free of
      // the payload touches freed memory twice over.
      pinned.push_back(Tuple{Value::Int(round),
                             Value::String("payload-" + std::to_string(i) +
                                           "-of-a-heap-allocated-string")});
    }
    std::vector<Tuple> handoff;
    for (int i = 0; i < 16; ++i) {
      handoff.push_back(Tuple{Value::Int(round), Value::Int(i)});
    }
    std::vector<std::thread> threads;
    threads.reserve(kReaderThreads);
    for (int t = 0; t < kReaderThreads; ++t) {
      threads.emplace_back([&pinned, &mismatches, mine = handoff, round] {
        for (int i = 0; i < 100; ++i) {
          std::vector<Tuple> local = pinned;
          for (size_t j = 0; j < local.size(); ++j) {
            if (local[j].values().data() != pinned[j].values().data() ||
                local[j].at(0).AsInt() != round) {
              mismatches.fetch_add(1);
            }
          }
          Tuple moved = std::move(local.back());
          local.pop_back();
          if (moved != pinned.back()) mismatches.fetch_add(1);
        }
        for (const Tuple& t : mine) {
          if (t.at(0).AsInt() != round) mismatches.fetch_add(1);
        }
      });
    }
    handoff.clear();
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

/// One serialized writer appends states while readers FINDSTATE historical
/// states of the full-copy log, which hands out its shared entries.
TEST(TsanStressTest, StateLogReadersVsWriterFullCopy) {
  SerialExecutor exec;
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    return db.DefineRelation("r", RelationType::kRollback,
                                             StressSchema());
                  })
                  .ok());

  // First commit lands before the readers start, so every probe has a
  // committed modify_state to aim at. Each reader then performs a FIXED
  // number of probes (rather than spinning until the writer finishes):
  // the shared_mutex has no fairness guarantee, and spinning readers can
  // otherwise starve the writer forever.
  ASSERT_TRUE(
      exec.Submit([](Database& db) { return db.ModifyState("r", StateOfSize(1)); })
          .ok());

  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&exec, &reader_errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        const TransactionNumber now = exec.transaction_number();
        // Pseudo-random committed transaction in [2, now]: modify_state
        // commits start at txn 2, and commit c leaves c tuples... so the
        // state as of txn has txn - 1 tuples.
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        const TransactionNumber txn = 2 + (salt >> 33) % (now - 1);
        auto state = exec.Rollback("r", txn);
        if (!state.ok() || state->size() != txn - 1) {
          reader_errors.fetch_add(1);
        }
      }
    });
  }

  for (int commit = 2; commit <= kWriterCommits; ++commit) {
    ASSERT_TRUE(exec.Submit([commit](Database& db) {
                      return db.ModifyState(
                          "r", StateOfSize(static_cast<size_t>(commit)));
                    })
                    .ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(kWriterCommits + 1));
}

/// Persistent versions: the writer publishes a copy of its database after
/// every commit (O(#relations), sharing the state logs) and appends on,
/// across several chunk boundaries, while readers pin published versions
/// — keeping some for a while — and FINDSTATE on them. Every pinned
/// version must keep answering exactly as when it was published.
TEST(TsanStressTest, PinnedVersionsVsWriterAcrossChunksFullCopy) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("r", RelationType::kRollback, StressSchema()).ok());
  ASSERT_TRUE(db.ModifyState("r", StateOfSize(1)).ok());
  Mutex mutex;
  std::shared_ptr<const Database> published =
      std::make_shared<const Database>(db);
  const int commits = static_cast<int>(3 * kStateLogChunkSize) + 5;

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      std::vector<std::shared_ptr<const Database>> pinned;
      for (int i = 0; i < 400 || !done.load(); ++i) {
        std::shared_ptr<const Database> version;
        {
          MutexLock lock(mutex);
          version = published;
        }
        if (pinned.size() < 4) {
          pinned.push_back(version);
        } else {
          pinned[static_cast<size_t>(i) % pinned.size()] = version;
        }
        for (const auto& old : pinned) {
          // modify_state commit c (txn c + 1) leaves c tuples, so the
          // state as of txn has txn - 1 tuples, up to the version's end.
          const TransactionNumber now = old->transaction_number();
          salt = salt * 6364136223846793005u + 1442695040888963407u;
          const TransactionNumber txn = 2 + (salt >> 33) % (now - 1);
          auto state = old->Rollback("r", txn);
          if (!state.ok() || state->size() != txn - 1 ||
              old->Find("r")->history_length() != now - 1) {
            reader_errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (int commit = 2; commit <= commits; ++commit) {
    ASSERT_TRUE(
        db.ModifyState("r", StateOfSize(static_cast<size_t>(commit))).ok());
    auto next = std::make_shared<const Database>(db);
    MutexLock lock(mutex);
    published = std::move(next);
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(db.Find("r")->history_length(), static_cast<size_t>(commits));
}

TEST(TsanStressTest, CowStatesSharedAcrossThreads) {
  SerialExecutor exec;
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    TTRA_RETURN_IF_ERROR(db.DefineRelation(
                        "r", RelationType::kRollback, StressSchema()));
                    return db.ModifyState("r", StateOfSize(32));
                  })
                  .ok());
  // Every thread gets its own Database copy, but all copies share the same
  // immutable state reps; operator evaluation touches them concurrently.
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([db = exec.Snapshot(), &errors] {
      for (int i = 0; i < 100; ++i) {
        auto state = db.Rollback("r");
        if (!state.ok()) {
          errors.fetch_add(1);
          continue;
        }
        auto doubled = snapshot_ops::Union(*state, *state);
        auto projected = snapshot_ops::Project(*state, {"id"});
        if (!doubled.ok() || doubled->size() != 32 || !projected.ok() ||
            projected->size() != 32) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(TsanStressTest, LanguageEvalOnSharedSnapshots) {
  SerialExecutor exec;
  ASSERT_TRUE(exec.Submit([](Database& db) {
                    return lang::Run(R"(
      define_relation(emp, rollback, (name: string, salary: int));
      modify_state(emp, (name: string, salary: int)
                        {("ed", 100), ("amy", 120), ("bob", 90)});
    )",
                                     db);
                  })
                  .ok());
  auto program = lang::ParseProgram(
      "show(project[name](select[salary > 95](rho(emp, inf))))");
  ASSERT_TRUE(program.ok());
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &program, &errors] {
      for (int i = 0; i < 100; ++i) {
        // Readers share the executor (shared lock) AND the parsed AST,
        // whose nodes are shared_ptr-counted across threads.
        Status status = exec.Read([&](const Database& db) {
          std::vector<lang::StateValue> outputs;
          Database view = db;  // copies share relations and history
          TTRA_RETURN_IF_ERROR(
              lang::ExecProgram(*program, view, &outputs));
          if (outputs.size() != 1 ||
              std::get<SnapshotState>(outputs[0]).size() != 2) {
            return InternalError("wrong query result");
          }
          return Status::Ok();
        });
        if (!status.ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

/// The single-writer queued pipeline (ShardedExecutor, one shard) under
/// TSan: producer threads race each other and the group-commit writer
/// thread for the lead of the shard's batches, readers open pinned
/// sessions while snapshots are republished, and a checkpointer competes
/// for the checkpoint gate. All waiting is condvar-based (the shard's
/// queue, Drain, deferred futures) — no sleeps, fixed iteration counts —
/// so the test is deterministic in coverage and cheap unsanitized.
TEST(TsanStressTest, SingleShardProducersReadersCheckpointer) {
  constexpr int kProducerThreads = 2;
  constexpr int kCommitsPerProducer = 32;

  InMemoryEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.group_commit.max_batch = 8;
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "r", RelationType::kRollback, StressSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"r", StateOfSize(1)}}).ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducerThreads + kReaderThreads + 1);
  for (int p = 0; p < kProducerThreads; ++p) {
    threads.emplace_back([&exec, &errors, p] {
      for (int i = 0; i < kCommitsPerProducer; ++i) {
        std::vector<Command> sentence;
        sentence.push_back(ModifySnapshotCmd{
            "r", StateOfSize(static_cast<size_t>((p + i) % 5))});
        auto txn = exec.SubmitAsync(std::move(sentence)).get();
        if (!txn.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        Session session = exec.OpenSession();
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        // Any committed modify_state (txn >= 2) up to the pin must
        // answer; beyond the pin must not.
        const TransactionNumber txn =
            2 + (salt >> 33) % (session.epoch() - 1);
        auto state = session.Rollback("r", txn);
        if (!state.ok() || state->size() >= 5) errors.fetch_add(1);
        if (session.Rollback("r", session.epoch() + 1).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Checkpointer: quiesces the writer and truncates the WAL while
  // producers keep enqueuing and readers hold pinned snapshots.
  threads.emplace_back([&exec, &errors] {
    for (int i = 0; i < 8; ++i) {
      if (!exec.Checkpoint().ok()) errors.fetch_add(1);
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(exec.healthy());
  // Every modify_state succeeds and bumps the transaction number by one:
  // define + seed + all produced commits, in SOME serial order.
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(
                2 + kProducerThreads * kCommitsPerProducer));
  ShardedExecutor::Stats stats = exec.stats();
  EXPECT_EQ(stats.commits,
            static_cast<uint64_t>(2 + kProducerThreads * kCommitsPerProducer));
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_LE(stats.per_shard[0].wal.syncs, stats.per_shard[0].wal.records);
  exec.Stop();
}

/// Caller-led commits under TSan on `shards` shards: synchronous
/// submitters lead their own batches, an async window waits on deferred
/// futures (leading whenever it finds its sentence queued on an idle
/// shard) while the writers take what nobody waits for, a checkpointer
/// takes the gate exclusively, and Stop() runs while the last window's
/// futures are still being waited on by another thread.
void CallerLedStress(size_t shards) {
  constexpr int kSyncCommits = 32;
  constexpr int kWindows = 4;
  constexpr int kWindow = 8;

  InMemoryEnv env;
  ShardedOptions options;
  options.shards = shards;
  options.group_commit.max_batch = 4;
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  // One relation homed on each shard.
  std::vector<std::string> names;
  for (size_t k = 0; k < shards; ++k) {
    for (int i = 0;; ++i) {
      std::string name = "r" + std::to_string(i);
      if (ShardOfName(name, shards) != k) continue;
      names.push_back(name);
      break;
    }
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        names.back(), RelationType::kRollback,
                        StressSchema()}})
                    .ok());
  }
  auto modify = [&names](int i) {
    std::vector<Command> sentence;
    sentence.push_back(ModifySnapshotCmd{
        names[static_cast<size_t>(i) % names.size()],
        StateOfSize(static_cast<size_t>(i) % 5)});
    return sentence;
  };

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kSyncCommits; ++i) {
      const bool ok = i % 4 == 3 ? exec.SubmitAtomic(modify(i)).ok()
                                 : exec.Submit(modify(i)).ok();
      if (!ok) errors.fetch_add(1);
    }
  });
  threads.emplace_back([&] {
    for (int w = 0; w < kWindows; ++w) {
      std::vector<std::future<Result<TransactionNumber>>> window;
      for (int i = 0; i < kWindow; ++i) {
        window.push_back(exec.SubmitAsync(modify(w * kWindow + i + 1)));
      }
      for (auto& future : window) {
        if (!future.get().ok()) errors.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 4; ++i) {
      if (!exec.Checkpoint().ok()) errors.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();

  // The last window: a waiter thread gets its answers while this thread
  // stops the executor, so Stop() must wait for a caller-led batch.
  std::vector<std::future<Result<TransactionNumber>>> last;
  for (int i = 0; i < kWindow; ++i) last.push_back(exec.SubmitAsync(modify(i)));
  std::thread waiter([&] {
    for (auto& future : last) {
      if (!future.get().ok()) errors.fetch_add(1);
    }
  });
  exec.Stop();
  waiter.join();
  EXPECT_EQ(errors.load(), 0);
  // Every modify_state succeeds and advances the transaction number once.
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(shards + kSyncCommits +
                                           kWindows * kWindow + kWindow));
}

TEST(TsanStressTest, CallerLedCommitsOneShard) { CallerLedStress(1); }

TEST(TsanStressTest, CallerLedCommitsTwoShards) { CallerLedStress(2); }

// PosixEnv under concurrent use of the same and of different files: each
// appender appends and syncs its own file while another thread syncs every
// file, a cutter truncates the appenders' files under them, and a reader
// reads them. Sync flushes a dup'd descriptor outside the Env's lock, so a
// concurrent Truncate (which closes the cached descriptor) must neither
// race nor make the flush fail. One pre-zeroed log (`*.wal`) and one plain
// file: both write paths are covered.
TEST(TsanStressTest, PosixEnvSyncTruncateAppendAcrossFiles) {
  const std::string dir = ::testing::TempDir() + "/ttra_tsan_posix_env";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::string> paths = {dir + "/shard-0.wal",
                                          dir + "/plain.log"};
  PosixEnv env;
  for (const std::string& path : paths) ASSERT_TRUE(env.Truncate(path).ok());
  std::atomic<int> errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (const std::string& path : paths) {
    threads.emplace_back([&env, &errors, path] {
      for (int i = 0; i < 300; ++i) {
        if (!env.Append(path, std::string(64, 'a' + i % 26)).ok() ||
            !env.Sync(path).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&env, &errors, &done, &paths] {
    while (!done.load()) {
      for (const std::string& path : paths) {
        if (!env.Sync(path).ok()) errors.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&env, &errors, &done, &paths] {
    for (int i = 0; !done.load(); ++i) {
      const std::string& path = paths[i % paths.size()];
      if (i % 64 == 0) {
        if (!env.Truncate(path).ok()) errors.fetch_add(1);
      } else if (i % 16 == 0) {
        // May lose to an append that has not landed yet: refused, not torn.
        const Status cut = env.TruncateTo(path, 0);
        if (!cut.ok() && cut.code() != ErrorCode::kInvalidArgument) {
          errors.fetch_add(1);
        }
      }
      if (!env.Read(path).ok()) errors.fetch_add(1);
    }
  });
  for (size_t t = 0; t < paths.size(); ++t) threads[t].join();
  done.store(true);
  for (size_t t = paths.size(); t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(errors.load(), 0);

  // Quiesced, each file reads back exactly what was appended after a cut,
  // from this Env and from a fresh one.
  for (const std::string& path : paths) {
    ASSERT_TRUE(env.Truncate(path).ok());
    ASSERT_TRUE(env.Append(path, "header").ok());
    ASSERT_TRUE(env.Append(path, "-record").ok());
    ASSERT_TRUE(env.Sync(path).ok());
    EXPECT_EQ(*env.Read(path), "header-record") << path;
    const std::string on_disk = *PosixEnv().Read(path);
    EXPECT_EQ(on_disk.substr(0, 13), "header-record") << path;
    EXPECT_EQ(on_disk.find_first_not_of('\0', 13), std::string::npos) << path;
  }
  std::filesystem::remove_all(dir);
}

// Online storage compaction (DESIGN.md §16) under maximal interleaving:
// producers group-committing, readers pinned at arbitrary epochs, on-disk
// probes racing the generation swap, and a compactor rewriting every
// segment — the TSan-sized sibling of vacuum_test's
// OnlineCompactionTest. The probe path copies its entry under the store
// mutex and never holds it across IO, so TSan sees the full handoff.
TEST(TsanStressTest, OnlineCompactionVsProducersReadersAndProbes) {
  constexpr int kProducerThreads = 2;
  constexpr int kCommitsPerProducer = 32;

  InMemoryEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.durable.compact.keyframe_interval = 4;
  options.durable.checkpoint_every = 8;
  options.group_commit.max_batch = 8;
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      "r", RelationType::kRollback, StressSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"r", StateOfSize(1)}}).ok());
  ASSERT_TRUE(exec.Checkpoint().ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducerThreads + kReaderThreads + 2);
  for (int p = 0; p < kProducerThreads; ++p) {
    threads.emplace_back([&exec, &errors, p] {
      for (int i = 0; i < kCommitsPerProducer; ++i) {
        std::vector<Command> sentence;
        sentence.push_back(ModifySnapshotCmd{
            "r", StateOfSize(static_cast<size_t>((p + i) % 5))});
        auto txn = exec.SubmitAsync(std::move(sentence)).get();
        if (!txn.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&exec, &errors, t] {
      uint64_t salt = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 200; ++i) {
        Session session = exec.OpenSession();
        salt = salt * 6364136223846793005u + 1442695040888963407u;
        const TransactionNumber txn =
            2 + (salt >> 33) % (session.epoch() - 1);
        auto state = session.Rollback("r", txn);
        if (!state.ok() || state->size() >= 5) errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&exec, &errors] {
    CompactStore* store = exec.compact_store();
    uint64_t salt = 99;
    for (int i = 0; i < 400; ++i) {
      const TransactionNumber covered = store->checkpoint_txn();
      if (covered < 2) continue;
      salt = salt * 6364136223846793005u + 1442695040888963407u;
      auto probed =
          store->ProbeSnapshot("r", 2 + (salt >> 33) % (covered - 1));
      if (!probed.ok()) errors.fetch_add(1);
    }
  });
  threads.emplace_back([&exec, &errors] {
    for (int i = 0; i < 8; ++i) {
      if (!exec.CompactStorage().ok()) errors.fetch_add(1);
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(exec.healthy());
  EXPECT_EQ(exec.transaction_number(),
            static_cast<TransactionNumber>(
                2 + kProducerThreads * kCommitsPerProducer));
  EXPECT_GE(exec.compact_store()->stats().compactions, 8u);
  exec.Stop();
}

}  // namespace
}  // namespace ttra
