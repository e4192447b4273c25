#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/salvage.h"
#include "util/random.h"

namespace ttra {
namespace {

// Fault-schedule torture oracle. Each seed derives a probabilistic fault
// plan (transient-EIO bursts, torn appends, lying fsyncs, ENOSPC), runs a
// sequential workload through the queued single-writer pipeline
// (ShardedExecutor, one shard) with retry enabled,
// then crashes, optionally deals post-crash bit rot, salvages with the
// same validators `ttra fsck` uses, and recovers. The invariants checked
// on EVERY seed:
//
//  * an acknowledged commit extends the transaction chain by exactly one
//    (gap-free), and — absent lying fsyncs and post-crash rot — survives
//    recovery (durable-or-cleanly-failed);
//  * after the first permanent failure every later submit is refused with
//    the distinct kReadOnly code while reader sessions keep answering
//    ρ(·, epoch) at their pinned epoch;
//  * `fsck --repair` turns every corrupted schedule into a successful
//    recovery, and the recovered state is some exact prefix of the
//    committed sentence sequence — never a torn or reordered one.
//
// Seed count: TTRA_FAULT_SEEDS (CI's faults job sets 200); default 25.

size_t SeedCount() {
  const char* setting = std::getenv("TTRA_FAULT_SEEDS");
  if (setting == nullptr) return 25;
  const long parsed = std::strtol(setting, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : 25;
}

Schema OneIntSchema() { return *Schema::Make({{"n", ValueType::kInt}}); }

std::vector<Command> NthSentence(int i) {
  std::vector<Tuple> rows;
  for (int k = 0; k <= i % 5; ++k) {
    rows.push_back(Tuple{Value::Int(i * 100 + k)});
  }
  std::vector<Command> sentence;
  sentence.push_back(ModifySnapshotCmd{
      "r", *SnapshotState::Make(OneIntSchema(), std::move(rows))});
  return sentence;
}

FaultPlanOptions PlanForSeed(uint64_t seed, Rng& rng) {
  FaultPlanOptions plan;
  plan.transient_error_rate = 0.25 * rng.UniformDouble();
  plan.max_transient_burst = 1 + static_cast<uint32_t>(rng.Uniform(3));
  plan.torn_append_rate = 0.15 * rng.UniformDouble();
  // Every third seed: firmware that acknowledges fsyncs it never performs.
  plan.lying_sync_rate = (seed % 3 == 0) ? 0.25 * rng.UniformDouble() : 0.0;
  // Every fourth seed: a store small enough to fill mid-run (ENOSPC).
  plan.capacity_bytes = (seed % 4 == 0) ? 2000 + rng.Uniform(6000) : 0;
  return plan;
}

/// The CLI's fsck configuration: semantic validation via rollback decoders.
SalvageOptions FsckOptions() {
  SalvageOptions options;
  options.validate_record = [](std::string_view payload) {
    return DecodeWalRecord(payload).status();
  };
  options.validate_shard_record = [](std::string_view payload) {
    return DecodeShardRecord(payload).status();
  };
  options.validate_checkpoint = [](std::string_view data) {
    return DecodeDatabase(data).status();
  };
  options.wal_record_pre_txn =
      [](std::string_view payload) -> Result<TransactionNumber> {
    auto decoded = DecodeWalRecord(payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->empty()) return CorruptionError("empty wal record");
    return decoded->front().pre_txn;
  };
  return options;
}

/// One seeded schedule. With `checkpoints` the executor also checkpoints
/// every few commits, so the fault plan strikes mid-segment-append and
/// mid-manifest-append too — the crash windows the compact salvage rules
/// exist for. Without, only Start() checkpoints, before the plan is armed.
void RunSeed(uint64_t seed, bool checkpoints) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (checkpoints ? " (checkpoints)" : ""));
  Rng rng(seed);

  // The workload and its oracle: canonical state after each prefix.
  std::vector<std::vector<Command>> sentences;
  {
    std::vector<Command> define;
    define.push_back(
        DefineRelationCmd{"r", RelationType::kRollback, OneIntSchema()});
    sentences.push_back(std::move(define));
  }
  for (int i = 0; i < 30; ++i) sentences.push_back(NthSentence(i));
  std::vector<std::string> prefix_states;
  {
    Database db{DatabaseOptions{}};
    prefix_states.push_back(EncodeDatabase(db));
    for (const auto& sentence : sentences) {
      ASSERT_TRUE(ApplySentence(db, sentence).ok());
      prefix_states.push_back(EncodeDatabase(db));
    }
  }

  FaultInjectionEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.durable.retry.max_attempts = 1 + rng.Uniform(4);  // 1..4
  options.durable.retry.initial_backoff = std::chrono::microseconds(1);
  options.durable.retry.max_backoff = std::chrono::microseconds(8);
  size_t sleeper_calls = 0;  // fake clock: no wall-clock sleeps in tests
  options.durable.retry.sleeper = [&sleeper_calls](std::chrono::microseconds) {
    ++sleeper_calls;
  };
  if (checkpoints) {
    options.durable.checkpoint_every = 4;
    options.durable.compact.keyframe_interval = 3;
  }

  ShardedExecutor exec(&env, "t", options);
  ASSERT_TRUE(exec.Start().ok());
  env.ArmPlan(seed * 0x9e3779b97f4a7c15ULL + 1, PlanForSeed(seed, rng));

  // --- Live phase: sequential submits, acked-or-cleanly-failed ----------
  size_t acked = 0;
  size_t refused = 0;
  bool failed = false;
  TransactionNumber last_txn = 0;
  for (const auto& sentence : sentences) {
    Result<TransactionNumber> result = exec.Submit(sentence);
    if (result.ok()) {
      ASSERT_FALSE(failed) << "write accepted after the executor degraded";
      ASSERT_EQ(*result, last_txn + 1) << "transaction chain has a gap";
      last_txn = *result;
      ++acked;
    } else if (!failed) {
      failed = true;
      if (checkpoints && result.status().code() == ErrorCode::kReadOnly) {
        // A periodic checkpoint failed AFTER its triggering
        // commit was acked: the executor fail-stopped between submits,
        // so the first refused sentence already sees the read-only code
        // (its message carries the checkpoint's real cause).
        ++refused;
      } else {
        // The sentence that hit the permanent fault carries the cause.
        EXPECT_TRUE(result.status().code() == ErrorCode::kIoError ||
                    result.status().code() == ErrorCode::kResourceExhausted)
            << result.status();
      }
    } else {
      // Everyone after it gets the distinct read-only refusal.
      ++refused;
      EXPECT_EQ(result.status().code(), ErrorCode::kReadOnly)
          << result.status();
    }
  }

  const auto stats = exec.stats();
  EXPECT_EQ(stats.transient_retries, sleeper_calls)
      << "every retry must go through the injected (fake) clock";
  EXPECT_LE(stats.retry_successes, stats.transient_retries);
  EXPECT_EQ(exec.degraded(), failed);

  if (failed) {
    EXPECT_FALSE(exec.degraded_reason().ok());
    // Every post-failure submit — and nothing else — got the refusal. When
    // the permanent fault lands on the very last sentence this is zero.
    EXPECT_EQ(stats.rejected_read_only, refused);
    // Degraded mode is read-only, not down: sessions opened NOW still
    // answer ρ(·, epoch) at the last published epoch.
    Session session = exec.OpenSession();
    EXPECT_EQ(session.epoch(), last_txn);
    EXPECT_EQ(EncodeDatabase(session.database()), prefix_states[acked]);
    if (acked >= 1) {
      auto rollback = session.Rollback("r", session.epoch());
      EXPECT_TRUE(rollback.ok()) << rollback.status();
      EXPECT_EQ(session.Rollback("r", session.epoch() + 1).status().code(),
                ErrorCode::kInvalidRollback);
    }
  }

  // --- Crash, rot, salvage, recover -------------------------------------
  const auto plan_stats = env.plan_stats();
  exec.Stop();
  env.Crash();

  // Odd seeds: bit rot strikes the surviving WAL body after the crash —
  // the schedule `fsck --repair` exists for.
  const std::string wal_path = "t/" + ShardWalFile(0);
  bool rotted = false;
  if (seed % 2 == 1 && env.Exists(wal_path)) {
    std::string image = *env.Read(wal_path);
    if (image.size() > 9) {
      const uint64_t at = 9 + rng.Uniform(image.size() - 9);
      image[at] ^= static_cast<char>(1u << rng.Uniform(8));
      ASSERT_TRUE(env.Truncate(wal_path).ok());
      ASSERT_TRUE(env.Append(wal_path, image).ok());
      ASSERT_TRUE(env.Sync(wal_path).ok());
      rotted = true;
    }
  }

  auto scan = ScanStorage(&env, "t", FsckOptions());
  ASSERT_TRUE(scan.ok()) << scan.status();
  if (!checkpoints) {
    ASSERT_NE(scan->verdict, SalvageVerdict::kUnrecoverable)
        << "the checkpoint is never written under the fault plan";
  } else if (scan->verdict == SalvageVerdict::kUnrecoverable) {
    // Periodic checkpoints do write covered state. Damage INSIDE it with no
    // provable WAL rebuild base is honestly unrecoverable — but only a
    // lying fsync or post-crash rot can manufacture that.
    ASSERT_TRUE(plan_stats.lying_syncs > 0 || rotted)
        << "unrecoverable verdict without lying fsyncs or rot";
    return;
  }
  if (scan->verdict == SalvageVerdict::kNeedsRepair) {
    auto repaired = RepairStorage(&env, "t", FsckOptions());
    ASSERT_TRUE(repaired.ok()) << repaired.status();
    EXPECT_TRUE(repaired->repaired);
    // The damage was either in the WAL (quarantined alongside it) or
    // inside the covered compact state (quarantined wholesale).
    EXPECT_TRUE(env.Exists(wal_path + ".quarantine") ||
                env.Exists(std::string("t/") + kCoordinatorLogFile +
                           ".quarantine") ||
                repaired->compact_state_quarantined);
  }

  // After (at most) one repair, recovery must succeed...
  ShardedOptions recovery_options;
  recovery_options.shards = 2;  // seeds a directory left without a MANIFEST
  ShardedExecutor recovered(&env, "t", recovery_options);
  ASSERT_TRUE(recovered.Start().ok());

  // ...to an exact prefix of the committed sentence sequence.
  const std::string state = EncodeDatabase(recovered.Snapshot());
  size_t matched = prefix_states.size();
  for (size_t k = prefix_states.size(); k-- > 0;) {
    if (state == prefix_states[k]) {
      matched = k;
      break;
    }
  }
  ASSERT_LT(matched, prefix_states.size())
      << "recovered state matches no prefix (torn or reordered replay)";
  EXPECT_LE(matched, acked) << "recovery invented unacknowledged commits";
  // Durable-or-cleanly-failed: unless an fsync lied or rot destroyed
  // records after the fact, every acked commit survives.
  if (plan_stats.lying_syncs == 0 && !rotted) {
    EXPECT_GE(matched, acked) << "recovery lost an acknowledged commit";
  }

  // The salvaged directory is healthy and writable again.
  auto rescan = ScanStorage(&env, "t", FsckOptions());
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->verdict, SalvageVerdict::kClean);
  // If even the define was lost, re-run it; either way new writes work.
  auto resumed = recovered.Submit(matched >= 1 ? NthSentence(99)
                                               : sentences[0]);
  EXPECT_TRUE(resumed.ok()) << resumed.status();
  recovered.Stop();
}

TEST(FaultTortureTest, SeededScheduleSweep) {
  const size_t seeds = SeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunSeed(seed, /*checkpoints=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultTortureTest, CompactStorageSeededScheduleSweep) {
  const size_t seeds = SeedCount();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunSeed(seed, /*checkpoints=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Sharded crash-point sweep
// ---------------------------------------------------------------------------
//
// Exhaustively crashes the sharded executor at EVERY counted mutating op
// of a fixed workload — which walks the one-shot fault straight through
// the cross-shard two-phase window: after the home-shard prepare, after a
// kCrossPrepare marker on the other shard, between the coordinator append
// and the home-shard commit record, and during the covering fsync. The
// invariant on every crash point: recovery re-establishes EXACTLY the
// acknowledged prefix of the sentence sequence. An in-doubt batch (any
// write of its protocol failed, so it was never acknowledged) is dropped
// atomically — never half a cross-shard sentence — and no acknowledged
// batch is ever lost (acks happen only after the covering fsync).

ShardedOptions ShardedSweepOptions() {
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.durable.retry.max_attempts = 1;  // a fault is a crash, not a blip
  options.shards = 2;
  return options;
}

/// A relation name homed on `shard` under two shards.
std::string TwoShardName(size_t shard) {
  for (int i = 0;; ++i) {
    std::string candidate = "rel" + std::to_string(i);
    if (ShardOfName(candidate, 2) == shard) return candidate;
  }
}

/// The sweep workload: two relations on distinct shards, alternating
/// single-shard sentences with cross-shard (multi-relation) ones.
std::vector<std::vector<Command>> ShardedSweepSentences() {
  const std::string a = TwoShardName(0);
  const std::string b = TwoShardName(1);
  auto modify = [](const std::string& name, int i) {
    return Command(ModifySnapshotCmd{
        name, *SnapshotState::Make(OneIntSchema(), {Tuple{Value::Int(i)}})});
  };
  std::vector<std::vector<Command>> sentences;
  sentences.push_back(
      {Command(DefineRelationCmd{a, RelationType::kRollback, OneIntSchema()})});
  sentences.push_back(
      {Command(DefineRelationCmd{b, RelationType::kRollback, OneIntSchema()})});
  for (int i = 0; i < 6; ++i) {
    sentences.push_back({modify(a, i)});
    sentences.push_back({modify(b, 100 + i)});
    sentences.push_back({modify(a, 200 + i), modify(b, 300 + i)});  // cross
  }
  return sentences;
}

TEST(ShardedCrashSweepTest, EveryCrashPointRecoversTheAckedPrefix) {
  const std::vector<std::vector<Command>> sentences = ShardedSweepSentences();
  std::vector<std::string> prefix_states;
  {
    Database db{DatabaseOptions{}};
    prefix_states.push_back(EncodeDatabase(db));
    for (const auto& sentence : sentences) {
      ASSERT_TRUE(ApplySentence(db, sentence).ok());
      prefix_states.push_back(EncodeDatabase(db));
    }
  }

  // Fault-free run sizes the sweep: ops counted from after Start() (the
  // directory bootstrap is not a crash point of the commit protocol)
  // through Stop().
  uint64_t sweep_ops = 0;
  {
    FaultInjectionEnv env;
    ShardedExecutor exec(&env, "t", ShardedSweepOptions());
    ASSERT_TRUE(exec.Start().ok());
    const uint64_t before = env.op_count();
    for (size_t i = 0; i < sentences.size(); ++i) {
      auto result = i % 3 == 2 ? exec.SubmitAtomic(sentences[i])
                               : exec.Submit(sentences[i]);
      ASSERT_TRUE(result.ok()) << result.status();
    }
    exec.Stop();
    sweep_ops = env.op_count() - before;
    ASSERT_GT(exec.stats().cross_shard_batches, 0u);
  }
  ASSERT_GT(sweep_ops, 0u);

  for (uint64_t n = 1; n <= sweep_ops; ++n) {
    SCOPED_TRACE("crash at op " + std::to_string(n));
    const auto mode = n % 2 == 0 ? FaultInjectionEnv::FaultMode::kFailOp
                                 : FaultInjectionEnv::FaultMode::kTornAppend;
    FaultInjectionEnv env;
    size_t acked = 0;
    {
      ShardedExecutor exec(&env, "t", ShardedSweepOptions());
      ASSERT_TRUE(exec.Start().ok());
      env.InjectFault(n, mode);
      bool failed = false;
      TransactionNumber last_txn = 0;
      for (size_t i = 0; i < sentences.size(); ++i) {
        auto result = i % 3 == 2 ? exec.SubmitAtomic(sentences[i])
                                 : exec.Submit(sentences[i]);
        if (result.ok()) {
          ASSERT_FALSE(failed) << "write accepted after the executor degraded";
          // Every command of the sentence consumes one transaction number.
          ASSERT_EQ(*result, last_txn + sentences[i].size())
              << "transaction chain has a gap";
          last_txn = *result;
          ++acked;
        } else if (!failed) {
          failed = true;
          EXPECT_NE(result.status().code(), ErrorCode::kReadOnly)
              << "first failure must carry the real cause: "
              << result.status();
        } else {
          EXPECT_EQ(result.status().code(), ErrorCode::kReadOnly)
              << result.status();
        }
      }
      if (failed) {
        // Degraded, not down: a fresh session still serves the acked state.
        EXPECT_TRUE(exec.degraded());
        Session session = exec.OpenSession();
        EXPECT_EQ(EncodeDatabase(session.database()), prefix_states[acked]);
      }
      exec.Stop();
    }
    env.Crash();

    // The crash leaves at worst torn (unsynced) tails; repair if the
    // sweep ever produces stranded records, then recovery must succeed.
    auto scan = ScanStorage(&env, "t", FsckOptions());
    ASSERT_TRUE(scan.ok()) << scan.status();
    ASSERT_NE(scan->verdict, SalvageVerdict::kUnrecoverable);
    if (scan->verdict == SalvageVerdict::kNeedsRepair) {
      auto repaired = RepairStorage(&env, "t", FsckOptions());
      ASSERT_TRUE(repaired.ok()) << repaired.status();
    }
    ShardedExecutor recovered(&env, "t", ShardedSweepOptions());
    ASSERT_TRUE(recovered.Start().ok());

    // Exactly the acknowledged prefix: nothing lost (acks follow the
    // covering fsync), nothing invented (an unacknowledged batch never
    // has a durable commit record), and never a torn cross-shard
    // sentence (the in-doubt batch drops atomically).
    EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), prefix_states[acked]);
    recovered.Stop();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ttra
