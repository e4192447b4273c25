#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <thread>

#include "legacy_wal.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"

namespace ttra {
namespace {

// The crash-recovery contract under SyncPolicy::kAlways, verified against
// the paper's semantics: the database is a pure function of its committed
// command sequence (C⟦·⟧), so after a crash at ANY write point, the
// recovered database must equal the oracle evaluation of some *prefix* of
// the submitted sentence sequence — and that prefix must contain every
// sentence whose submission was acknowledged before the crash. The
// executor is the single-writer pipeline: ShardedExecutor with one shard,
// driven one synchronous Submit at a time.

/// One shard around `durable`: the single-writer configuration.
ShardedOptions OneShard(const DurableOptions& durable = {}) {
  ShardedOptions options;
  options.shards = 1;
  options.durable = durable;
  return options;
}

struct Step {
  std::vector<Command> sentence;
  bool atomic = false;
};

Schema MakeSchema(std::vector<Attribute> attributes) {
  return *Schema::Make(std::move(attributes));
}

Schema EmpSchema() {
  return MakeSchema(
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

HistoricalState HistState(
    std::initializer_list<std::tuple<const char*, Chronon, Chronon>> rows) {
  std::vector<HistoricalTuple> tuples;
  for (const auto& [name, from, to] : rows) {
    tuples.push_back(HistoricalTuple{Tuple{Value::String(name)},
                                     TemporalElement::Span(from, to)});
  }
  return *HistoricalState::Make(MakeSchema({{"name", ValueType::kString}}),
                                std::move(tuples));
}

/// A workload exercising every command form, both submit modes, and —
/// deliberately — command-level failures, whose exact partial effects must
/// also survive recovery.
std::vector<Step> Workload() {
  std::vector<Step> steps;
  steps.push_back(
      {{DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()}}});
  steps.push_back({{ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})}}});
  steps.push_back({{ModifySnapshotCmd{
      "emp", EmpState({{"ed", 100}, {"amy", 200}})}}});
  // One multi-command sentence, applied atomically.
  steps.push_back(
      {{DefineRelationCmd{"hist", RelationType::kTemporal,
                          MakeSchema({{"name", ValueType::kString}})},
        ModifyHistoricalCmd{"hist", HistState({{"x", 0, 10}})}},
       /*atomic=*/true});
  // Paper sequencing with a failing command in the middle: define_relation
  // on a bound identifier fails, the rest of the sentence still applies.
  steps.push_back(
      {{ModifySnapshotCmd{"emp", EmpState({{"amy", 250}})},
        DefineRelationCmd{"emp", RelationType::kSnapshot, EmpSchema()},
        ModifyHistoricalCmd{"hist", HistState({{"x", 0, 20}})}}});
  // An atomic sentence that fails: must leave no trace, before and after
  // recovery.
  steps.push_back(
      {{ModifySnapshotCmd{"emp", EmpState({{"ghost", 1}})},
        ModifySnapshotCmd{"missing", EmpState({})}},
       /*atomic=*/true});
  steps.push_back({{ModifySchemaCmd{
      "emp", MakeSchema({{"name", ValueType::kString},
                        {"salary", ValueType::kInt},
                        {"dept", ValueType::kString}})}}});
  steps.push_back({{DeleteRelationCmd{"hist"}}});
  steps.push_back(
      {{DefineRelationCmd{"now", RelationType::kSnapshot,
                          MakeSchema({{"n", ValueType::kInt}})},
        ModifySnapshotCmd{"now",
                          *SnapshotState::Make(
                              MakeSchema({{"n", ValueType::kInt}}),
                              {Tuple{Value::Int(7)}})}}});
  return steps;
}

/// Oracle: the paper semantics applied directly to a Database, mirroring
/// the executor's two submit modes. Returns the canonical encoding of the
/// database after each prefix of the workload (index k = k steps applied).
std::vector<std::string> OraclePrefixStates(const std::vector<Step>& steps) {
  Database db;
  std::vector<std::string> states;
  states.push_back(EncodeDatabase(db));
  for (const Step& step : steps) {
    if (step.atomic) {
      Database scratch = db;
      if (ApplySentence(scratch, step.sentence).ok()) db = std::move(scratch);
    } else {
      // Non-atomic failures leave partial effects by design; the oracle
      // mirrors replay, which also drops the status.
      ApplySentence(db, step.sentence).IgnoreError();
    }
    states.push_back(EncodeDatabase(db));
  }
  return states;
}

/// A storage failure (the fault itself) or the executor's refusal after
/// it (read-only degraded mode), as opposed to a command-level error.
bool IsIoFailure(const Status& status) {
  return status.code() == ErrorCode::kIoError ||
         status.code() == ErrorCode::kUnavailable ||
         status.code() == ErrorCode::kReadOnly;
}

/// Runs the workload against a fresh FaultInjectionEnv with a fault armed
/// at op `fault_at` (0 = no fault), crashes at the first I/O failure (or
/// at the end), recovers with a brand-new executor, and checks the
/// recovered database against the oracle prefixes. `total_ops` counts
/// every op after Start(), the writer's shutdown included.
void RunCrashPoint(uint64_t fault_at, FaultInjectionEnv::FaultMode mode,
                   const DurableOptions& options,
                   const std::vector<Step>& steps,
                   const std::vector<std::string>& oracle,
                   uint64_t* total_ops = nullptr) {
  SCOPED_TRACE("fault at op " + std::to_string(fault_at) +
               (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                              : " (torn)"));
  FaultInjectionEnv env;
  auto exec = std::make_unique<ShardedExecutor>(&env, "walled-garden",
                                                OneShard(options));
  ASSERT_TRUE(exec->Start().ok());
  const uint64_t ops_at_start = env.op_count();
  if (fault_at != 0) env.InjectFault(fault_at, mode);

  // `acked` = number of leading workload steps whose submission returned a
  // non-I/O status: those sentences are durably logged (kAlways policy)
  // and MUST be reflected by recovery. Command-level errors still count as
  // acknowledged — the sentence is in the log, its (partial or null)
  // effect is deterministic.
  size_t acked = 0;
  for (const Step& step : steps) {
    Result<TransactionNumber> result =
        step.atomic ? exec->SubmitAtomic(step.sentence)
                    : exec->Submit(step.sentence);
    if (!result.ok() && IsIoFailure(result.status())) break;  // "crash"
    ++acked;
  }

  // Power loss: unsynced bytes vanish; then a new process recovers.
  exec.reset();
  if (total_ops != nullptr) *total_ops = env.op_count() - ops_at_start;
  env.Crash();
  ShardedExecutor recovered(&env, "walled-garden", OneShard(options));
  ASSERT_TRUE(recovered.Start().ok());

  // Largest matching prefix: sentences that fail (atomically or entirely)
  // leave the state unchanged, so consecutive prefixes can be identical
  // and the first match would under-count.
  const std::string state = EncodeDatabase(recovered.Snapshot());
  size_t matched = oracle.size();
  for (size_t k = oracle.size(); k-- > 0;) {
    if (state == oracle[k]) {
      matched = k;
      break;
    }
  }
  ASSERT_LT(matched, oracle.size())
      << "recovered database matches no prefix of the command sequence";
  EXPECT_GE(matched, acked)
      << "recovery lost an acknowledged commit: recovered prefix " << matched
      << " < acknowledged " << acked;

  // The recovered executor keeps working and numbers new transactions
  // strictly above everything it recovered.
  const TransactionNumber resumed = recovered.transaction_number();
  auto txn = recovered.Submit(Command(DefineRelationCmd{
      "post_recovery", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(txn.ok()) << txn.status();
  EXPECT_EQ(*txn, resumed + 1);
}

class CrashRecoveryTest
    : public ::testing::TestWithParam<FaultInjectionEnv::FaultMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, CrashRecoveryTest,
    ::testing::Values(FaultInjectionEnv::FaultMode::kFailOp,
                      FaultInjectionEnv::FaultMode::kTornAppend),
    [](const auto& info) {
      return info.param == FaultInjectionEnv::FaultMode::kFailOp
                 ? "FailOp"
                 : "TornAppend";
    });

TEST_P(CrashRecoveryTest, EveryFaultPointRecoversToAnAckedPrefix) {
  const std::vector<Step> steps = Workload();
  const std::vector<std::string> oracle = OraclePrefixStates(steps);
  DurableOptions options;  // kAlways

  // The fault-free run sizes the sweep. Faults are armed relative to the
  // op counter after Start(), so high n values run the workload to
  // completion and just re-verify clean recovery.
  uint64_t total_ops = 0;
  RunCrashPoint(0, GetParam(), options, steps, oracle, &total_ops);
  ASSERT_GT(total_ops, 0u);

  for (uint64_t n = 1; n <= total_ops; ++n) {
    RunCrashPoint(n, GetParam(), options, steps, oracle);
  }
}

TEST_P(CrashRecoveryTest, EveryFaultPointWithAutoCheckpoint) {
  const std::vector<Step> steps = Workload();
  const std::vector<std::string> oracle = OraclePrefixStates(steps);
  DurableOptions options;
  options.checkpoint_every = 2;  // exercise checkpoint + truncation faults

  uint64_t total_ops = 0;
  RunCrashPoint(0, GetParam(), options, steps, oracle, &total_ops);
  ASSERT_GT(total_ops, 0u);

  for (uint64_t n = 1; n <= total_ops; ++n) {
    RunCrashPoint(n, GetParam(), options, steps, oracle);
  }
}

TEST(CrashRecoveryTest, FaultDuringRecoveryItselfIsRetryable) {
  const std::vector<Step> steps = Workload();
  const std::vector<std::string> oracle = OraclePrefixStates(steps);

  // Populate a directory, then sweep faults over recovery's own writes
  // (checkpoint republication, WAL truncation): a failed Start must leave
  // the on-disk state recoverable by a later, fault-free Start.
  FaultInjectionEnv env;
  {
    ShardedExecutor exec(&env, "d", OneShard());
    ASSERT_TRUE(exec.Start().ok());
    for (const Step& step : steps) {
      auto r = step.atomic ? exec.SubmitAtomic(step.sentence)
                           : exec.Submit(step.sentence);
      if (!r.ok()) {
        ASSERT_FALSE(IsIoFailure(r.status())) << r.status();
      }
    }
  }
  const uint64_t ops_before = env.op_count();
  // Measure how many ops one recovery takes.
  {
    ShardedExecutor probe(&env, "d", OneShard());
    ASSERT_TRUE(probe.Start().ok());
  }
  const uint64_t recovery_ops = env.op_count() - ops_before;
  ASSERT_GT(recovery_ops, 0u);

  for (uint64_t n = 1; n <= recovery_ops; ++n) {
    SCOPED_TRACE("recovery fault at op " + std::to_string(n));
    env.InjectFault(n, FaultInjectionEnv::FaultMode::kFailOp);
    ShardedExecutor exec(&env, "d", OneShard());
    Status first = exec.Start();
    if (!first.ok()) {
      env.Crash();
      ASSERT_TRUE(exec.Start().ok()) << "retry after recovery fault failed";
    }
    EXPECT_EQ(EncodeDatabase(exec.Snapshot()), oracle.back());
  }
}

TEST(CrashRecoveryTest, RecoveryIsIdempotent) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "d", OneShard());
  ASSERT_TRUE(exec.Start().ok());
  const std::vector<Step> steps = Workload();
  for (const Step& step : steps) {
    auto r = step.atomic ? exec.SubmitAtomic(step.sentence)
                         : exec.Submit(step.sentence);
    if (!r.ok()) {
      ASSERT_FALSE(IsIoFailure(r.status())) << r.status();
    }
  }
  const std::string want = EncodeDatabase(exec.Snapshot());
  exec.Stop();
  // Recover twice in a row without any crash: state must be stable.
  for (int round = 0; round < 2; ++round) {
    ShardedExecutor again(&env, "d", OneShard());
    ASSERT_TRUE(again.Start().ok());
    EXPECT_EQ(EncodeDatabase(again.Snapshot()), want) << "round " << round;
  }
}

TEST(CrashRecoveryTest, FailedExecutorRejectsWorkUntilReopened) {
  FaultInjectionEnv env;
  ShardedExecutor exec(&env, "d", OneShard());
  ASSERT_TRUE(exec.Start().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kFailOp);
  auto failed = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
  EXPECT_FALSE(exec.healthy());
  // Read-only: even though the env works again, the executor refuses.
  auto rejected = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  EXPECT_EQ(rejected.status().code(), ErrorCode::kReadOnly);
  // Reopening re-derives state from disk and resumes service.
  exec.Stop();
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_TRUE(exec.healthy());
  EXPECT_TRUE(exec.Submit(Command(DefineRelationCmd{
                       "r", RelationType::kSnapshot, EmpSchema()}))
                  .ok());
}

// --- Transient-error retry and read-only degraded mode ---------------------

TEST(RetryTest, RetryRidesOutAOneShotWriteFault) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 3;
  options.retry.sleeper = [](std::chrono::microseconds) {};
  ShardedExecutor exec(&env, "d", OneShard(options));
  ASSERT_TRUE(exec.Start().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kFailOp);
  // Without retry this exact schedule degrades the executor (see
  // FailedExecutorRejectsWorkUntilReopened); with it the commit lands.
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(exec.healthy());
  const ShardedExecutor::Stats health = exec.stats();
  EXPECT_EQ(health.transient_retries, 1u);
  EXPECT_EQ(health.retry_successes, 1u);
  EXPECT_TRUE(health.last_write_error.ok());
  const std::string committed = EncodeDatabase(exec.Snapshot());
  exec.Stop();
  // The log is intact: recovery replays the retried commit.
  ShardedExecutor recovered(&env, "d", OneShard());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), committed);
}

TEST(RetryTest, TornAppendIsCutBackBeforeTheRetry) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 2;
  options.retry.sleeper = [](std::chrono::microseconds) {};
  ShardedExecutor exec(&env, "d", OneShard(options));
  ASSERT_TRUE(exec.Start().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kTornAppend);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(result.ok()) << result.status();
  // The torn frame must NOT be in the log: ResetTail cut it before the
  // re-append, so the file parses cleanly end to end — one prepare and
  // one commit record.
  auto wal = ReadWal(env, "d/" + ShardWalFile(0));
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal->torn_tail);
  EXPECT_EQ(wal->records.size(), 2u);
}

TEST(RetryTest, BackoffDoublesUpToTheCapOnPersistentFailure) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(100);
  options.retry.max_backoff = std::chrono::microseconds(300);
  std::vector<std::chrono::microseconds> sleeps;
  options.retry.sleeper = [&](std::chrono::microseconds d) {
    sleeps.push_back(d);
  };
  ShardedExecutor exec(&env, "d", OneShard(options));
  ASSERT_TRUE(exec.Start().ok());
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;  // a "transient" fault that never heals
  env.ArmPlan(1, plan);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kIoError);
  EXPECT_FALSE(exec.healthy());
  EXPECT_EQ(exec.stats().last_write_error.code(), ErrorCode::kIoError);
  EXPECT_EQ(sleeps, (std::vector<std::chrono::microseconds>{
                        std::chrono::microseconds(100),
                        std::chrono::microseconds(200),
                        std::chrono::microseconds(300)}));  // capped, not 400
}

TEST(RetryTest, ResourceExhaustionIsNotRetried) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 5;
  // A sleeper that fails the test if it is ever consulted: disk-full must
  // fail immediately, not burn retries that cannot succeed.
  options.retry.sleeper = [](std::chrono::microseconds) {
    FAIL() << "kResourceExhausted must not be retried";
  };
  ShardedExecutor exec(&env, "d", OneShard(options));
  ASSERT_TRUE(exec.Start().ok());
  FaultPlanOptions plan;
  plan.capacity_bytes = 1;  // store already over quota: every append fails
  env.ArmPlan(1, plan);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(exec.healthy());
  EXPECT_EQ(exec.stats().transient_retries, 0u);
}

TEST(DegradedModeTest, ReadersKeepServingWhileWritesAreRefused) {
  FaultInjectionEnv env;
  ShardedOptions options;
  options.shards = 1;
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})}})
          .ok());
  Session before = exec.OpenSession();
  const TransactionNumber epoch = before.epoch();
  ASSERT_EQ(epoch, 2u);

  // A permanent write failure flips the executor into read-only mode.
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;
  env.ArmPlan(1, plan);
  auto failing =
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"amy", 1}})}});
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.degraded_reason().code(), ErrorCode::kIoError);

  // New writes are refused with the DISTINCT read-only code — callers can
  // tell "storage is broken" from "command was wrong" and "not running".
  auto refused =
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"bob", 2}})}});
  EXPECT_EQ(refused.status().code(), ErrorCode::kReadOnly);
  EXPECT_NE(refused.status().message().find("read-only"), std::string::npos);
  EXPECT_GE(exec.stats().rejected_read_only, 1u);
  EXPECT_TRUE(exec.stats().degraded);

  // Reader sessions — both pre-existing and new — keep answering at the
  // published epoch as if nothing happened.
  auto pre = before.Rollback("emp", epoch);
  ASSERT_TRUE(pre.ok()) << pre.status();
  Session after = exec.OpenSession();
  EXPECT_EQ(after.epoch(), epoch);  // the failed write published nothing
  auto post = after.Rollback("emp");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(exec.transaction_number(), epoch);

  // The documented way out: repair the fault, Stop() + Start().
  env.DisarmPlan();
  exec.Stop();
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_FALSE(exec.degraded());
  EXPECT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"amy", 1}})}})
          .ok());
}

TEST(DegradedModeTest, QueuedSentencesAreDrainedWithReadOnly) {
  // Sentences already in flight when the writer degrades must still get
  // answers (no broken promises), with the read-only code.
  FaultInjectionEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.group_commit.max_batch = 1;  // one sentence per batch: the first
                                       // fails, the rest hit degraded mode
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;
  env.ArmPlan(1, plan);

  std::vector<std::future<Result<TransactionNumber>>> futures;
  for (int i = 0; i < 8; ++i) {
    std::vector<Command> sentence;
    sentence.push_back(ModifySnapshotCmd{"emp", EmpState({{"x", i}})});
    futures.push_back(exec.SubmitAsync(std::move(sentence)));
  }
  size_t io_failures = 0, read_only = 0;
  for (auto& f : futures) {
    const Status status = f.get().status();
    if (status.code() == ErrorCode::kIoError) ++io_failures;
    if (status.code() == ErrorCode::kReadOnly) ++read_only;
  }
  // Exactly one sentence observed the real fault; every other one was
  // cleanly refused (queue-drain or at-the-door).
  EXPECT_EQ(io_failures, 1u);
  EXPECT_EQ(read_only, 7u);
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(exec.stats().rejected_read_only, 7u);
}

TEST(CrashRecoveryTest, TornTailIsReportedByRecovery) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "d", OneShard());
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command(DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}))
                  .ok());
  exec.Stop();
  // Hand-tear the log: append garbage that a crash could have left.
  ASSERT_TRUE(env.Append("d/" + ShardWalFile(0), "torn-half-record").ok());
  ShardedExecutor recovered(&env, "d", OneShard());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.last_recovery().torn_tails, 1u);
  EXPECT_EQ(recovered.last_recovery().replayed_sentences, 1u);
  EXPECT_EQ(recovered.transaction_number(), 1u);
}

TEST(CrashRecoveryTest, SyncPolicyBatchMayLoseOnlyUnsyncedSuffix) {
  const std::vector<Step> steps = Workload();
  const std::vector<std::string> oracle = OraclePrefixStates(steps);
  DurableOptions options;
  options.sync_policy = SyncPolicy::kBatch;
  options.batch_size = 4;

  FaultInjectionEnv env;
  {
    ShardedExecutor exec(&env, "d", OneShard(options));
    ASSERT_TRUE(exec.Start().ok());
    for (const Step& step : steps) {
      auto r = step.atomic ? exec.SubmitAtomic(step.sentence)
                           : exec.Submit(step.sentence);
      if (!r.ok()) {
        ASSERT_FALSE(IsIoFailure(r.status())) << r.status();
      }
    }
    env.Crash();  // power loss with unsynced commits in flight
  }
  ShardedExecutor recovered(&env, "d", OneShard(options));
  ASSERT_TRUE(recovered.Start().ok());
  const std::string state = EncodeDatabase(recovered.Snapshot());
  // Still a consistent prefix — just not necessarily the full workload.
  bool is_prefix = false;
  for (const std::string& prefix : oracle) is_prefix |= (state == prefix);
  EXPECT_TRUE(is_prefix);
}

TEST(CrashRecoveryTest, RunsOnTheRealFilesystemToo) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/ttra_crash_posix";
  // Start from a clean directory: TempDir persists across test runs.
  ASSERT_TRUE(ResetWalDir(env, dir).ok());
  {
    ShardedExecutor exec(env, dir, OneShard());
    ASSERT_TRUE(exec.Start().ok());
    const std::vector<Step> steps = Workload();
    for (const Step& step : steps) {
      auto r = step.atomic ? exec.SubmitAtomic(step.sentence)
                           : exec.Submit(step.sentence);
      if (!r.ok()) {
        ASSERT_FALSE(IsIoFailure(r.status())) << r.status();
      }
    }
  }  // executor stopped without checkpoint: the WAL is the only truth
  ShardedExecutor recovered(env, dir, OneShard());
  ASSERT_TRUE(recovered.Start().ok());
  const std::vector<std::string> oracle = OraclePrefixStates(Workload());
  EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), oracle.back());
  EXPECT_GT(recovered.last_recovery().replayed_sentences, 0u);
}

// --- Legacy group records ------------------------------------------------
//
// Earlier builds' queued executor logged each batch as ONE kind-2 record
// of the single-writer wal.log (tests/legacy_wal.h has the format).
// Nothing writes that record any more, but ShardedExecutor::Start must
// still migrate directories holding it — and since one checksummed record
// frames the whole batch, the migration must land on a prefix of WHOLE
// batches.

/// Encodes `steps` as legacy kind-2 records of `batch_size` sentences,
/// numbering each entry by replaying the steps on a scratch database.
std::vector<std::string> LegacyGroupRecords(const std::vector<Step>& steps,
                                            size_t batch_size) {
  Database db;
  std::vector<std::string> records;
  for (size_t i = 0; i < steps.size(); i += batch_size) {
    const size_t end = std::min(i + batch_size, steps.size());
    std::vector<LoggedSentence> entries;
    for (size_t j = i; j < end; ++j) {
      entries.push_back(
          LogLegacySentence(db, steps[j].sentence, steps[j].atomic));
    }
    records.push_back(EncodeLegacyGroupRecord(entries));
  }
  return records;
}

/// Prefix indices (into OraclePrefixStates output) that fall on batch
/// boundaries: 0 steps, batch_size steps, 2*batch_size steps, ...
std::vector<size_t> BatchBoundaries(size_t total_steps, size_t batch_size) {
  std::vector<size_t> boundaries;
  for (size_t k = 0; k <= total_steps; k += batch_size) boundaries.push_back(k);
  if (boundaries.back() != total_steps) boundaries.push_back(total_steps);
  return boundaries;
}

/// Appends and syncs the legacy records one by one with a fault armed at
/// op `fault_at` (0 = none), stopping at the first failure; then crashes
/// and migrates the directory through ShardedExecutor::Start.
void RunLegacyGroupCrashPoint(uint64_t fault_at,
                              FaultInjectionEnv::FaultMode mode,
                              const std::vector<std::string>& records,
                              const std::vector<std::string>& oracle,
                              const std::vector<size_t>& boundaries,
                              uint64_t* total_ops = nullptr) {
  SCOPED_TRACE("legacy group fault at op " + std::to_string(fault_at) +
               (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                              : " (torn)"));
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("g").ok());
  WalWriter wal(&env, std::string("g/") + kLegacyWalFile);
  ASSERT_TRUE(wal.Create().ok());
  if (fault_at != 0) env.InjectFault(fault_at, mode);
  size_t synced_batches = 0;
  for (const std::string& record : records) {
    if (!wal.AddRecord(record).ok() || !wal.Sync().ok()) break;  // "crash"
    ++synced_batches;
  }
  if (total_ops != nullptr) *total_ops = env.op_count();
  env.InjectFault(0, mode);
  env.Crash();

  ShardedExecutor recovered(&env, "g", OneShard());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_FALSE(env.Exists(std::string("g/") + kLegacyWalFile));
  // The recovered state must sit on a batch boundary — matching a
  // mid-batch prefix whose state differs from every boundary state would
  // mean a torn batch was half-replayed.
  const std::string state = EncodeDatabase(recovered.Snapshot());
  size_t matched = boundaries.size();
  for (size_t b = boundaries.size(); b-- > 0;) {
    if (state == oracle[boundaries[b]]) {
      matched = b;
      break;
    }
  }
  ASSERT_LT(matched, boundaries.size())
      << "recovered database is not a whole-batch prefix (torn batch?)";
  EXPECT_GE(matched, synced_batches)
      << "recovery lost a durable group record";

  const TransactionNumber resumed = recovered.transaction_number();
  auto txn = recovered.Submit(Command(DefineRelationCmd{
      "post_recovery", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(txn.ok()) << txn.status();
  EXPECT_EQ(*txn, resumed + 1);
}

TEST_P(CrashRecoveryTest, EveryGroupFaultPointRecoversWholeBatches) {
  const std::vector<Step> steps = Workload();
  const std::vector<std::string> oracle = OraclePrefixStates(steps);
  constexpr size_t kBatchSize = 3;
  const auto records = LegacyGroupRecords(steps, kBatchSize);
  const auto boundaries = BatchBoundaries(steps.size(), kBatchSize);

  uint64_t total_ops = 0;
  RunLegacyGroupCrashPoint(0, GetParam(), records, oracle, boundaries,
                           &total_ops);
  ASSERT_GT(total_ops, 0u);
  for (uint64_t n = 1; n <= total_ops; ++n) {
    RunLegacyGroupCrashPoint(n, GetParam(), records, oracle, boundaries);
  }
}

/// Writes `records` as the whole, synced legacy wal.log of directory "g".
void WriteLegacyLog(Env& env, const std::vector<std::string>& records) {
  ASSERT_TRUE(env.CreateDir("g").ok());
  WalWriter wal(&env, std::string("g/") + kLegacyWalFile);
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.AddRecords(records).ok());
  ASSERT_TRUE(wal.Sync().ok());
}

/// A clean legacy log, then a fault at op `fault_at` of its migration —
/// Start() replays the group records, writes the MANIFEST and the covering
/// checkpoint, and removes wal.log — and of one auto-checkpointed commit
/// after it. Crash; a fault-free reopen must hold every batch, plus the
/// commit if it was acknowledged.
void RunLegacyRecoveryFaultPoint(uint64_t fault_at,
                                 FaultInjectionEnv::FaultMode mode,
                                 const std::vector<std::string>& records,
                                 const Database& replayed,
                                 uint64_t* total_ops = nullptr) {
  SCOPED_TRACE("legacy recovery fault at op " + std::to_string(fault_at) +
               (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                              : " (torn)"));
  const Command post(
      DefineRelationCmd{"post", RelationType::kSnapshot, EmpSchema()});
  Database with_post = replayed;
  ASSERT_TRUE(ApplySentence(with_post, {post}).ok());

  FaultInjectionEnv env;
  WriteLegacyLog(env, records);
  DurableOptions options;
  options.checkpoint_every = 1;
  const uint64_t ops_before = env.op_count();
  if (fault_at != 0) env.InjectFault(fault_at, mode);
  bool post_acked = false;
  {
    ShardedExecutor exec(&env, "g", OneShard(options));
    if (exec.Start().ok()) post_acked = exec.Submit(post).ok();
  }
  if (total_ops != nullptr) *total_ops = env.op_count() - ops_before;
  env.InjectFault(0, mode);
  env.Crash();

  ShardedExecutor recovered(&env, "g", OneShard(options));
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_FALSE(env.Exists(std::string("g/") + kLegacyWalFile));
  const std::string state = EncodeDatabase(recovered.Snapshot());
  if (state != EncodeDatabase(with_post)) {
    ASSERT_EQ(state, EncodeDatabase(replayed))
        << "recovery lost or tore a durable group record";
    EXPECT_FALSE(post_acked) << "recovery lost an acknowledged commit";
  }
}

TEST_P(CrashRecoveryTest, EveryGroupFaultPointWithAutoCheckpoint) {
  const std::vector<Step> steps = Workload();
  const auto records = LegacyGroupRecords(steps, /*batch_size=*/3);
  InMemoryEnv clean;
  WriteLegacyLog(clean, records);
  ShardedExecutor replay(&clean, "g", OneShard());
  ASSERT_TRUE(replay.Start().ok());
  const Database replayed = replay.Snapshot();
  ASSERT_EQ(EncodeDatabase(replayed), OraclePrefixStates(steps).back());

  uint64_t total_ops = 0;
  RunLegacyRecoveryFaultPoint(0, GetParam(), records, replayed, &total_ops);
  ASSERT_GT(total_ops, 0u);
  for (uint64_t n = 1; n <= total_ops; ++n) {
    RunLegacyRecoveryFaultPoint(n, GetParam(), records, replayed);
  }
}

// Crash under full concurrency: producers race the single-writer
// group-commit pipeline (ShardedExecutor, one shard) when the I/O fault
// fires. Whatever survives on disk, recovery must equal a by-hand replay
// of the surviving checkpoint + shard WAL — the same differential the
// concurrency oracle applies to crash-free runs.
TEST(GroupCommitCrashTest, ConcurrentCrashRecoversToWalReplay) {
  Schema schema = MakeSchema({{"n", ValueType::kInt}});
  auto state_of = [&](int64_t v, size_t n) {
    std::vector<Tuple> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Tuple{Value::Int(v + static_cast<int64_t>(i))});
    }
    return *SnapshotState::Make(schema, std::move(rows));
  };

  for (uint64_t fault_at = 1; fault_at <= 40; ++fault_at) {
    SCOPED_TRACE("fault at op " + std::to_string(fault_at));
    FaultInjectionEnv env;
    ShardedOptions options;
    options.shards = 1;
    options.group_commit.max_batch = 4;
    {
      ShardedExecutor exec(&env, "c", options);
      ASSERT_TRUE(exec.Start().ok());
      ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                          "r", RelationType::kRollback, schema}})
                      .ok());
      env.InjectFault(fault_at, FaultInjectionEnv::FaultMode::kFailOp);

      std::vector<std::thread> producers;
      for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p]() {
          std::vector<std::future<Result<TransactionNumber>>> burst;
          for (int i = 0; i < 8; ++i) {
            std::vector<Command> sentence;
            sentence.push_back(ModifySnapshotCmd{
                "r", state_of(p * 100 + i, static_cast<size_t>(i % 4))});
            burst.push_back(exec.SubmitAsync(std::move(sentence)));
          }
          // I/O failures after the fault fires are expected; losing
          // those unacknowledged sentences is the contract.
          for (auto& future : burst) (void)future.get();
        });
      }
      for (auto& t : producers) t.join();
      exec.Stop();
    }
    env.InjectFault(0, FaultInjectionEnv::FaultMode::kFailOp);
    env.Crash();

    // By-hand recovery oracle: checkpoint, then every batch of the shard
    // WAL whose prepare and commit records both survived, in commit order,
    // up to the first gap.
    CompactStore checkpoint(&env, "c");
    auto loaded = checkpoint.Load(DatabaseOptions{});
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    Database oracle_db = *std::move(loaded);
    const std::string wal_path = "c/" + ShardWalFile(0);
    if (env.Exists(wal_path)) {
      auto wal = ReadWal(env, wal_path);
      ASSERT_TRUE(wal.ok()) << wal.status();
      std::map<uint64_t, std::vector<GroupEntry>> prepared;
      for (const std::string& payload : wal->records) {
        auto record = DecodeShardRecord(payload);
        ASSERT_TRUE(record.ok()) << record.status();
        if (record->kind == ShardRecordKind::kPrepare) {
          prepared[record->seq] = std::move(record->entries);
          continue;
        }
        ASSERT_EQ(record->kind, ShardRecordKind::kCommit);
        if (record->base_txn < oracle_db.transaction_number()) continue;
        if (record->base_txn > oracle_db.transaction_number()) break;
        const auto batch = prepared.find(record->seq);
        ASSERT_NE(batch, prepared.end()) << "commit without prepare";
        for (const GroupEntry& entry : batch->second) {
          if (entry.atomic) {
            Database scratch = oracle_db;
            if (ApplySentence(scratch, entry.sentence).ok()) {
              oracle_db = std::move(scratch);
            }
          } else {
            // Mirrors replay: a non-atomic status was decided at commit
            // time and is dropped here too.
            ApplySentence(oracle_db, entry.sentence).IgnoreError();
          }
        }
        ASSERT_EQ(oracle_db.transaction_number(), record->post_txn);
      }
    }

    ShardedExecutor recovered(&env, "c", options);
    ASSERT_TRUE(recovered.Start().ok());
    EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), EncodeDatabase(oracle_db));
    recovered.Stop();
  }
}

}  // namespace
}  // namespace ttra
