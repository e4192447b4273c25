// Experiment E11: the price of durability. The paper's semantics make the
// committed command sequence the database (C⟦·⟧), so crash safety reduces
// to making that sequence durable before acknowledging each commit. This
// measures single-client commit throughput — one synchronous Submit at a
// time through ShardedExecutor with one shard, which the client commits
// on its own thread because the log is idle (E21) — under the three sync
// policies — always (sync per commit), batch (bounded loss window), never
// (checkpoint-only durability) — plus the raw WAL append/sync floor.
//
// Scratch files go to the system temporary directory (TMPDIR, else /tmp).

#include <benchmark/benchmark.h>

#include <filesystem>

#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "workload/generator.h"

namespace ttra {
namespace {

constexpr size_t kTuplesPerState = 32;

Command NextCommand(workload::Generator& gen, const Schema& schema) {
  return ModifySnapshotCmd{"emp", gen.RandomState(schema, kTuplesPerState)};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Raw floor: append-and-fsync a WAL record with no executor on top. The
// payload size matches a typical encoded modify_state command.
void BM_WalAppendSync(benchmark::State& state) {
  Env* env = Env::Default();
  const std::string path = TempPath("ttra_bench_wal.log");
  WalWriter writer(env, path);
  if (!writer.Create().ok()) {
    state.SkipWithError("cannot create wal");
    return;
  }
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  const bool sync = state.range(1) != 0;
  for (auto _ : state) {
    if (!writer.AddRecord(payload).ok() || (sync && !writer.Sync().ok())) {
      state.SkipWithError("wal write failed");
      return;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  (void)env->Remove(path);
}
BENCHMARK(BM_WalAppendSync)
    ->ArgsProduct({{256, 4096}, {0, 1}})
    ->ArgNames({"bytes", "sync"});

// The sync a commit waits for, by log file kind (E20): PosixEnv appends
// an ordinary file with O_APPEND and fsyncs it, so each sync also commits
// the file's new size and blocks; a `*.wal` file is kept zero-written
// ahead of its records, so a record is a pwrite into blocks already on
// disk and the sync an fdatasync. One 2.1 KB record (a txn_long_history
// commit's bytes) per iteration, appended and synced.
void BM_LogRecordSync(benchmark::State& state) {
  PosixEnv env;
  const std::string path = TempPath(state.range(1) != 0
                                        ? "ttra_bench_record_sync.wal"
                                        : "ttra_bench_record_sync.log");
  WalWriter writer(&env, path);
  if (!writer.Create().ok()) {
    state.SkipWithError("cannot create log");
    return;
  }
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    if (!writer.AddRecord(payload).ok() || !writer.Sync().ok()) {
      state.SkipWithError("log write failed");
      return;
    }
  }
  (void)env.Remove(path);
}
BENCHMARK(BM_LogRecordSync)
    ->ArgsProduct({{2100}, {0, 1}})
    ->ArgNames({"bytes", "prezeroed"})
    ->UseRealTime();

void RunCommitThroughput(benchmark::State& state, SyncPolicy policy,
                         size_t batch_size) {
  Env* env = Env::Default();
  ShardedOptions options;
  options.shards = 1;
  options.durable.sync_policy = policy;
  options.durable.batch_size = batch_size;
  ShardedExecutor exec(env, TempPath("ttra_bench_wal_dir"), options);
  // Fresh state per run: discard whatever the previous run left behind.
  (void)ResetWalDir(env, exec.dir());
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start the executor");
    return;
  }
  const Schema schema = *Schema::Make(
      {{"id", ValueType::kInt}, {"payload", ValueType::kString}});
  workload::Generator gen(23);
  if (!exec.Submit(Command{
                     DefineRelationCmd{"emp", RelationType::kSnapshot, schema}})
           .ok()) {
    state.SkipWithError("define failed");
    return;
  }
  // Pre-generate states so the timed loop measures logging + apply, not
  // workload generation.
  std::vector<Command> commands;
  for (int i = 0; i < 64; ++i) commands.push_back(NextCommand(gen, schema));
  size_t next = 0;
  for (auto _ : state) {
    if (!exec.Submit(commands[next]).ok()) {
      state.SkipWithError("submit failed");
      return;
    }
    next = (next + 1) % commands.size();
  }
  state.counters["commits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel(std::string(SyncPolicyName(policy)));
}

void BM_CommitSyncAlways(benchmark::State& state) {
  RunCommitThroughput(state, SyncPolicy::kAlways, 0);
}
void BM_CommitSyncBatch(benchmark::State& state) {
  RunCommitThroughput(state, SyncPolicy::kBatch,
                      static_cast<size_t>(state.range(0)));
}
void BM_CommitSyncNever(benchmark::State& state) {
  RunCommitThroughput(state, SyncPolicy::kNever, 0);
}
// Wall-clock time: the client waits out the fsync, and under contention
// a batch may run on the executor's writer thread, so CPU time would
// undercount a commit.
BENCHMARK(BM_CommitSyncAlways)->UseRealTime();
BENCHMARK(BM_CommitSyncBatch)
    ->Arg(8)
    ->Arg(64)
    ->ArgNames({"batch"})
    ->UseRealTime();
BENCHMARK(BM_CommitSyncNever)->UseRealTime();

}  // namespace
}  // namespace ttra
