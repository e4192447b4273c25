// Experiment E15: concurrency and group commit. Two questions the MVCC
// split raises, measured: (1) do reader sessions scale — OpenSession is a
// shared_ptr grab and every evaluation runs on an immutable snapshot, so
// adding reader threads should add throughput; (2) what does group commit
// buy — batching N sentences into one WAL record + one fsync should move
// commit throughput from the fsync floor toward the apply floor as the
// batch grows. Both run on the queued single-writer pipeline,
// ShardedExecutor with one shard. BM_CommitVsHistory adds the commit
// path's dependence on history length (a persistent Database makes it
// O(change)).

#include <benchmark/benchmark.h>

#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>

#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "workload/generator.h"

namespace ttra {
namespace {

#ifndef NDEBUG
/// Numbers from a debug build are not numbers; refuse to let them pass
/// silently (BENCH_*.json must be recorded from a Release build).
const int kDebugBuildWarning = [] {
  std::cerr
      << "\n"
      << "********************************************************\n"
      << "* WARNING: bench_concurrent built WITHOUT NDEBUG.      *\n"
      << "* Assertions are live; throughput numbers are          *\n"
      << "* meaningless. Rebuild with -DCMAKE_BUILD_TYPE=Release *\n"
      << "* before recording BENCH_concurrent.json.              *\n"
      << "********************************************************\n\n";
  return 0;
}();
#endif

/// The executor directory, under the system temporary directory (honours
/// $TMPDIR).
const std::string& BenchDir() {
  static const std::string dir =
      (std::filesystem::temp_directory_path() / "ttra_bench_concurrent")
          .string();
  return dir;
}

Schema BenchSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

void ResetDir(Env* env) { (void)ResetWalDir(env, BenchDir()); }

/// Commits/sec vs group-commit batch size, sync policy kAlways (every
/// acknowledged batch is fsync'ed). The bench thread submits
/// asynchronously and bounds the in-flight window, so the writer sees a
/// standing backlog and batches fill naturally up to max_batch; batch
/// size 1 degenerates to one fsync per sentence — the E11 floor.
void BM_GroupCommitThroughput(benchmark::State& state) {
  Env* env = Env::Default();
  ResetDir(env);
  ShardedOptions options;
  options.shards = 1;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = static_cast<size_t>(state.range(0));
  ShardedExecutor exec(env, BenchDir(), options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  workload::Generator gen(17);
  if (!exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kSnapshot, schema}})
           .ok()) {
    state.SkipWithError("define failed");
    return;
  }
  std::vector<std::vector<Command>> sentences;
  for (int i = 0; i < 128; ++i) {
    sentences.push_back({ModifySnapshotCmd{"emp", gen.RandomState(schema, 8)}});
  }
  size_t next = 0;
  std::deque<std::future<Result<TransactionNumber>>> inflight;
  for (auto _ : state) {
    inflight.push_back(exec.SubmitAsync(sentences[next]));
    next = (next + 1) % sentences.size();
    // A bounded window keeps memory flat and guarantees each counted
    // iteration is (or is about to be) durably committed.
    while (inflight.size() >= 256) {
      if (!inflight.front().get().ok()) {
        state.SkipWithError("commit failed");
        return;
      }
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    (void)inflight.front().get();
    inflight.pop_front();
  }
  const ShardedExecutor::Stats stats = exec.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["fsyncs"] =
      static_cast<double>(stats.per_shard[0].wal.syncs);
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["avg_batch"] =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.commits) /
                static_cast<double>(stats.batches);
  exec.Stop();
  ResetDir(env);
}
BENCHMARK(BM_GroupCommitThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->ArgName("max_batch")
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Commits/sec vs shard count (Experiment E16), sync policy kAlways and
/// the E15-winning batch size. The workload modifies 16 relations
/// round-robin — their name hashes spread them across every shard — so
/// with N > 1 the encode/append/fsync pipeline runs on N writer threads
/// whose fsyncs overlap, while transaction-number assignment stays behind
/// the one global order lock. shards:1 is the same pipeline as
/// BM_GroupCommitThroughput/max_batch:64 over 16 relations instead of one.
void BM_ShardedCommitThroughput(benchmark::State& state) {
  Env* env = Env::Default();
  ResetDir(env);
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = 64;
  options.shards = static_cast<size_t>(state.range(0));
  ShardedExecutor exec(env, BenchDir(), options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  workload::Generator gen(17);
  constexpr int kRelations = 16;
  std::vector<std::vector<Command>> sentences;
  for (int i = 0; i < kRelations; ++i) {
    const std::string name = "rel" + std::to_string(i);
    if (!exec.Submit(Command{DefineRelationCmd{
                         name, RelationType::kSnapshot, schema}})
             .ok()) {
      state.SkipWithError("define failed");
      return;
    }
    for (int j = 0; j < 8; ++j) {
      sentences.push_back({ModifySnapshotCmd{name, gen.RandomState(schema, 8)}});
    }
  }
  size_t next = 0;
  std::deque<std::future<Result<TransactionNumber>>> inflight;
  for (auto _ : state) {
    inflight.push_back(exec.SubmitAsync(sentences[next]));
    next = (next + 17) % sentences.size();  // 17 ⊥ 128: hits every sentence
    while (inflight.size() >= 256) {
      if (!inflight.front().get().ok()) {
        state.SkipWithError("commit failed");
        return;
      }
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    (void)inflight.front().get();
    inflight.pop_front();
  }
  const ShardedExecutor::Stats stats = exec.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  uint64_t syncs = 0;
  for (const auto& shard : stats.per_shard) syncs += shard.wal.syncs;
  state.counters["fsyncs"] = static_cast<double>(syncs);
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["avg_batch"] =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.commits) /
                static_cast<double>(stats.batches);
  exec.Stop();
  ResetDir(env);
}
BENCHMARK(BM_ShardedCommitThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("shards")
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Commits/sec vs preloaded history length (ROADMAP Open item 1 gate):
/// the commit path must cost O(change), not O(history). One shard,
/// InMemoryEnv and kNever take the disk out, so what is left is apply,
/// encode and publish. The preload — `history` states on each of a
/// rollback and a temporal relation — goes through the executor itself, in
/// sentences of 1000 commands (a batch copies the database once, however
/// many commands it holds); then the timed phase commits one-command
/// sentences alternately to the two relations, at most 64 per batch. A
/// fixed iteration count keeps the preload from being repeated while the
/// library sizes the run.
void BM_CommitVsHistory(benchmark::State& state) {
  const auto history = static_cast<size_t>(state.range(0));
  InMemoryEnv env;
  ShardedOptions options;
  options.shards = 1;
  options.durable.sync_policy = SyncPolicy::kNever;
  options.group_commit.max_batch = 64;
  ShardedExecutor exec(&env, BenchDir(), options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  if (!exec.Submit({DefineRelationCmd{"acct", RelationType::kRollback, schema},
                    DefineRelationCmd{"pos", RelationType::kTemporal, schema}})
           .ok()) {
    state.SkipWithError("define failed");
    return;
  }
  // Two chains of 8-tuple states, each replacing one tuple of the last as
  // an update would; commands share their states' tuple storage.
  constexpr size_t kPool = 256;
  constexpr int64_t kRows = 8;
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(Tuple{Value::Int(i), Value::Int(0)});
  }
  std::vector<SnapshotState> snapshots;
  std::vector<HistoricalState> historicals;
  for (size_t i = 0; i < kPool; ++i) {
    const auto n = static_cast<int64_t>(i);
    rows[static_cast<size_t>(n % kRows)] =
        Tuple{Value::Int(n % kRows), Value::Int(n)};
    std::vector<HistoricalTuple> stamped;
    for (const Tuple& row : rows) {
      stamped.push_back(HistoricalTuple{row, TemporalElement::Span(0, 1000)});
    }
    snapshots.push_back(*SnapshotState::Make(schema, rows));
    historicals.push_back(*HistoricalState::Make(schema, std::move(stamped)));
  }
  auto command = [&](size_t i) -> Command {
    if (i % 2 == 0) return ModifySnapshotCmd{"acct", snapshots[i / 2 % kPool]};
    return ModifyHistoricalCmd{"pos", historicals[i / 2 % kPool]};
  };

  constexpr size_t kPreloadSentence = 1000;
  std::deque<std::future<Result<TransactionNumber>>> inflight;
  auto drain = [&](size_t window) {
    while (inflight.size() > window) {
      if (!inflight.front().get().ok()) return false;
      inflight.pop_front();
    }
    return true;
  };
  size_t next = 0;
  while (next < 2 * history) {
    std::vector<Command> sentence;
    for (size_t k = 0; k < kPreloadSentence && next < 2 * history; ++k) {
      sentence.push_back(command(next++));
    }
    inflight.push_back(exec.SubmitAsync(std::move(sentence)));
    if (!drain(64)) {
      state.SkipWithError("preload failed");
      return;
    }
  }
  if (!drain(0)) {
    state.SkipWithError("preload failed");
    return;
  }
  const ShardedExecutor::Stats before = exec.stats();

  for (auto _ : state) {
    inflight.push_back(exec.SubmitAsync({command(next++)}));
    if (!drain(256)) {
      state.SkipWithError("commit failed");
      return;
    }
  }
  if (!drain(0)) {
    state.SkipWithError("commit failed");
    return;
  }
  const ShardedExecutor::Stats after = exec.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["history"] = static_cast<double>(history);
  const uint64_t batches = after.batches - before.batches;
  state.counters["avg_batch"] =
      batches == 0 ? 0.0
                   : static_cast<double>(after.commits - before.commits) /
                         static_cast<double>(batches);
  exec.Stop();
}
BENCHMARK(BM_CommitVsHistory)
    ->Arg(0)
    ->Arg(100000)
    ->Arg(400000)
    ->ArgName("history")
    ->Iterations(32768)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Reader-session scaling, 1→16 threads: every thread opens a pinned
/// session and evaluates ρ(emp, n) for random committed n over 64
/// committed states: the cost of a pinned read session on a hot rollback
/// relation (session open, FINDSTATE, release), so any overhead added to
/// the read path shows here.
ShardedExecutor* g_read_exec = nullptr;

void BM_ReaderSessionScaling(benchmark::State& state) {
  if (state.thread_index() == 0) {
    Env* env = Env::Default();
    ResetDir(env);
    ShardedOptions options;
    options.shards = 1;
    g_read_exec = new ShardedExecutor(env, BenchDir(), options);
    if (!g_read_exec->Start().ok()) {
      state.SkipWithError("cannot start executor");
      return;
    }
    const Schema schema = BenchSchema();
    workload::Generator gen(29);
    (void)g_read_exec->Submit(Command{
        DefineRelationCmd{"emp", RelationType::kRollback, schema}});
    for (int i = 0; i < 64; ++i) {
      (void)g_read_exec->Submit(
          Command{ModifySnapshotCmd{"emp", gen.RandomState(schema, 32)}});
    }
  }
  uint64_t salt = static_cast<uint64_t>(state.thread_index()) + 1;
  uint64_t failures = 0;
  for (auto _ : state) {
    Session session = g_read_exec->OpenSession();
    salt = salt * 6364136223846793005u + 1442695040888963407u;
    const TransactionNumber txn = 2 + (salt >> 33) % (session.epoch() - 1);
    auto result = session.Rollback("emp", txn);
    if (!result.ok()) ++failures;
    benchmark::DoNotOptimize(result);
  }
  if (failures != 0) state.SkipWithError("rollback failed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    g_read_exec->Stop();
    delete g_read_exec;
    g_read_exec = nullptr;
    ResetDir(Env::Default());
  }
}
BENCHMARK(BM_ReaderSessionScaling)
    ->ThreadRange(1, 16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Raw physical floor under the executors: N framed records in ONE
/// Env::Append plus one fsync, vs N separate append+fsync round trips.
/// The ratio bounds what any group-commit policy can recover.
void BM_WalBatchedAppendSync(benchmark::State& state) {
  Env* env = Env::Default();
  (void)env->CreateDir(BenchDir());
  const std::string path = BenchDir() + "/raw.log";
  WalWriter writer(env, path);
  if (!writer.Create().ok()) {
    state.SkipWithError("cannot create wal");
    return;
  }
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const std::vector<std::string> payloads(batch, std::string(256, 'x'));
  for (auto _ : state) {
    if (batched) {
      if (!writer.AddRecords(payloads).ok() || !writer.Sync().ok()) {
        state.SkipWithError("wal write failed");
        return;
      }
    } else {
      for (const std::string& payload : payloads) {
        if (!writer.AddRecord(payload).ok() || !writer.Sync().ok()) {
          state.SkipWithError("wal write failed");
          return;
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  (void)env->Remove(path);
}
BENCHMARK(BM_WalBatchedAppendSync)
    ->ArgsProduct({{8, 64}, {0, 1}})
    ->ArgNames({"records", "batched"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ttra
