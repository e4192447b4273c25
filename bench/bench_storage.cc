// Experiment E3: what the paper's full-copy semantics costs in memory
// and retrieval, and what the compact segments cost on disk. Measures:
//   * estimated resident bytes per recorded transaction as the update
//     ratio varies, with FINDSTATE at a past transaction as the timed
//     retrieval cost,
//   * append cost per recorded state,
//   * resident memory per state of a long one-tuple-change history
//     (BM_HistoryResidentBytes), and
//   * bytes appended per transaction and probe latency of the on-disk
//     compact segments (experiment E17).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "rollback/compact_store.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "storage/serialize.h"
#include "util/random.h"
#include "workload/generator.h"

namespace ttra {
namespace {

constexpr size_t kHistory = 200;
constexpr size_t kStateSize = 500;

StateLog<SnapshotState> BuildLog(double churn) {
  workload::Generator gen(11);
  StateLog<SnapshotState> log;
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"payload", ValueType::kString}});
  SnapshotState state = gen.RandomState(schema, kStateSize);
  for (size_t i = 0; i < kHistory; ++i) {
    (void)log.Append(state, i + 1);
    state = gen.MutateState(state, churn);
  }
  return log;
}

// churn is permille (range args must be integers).
void BM_Space(benchmark::State& state) {
  const double churn = static_cast<double>(state.range(0)) / 1000.0;
  auto log = BuildLog(churn);
  // Space is a property of the built log, not of an inner loop; the timed
  // region measures a FINDSTATE at the middle as the retrieval cost.
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.StateAt(kHistory / 2));
  }
  state.counters["bytes_per_txn"] =
      static_cast<double>(log.ApproxBytes()) / kHistory;
  state.counters["churn_permille"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Space)->Arg(10)->Arg(50)->Arg(200)->Arg(500);

// Append cost: what the log pays at modify_state time.
void BM_Append(benchmark::State& state) {
  workload::Generator gen(13);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"payload", ValueType::kString}});
  SnapshotState base = gen.RandomState(schema, kStateSize);
  // Pre-generate mutated states so generation cost stays out of the loop.
  std::vector<SnapshotState> states;
  states.reserve(64);
  SnapshotState current = base;
  for (int i = 0; i < 64; ++i) {
    states.push_back(current);
    current = gen.MutateState(current, 0.1);
  }
  for (auto _ : state) {
    state.PauseTiming();
    StateLog<SnapshotState> log;
    state.ResumeTiming();
    for (size_t i = 0; i < states.size(); ++i) {
      (void)log.Append(states[i], i + 1);
    }
    benchmark::DoNotOptimize(log);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Append);

// Serialization throughput with checksum verification.
void BM_SerializeRoundTrip(benchmark::State& state) {
  auto log = BuildLog(0.1);
  auto sequence = MaterializeSequence(log);
  sequence.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string encoded = EncodeStateSequence(sequence);
    auto decoded = DecodeStateSequence<SnapshotState>(encoded);
    benchmark::DoNotOptimize(decoded);
    state.counters["encoded_bytes"] = static_cast<double>(encoded.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeRoundTrip)->Arg(4)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Resident history in the end-to-end preload's shape: kResidentStates states
// of a 32-tuple rollback relation and as many of a 16-tuple temporal one,
// each state one tuple away from the last, committed through Database:
// resident-set growth per state pair (VmRSS after the history is
// built, less VmRSS before, with freed heap returned to the OS first so
// earlier runs do not hide growth) and the latency of ρ(acct, N) at a
// random recorded N.

constexpr size_t kResidentStates = 20000;

/// VmRSS of this process in bytes, or 0 where /proc is unavailable.
size_t ResidentBytes() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb * 1024;
}

Tuple AcctRow(Rng& rng) {
  return Tuple{Value::Int(rng.UniformInt(0, 31)),
               Value::String("o" + std::to_string(rng.UniformInt(0, 7))),
               Value::Int(rng.UniformInt(0, 999))};
}

HistoricalTuple PosRow(Rng& rng) {
  const Chronon a = rng.UniformInt(0, 998);
  return HistoricalTuple{
      Tuple{Value::Int(rng.UniformInt(0, 31)),
            Value::String("t" + std::to_string(rng.UniformInt(0, 3)))},
      TemporalElement::Span(a, rng.UniformInt(a + 1, std::min<Chronon>(
                                                        1000, a + 300)))};
}

void BM_HistoryResidentBytes(benchmark::State& state) {
  const Schema acct_schema = *Schema::Make({{"id", ValueType::kInt},
                                            {"owner", ValueType::kString},
                                            {"bal", ValueType::kInt}});
  const Schema pos_schema = *Schema::Make(
      {{"id", ValueType::kInt}, {"title", ValueType::kString}});
  const size_t before = ResidentBytes();
  Database db;
  if (!db.DefineRelation("acct", RelationType::kRollback, acct_schema).ok() ||
      !db.DefineRelation("pos", RelationType::kTemporal, pos_schema).ok()) {
    state.SkipWithError("define failed");
    return;
  }
  Rng rng(41);
  std::vector<Tuple> acct;
  for (int i = 0; i < 32; ++i) acct.push_back(AcctRow(rng));
  std::vector<HistoricalTuple> pos;
  for (int i = 0; i < 16; ++i) pos.push_back(PosRow(rng));
  const TransactionNumber first = db.transaction_number() + 1;
  for (size_t i = 0; i < kResidentStates; ++i) {
    acct[rng.Uniform(acct.size())] = AcctRow(rng);
    pos[rng.Uniform(pos.size())] = PosRow(rng);
    if (!db.ModifyState("acct", *SnapshotState::Make(acct_schema, acct))
             .ok() ||
        !db.ModifyState("pos", *HistoricalState::Make(pos_schema, pos))
             .ok()) {
      state.SkipWithError("modify_state failed");
      return;
    }
  }
  const size_t after = ResidentBytes();
  const TransactionNumber last = db.transaction_number();
  for (auto _ : state) {
    const TransactionNumber n =
        first + static_cast<TransactionNumber>(rng.Uniform(last - first + 1));
    Result<SnapshotState> found = db.Rollback("acct", n);
    if (!found.ok()) {
      state.SkipWithError("rollback failed");
      return;
    }
    benchmark::DoNotOptimize(*found);
  }
  const double growth = after > before ? static_cast<double>(after - before)
                                       : 0.0;
  state.counters["rss_growth_mb"] = growth / (1024.0 * 1024.0);
  state.counters["rss_bytes_per_state_pair"] = growth / kResidentStates;
}
// Fixed iterations: the history is built once.
BENCHMARK(BM_HistoryResidentBytes)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Experiment E17: the on-disk compact checkpoint engine (DESIGN.md §16),
// through the real durable write path (ShardedExecutor, one shard). The full-copy write path
// it replaced is gone (its 68,077 B/txn stays recorded in
// EXPERIMENTS.md E17); the probe baseline still reads a full-copy image,
// written by SaveDatabase, the `--save` export format.

/// In-memory env that counts every byte handed to Append — the write
/// amplification a real disk would absorb.
class CountingEnv : public InMemoryEnv {
 public:
  Status Append(const std::string& path, std::string_view data) override {
    appended_.fetch_add(data.size(), std::memory_order_relaxed);
    return InMemoryEnv::Append(path, data);
  }
  uint64_t appended_bytes() const {
    return appended_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> appended_{0};
};

constexpr size_t kDiskTxns = 64;
constexpr size_t kDiskTuples = 200;
constexpr double kDiskChurn = 0.05;

std::vector<Command> DiskWorkload(const Schema& schema) {
  workload::Generator gen(29);
  std::vector<Command> commands;
  commands.reserve(kDiskTxns);
  SnapshotState current = gen.RandomState(schema, kDiskTuples);
  for (size_t i = 0; i < kDiskTxns; ++i) {
    commands.push_back(ModifySnapshotCmd{"emp", current});
    current = gen.MutateState(current, kDiskChurn);
  }
  return commands;
}

ShardedOptions DiskOptions() {
  ShardedOptions options;
  options.shards = 1;
  options.durable.sync_policy = SyncPolicy::kNever;
  options.durable.checkpoint_every = 4;
  options.durable.compact.keyframe_interval = 16;
  return options;
}

/// Bytes appended per committed transaction, WAL + checkpoints included,
/// with a checkpoint every 4 commits: each checkpoint appends only the
/// states recorded since the covered watermark.
void BM_BytesPerTxnCompact(benchmark::State& state) {
  const Schema schema = *Schema::Make(
      {{"id", ValueType::kInt}, {"payload", ValueType::kString}});
  const std::vector<Command> commands = DiskWorkload(schema);
  uint64_t appended = 0;
  for (auto _ : state) {
    CountingEnv env;
    ShardedExecutor exec(&env, "b", DiskOptions());
    if (!exec.Start().ok() ||
        !exec.Submit(Command{
                 DefineRelationCmd{"emp", RelationType::kRollback, schema}})
             .ok()) {
      state.SkipWithError("open/define failed");
      return;
    }
    for (const Command& command : commands) {
      if (!exec.Submit(command).ok()) {
        state.SkipWithError("submit failed");
        return;
      }
    }
    if (!exec.Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
    appended = env.appended_bytes();
    benchmark::DoNotOptimize(appended);
  }
  state.counters["bytes_per_txn"] =
      static_cast<double>(appended) / static_cast<double>(kDiskTxns);
  state.SetLabel("compact");
}
BENCHMARK(BM_BytesPerTxnCompact);

/// FINDSTATE (ρ) at a random past transaction, resolved from storage.
/// Full-copy must materialize the whole exported database image to answer
/// one probe; compact probes the manifest's interval index and replays
/// at most keyframe_interval delta entries from the segment. The store
/// is armed once (Load folds the manifest), but every probe re-reads the
/// segment file and decodes from the governing keyframe, and the probe
/// cache is disabled, so each iteration pays the full per-probe cost.
void RunFindStateProbe(benchmark::State& state, bool compact) {
  const Schema schema = *Schema::Make(
      {{"id", ValueType::kInt}, {"payload", ValueType::kString}});
  InMemoryEnv env;
  {
    ShardedExecutor exec(&env, "b", DiskOptions());
    if (!exec.Start().ok() ||
        !exec.Submit(Command{
                 DefineRelationCmd{"emp", RelationType::kRollback, schema}})
             .ok()) {
      state.SkipWithError("open/define failed");
      return;
    }
    for (const Command& command : DiskWorkload(schema)) {
      if (!exec.Submit(command).ok()) {
        state.SkipWithError("submit failed");
        return;
      }
    }
    if (!exec.Checkpoint().ok() ||
        (!compact && !SaveDatabase(exec.Snapshot(), "b/full.db", &env).ok())) {
      state.SkipWithError("checkpoint/export failed");
      return;
    }
  }
  // Probe targets: a fixed pseudo-random walk over the recorded history.
  std::vector<TransactionNumber> targets;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    targets.push_back(2 + x % kDiskTxns);
  }
  CompactOptions probe_options;
  probe_options.probe_cache_capacity = 0;
  CompactStore store(&env, "b", probe_options);
  if (compact && !store.Load({}).ok()) {
    state.SkipWithError("compact load failed");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    const TransactionNumber txn = targets[next];
    next = (next + 1) % targets.size();
    if (compact) {
      Result<SnapshotState> probed = store.ProbeSnapshot("emp", txn);
      if (!probed.ok()) {
        state.SkipWithError(probed.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(*probed);
    } else {
      Result<Database> db = LoadDatabase("b/full.db", {}, &env);
      if (!db.ok()) {
        state.SkipWithError("load failed");
        return;
      }
      Result<SnapshotState> found = db->Find("emp")->SnapshotAt(txn);
      if (!found.ok()) {
        state.SkipWithError("findstate failed");
        return;
      }
      benchmark::DoNotOptimize(*found);
    }
  }
  state.counters["probes_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel(compact ? "compact" : "full-copy");
}

void BM_FindStateProbeFullCopy(benchmark::State& state) {
  RunFindStateProbe(state, false);
}
void BM_FindStateProbeCompact(benchmark::State& state) {
  RunFindStateProbe(state, true);
}
BENCHMARK(BM_FindStateProbeFullCopy);
BENCHMARK(BM_FindStateProbeCompact);

}  // namespace
}  // namespace ttra
