// Experiment E4: modify_state throughput. Snapshot relations replace
// their single state; rollback relations append — the paper's two
// dispatch branches of C⟦modify_state⟧. Sweeps state size and, for
// rollback relations, accumulated history (append cost must stay flat:
// the sequence is append-only).

#include <benchmark/benchmark.h>

#include "rollback/commands.h"
#include "rollback/database.h"
#include "workload/generator.h"

namespace ttra {
namespace {

void RunModify(benchmark::State& state, RelationType type) {
  const size_t state_size = static_cast<size_t>(state.range(0));
  workload::Generator gen(17);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"payload", ValueType::kString}});
  // Pre-generate a cycle of evolved states.
  std::vector<SnapshotState> states;
  SnapshotState current = gen.RandomState(schema, state_size);
  for (int i = 0; i < 32; ++i) {
    states.push_back(current);
    current = gen.MutateState(current, 0.1);
  }
  Database db;
  (void)db.DefineRelation("r", type, schema);
  size_t next = 0;
  for (auto _ : state) {
    // Rollback relations are append-only; cap resident history so long
    // benchmark runs measure steady-state appends, not allocator pressure.
    if (db.Find("r")->history_length() >= 1024) {
      state.PauseTiming();
      db = Database();
      (void)db.DefineRelation("r", type, schema);
      state.ResumeTiming();
    }
    Status status = db.ModifyState("r", states[next]);
    benchmark::DoNotOptimize(status);
    next = (next + 1) % states.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["state_size"] = static_cast<double>(state_size);
}

void BM_ModifySnapshot(benchmark::State& state) {
  RunModify(state, RelationType::kSnapshot);
}
void BM_ModifyRollback(benchmark::State& state) {
  RunModify(state, RelationType::kRollback);
}

BENCHMARK(BM_ModifySnapshot)->Range(16, 4096);
BENCHMARK(BM_ModifyRollback)->Range(16, 4096);

// Temporal relations: the identical construction over historical states
// (orthogonality in action at the update path).
void BM_ModifyTemporal(benchmark::State& state) {
  const size_t state_size = static_cast<size_t>(state.range(0));
  workload::Generator gen(19);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  std::vector<HistoricalState> states;
  HistoricalState current = gen.RandomHistoricalState(schema, state_size);
  for (int i = 0; i < 32; ++i) {
    states.push_back(current);
    current = gen.MutateState(current, 0.1);
  }
  Database db;
  (void)db.DefineRelation("t", RelationType::kTemporal, schema);
  size_t next = 0;
  for (auto _ : state) {
    if (db.Find("t")->history_length() >= 1024) {
      state.PauseTiming();
      db = Database();
      (void)db.DefineRelation("t", RelationType::kTemporal, schema);
      state.ResumeTiming();
    }
    Status status = db.ModifyState("t", states[next]);
    benchmark::DoNotOptimize(status);
    next = (next + 1) % states.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModifyTemporal)->Range(16, 1024);

// Whole-sentence evaluation: P⟦·⟧ from the empty database, command count
// sweep — the end-to-end denotational pipeline.
void BM_EvalSentence(benchmark::State& state) {
  const size_t updates = static_cast<size_t>(state.range(0));
  workload::Generator gen(23);
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback,
                                          updates, 64, 0.2);
  for (auto _ : state) {
    auto db = EvalSentence(commands);
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * updates);
}
BENCHMARK(BM_EvalSentence)->Range(8, 512);

}  // namespace
}  // namespace ttra
