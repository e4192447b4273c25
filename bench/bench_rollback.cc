// Experiment E2: cost of the rollback operator ρ(R, N) as history length
// grows, at three probe positions (oldest state, middle, current). The
// full-copy log answers every probe with one O(log h) binary search, so
// the cost should be flat in both history length and probe position.

#include <benchmark/benchmark.h>

#include "rollback/database.h"
#include "workload/generator.h"

namespace ttra {
namespace {

constexpr size_t kStateSize = 256;
constexpr double kChurn = 0.1;

Database BuildDatabase(size_t history) {
  workload::Generator gen(7);
  Database db;
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"payload", ValueType::kString}});
  (void)db.DefineRelation("r", RelationType::kRollback, schema);
  SnapshotState state = gen.RandomState(schema, kStateSize);
  for (size_t i = 0; i < history; ++i) {
    (void)db.ModifyState("r", state);
    state = gen.MutateState(state, kChurn);
  }
  return db;
}

enum Probe { kOldest = 0, kMiddle = 1, kCurrent = 2 };

void BM_Rollback(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  const Probe probe = static_cast<Probe>(state.range(1));
  Database db = BuildDatabase(history);
  const TransactionNumber target =
      probe == kOldest ? 2
      : probe == kMiddle ? 1 + history / 2
                         : db.transaction_number();
  for (auto _ : state) {
    auto result = db.Rollback("r", target);
    benchmark::DoNotOptimize(result);
  }
  state.counters["history"] = static_cast<double>(history);
  state.counters["bytes"] = static_cast<double>(db.ApproxBytes());
}

void RollbackArgs(benchmark::internal::Benchmark* bench) {
  for (int history : {16, 64, 256, 1024}) {
    for (int probe : {kOldest, kMiddle, kCurrent}) {
      bench->Args({history, probe});
    }
  }
}

BENCHMARK(BM_Rollback)->Apply(RollbackArgs);

// ρ(R, ∞) — the common case: the tail of the log.
void BM_RollbackCurrentInf(benchmark::State& state) {
  Database db = BuildDatabase(256);
  for (auto _ : state) {
    auto result = db.Rollback("r");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_RollbackCurrentInf);

}  // namespace
}  // namespace ttra
