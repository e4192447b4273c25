// Experiment E8: our ρ̂ + valid-time timeslice vs. Ben-Zvi's Time-View
// (paper §5). Both answer the bitemporal point query "tuples valid at tv
// as recorded at tt"; the TRM keeps one flat interval-stamped table while
// the temporal relation keeps a state sequence. The benchmark sweeps
// history length and probes both query paths plus storage cost.

#include <benchmark/benchmark.h>

#include "benzvi/trm.h"
#include "rollback/database.h"
#include "workload/generator.h"

namespace ttra {
namespace {

struct Setup {
  Database db;
  benzvi::TrmRelation trm{Schema()};
};

Setup Build(size_t history, size_t state_size) {
  workload::Generator gen(61);
  Setup setup;
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"name", ValueType::kString}});
  (void)setup.db.DefineRelation("t", RelationType::kTemporal, schema);
  HistoricalState state = gen.RandomHistoricalState(schema, state_size);
  for (size_t i = 0; i < history; ++i) {
    (void)setup.db.ModifyState("t", state);
    state = gen.MutateState(state, 0.1);
  }
  auto trm = benzvi::TrmRelation::FromTemporal(*setup.db.Find("t"));
  setup.trm = *std::move(trm);
  return setup;
}

// ρ̂(t, tt) then timeslice at tv — our two-step path.
void BM_RhoSlice(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  Setup setup = Build(history, 128);
  const TransactionNumber tt = 1 + history / 2;
  for (auto _ : state) {
    auto rolled = setup.db.RollbackHistorical("t", tt);
    benchmark::DoNotOptimize(rolled->SnapshotAt(500));
  }
  state.counters["temporal_bytes"] =
      static_cast<double>(setup.db.ApproxBytes());
}
BENCHMARK(BM_RhoSlice)->Range(16, 1024);

// Ben-Zvi's one-step Time-View over the flat interval table.
void BM_TimeView(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  Setup setup = Build(history, 128);
  const TransactionNumber tt = 1 + history / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.trm.TimeView(500, tt));
  }
  state.counters["trm_rows"] = static_cast<double>(setup.trm.size());
  state.counters["trm_bytes"] = static_cast<double>(setup.trm.ApproxBytes());
}
BENCHMARK(BM_TimeView)->Range(16, 1024);

// Reconstructing the *full* history at tt: here the sequence-of-states
// model wins structurally — TRM must scan and regroup every row, while
// ρ̂ is a FINDSTATE lookup. This is the composability asymmetry §5 argues.
void BM_FullHistoryViaRho(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  Setup setup = Build(history, 128);
  const TransactionNumber tt = 1 + history / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.db.RollbackHistorical("t", tt));
  }
}
BENCHMARK(BM_FullHistoryViaRho)->Range(16, 1024);

void BM_FullHistoryViaTrm(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  Setup setup = Build(history, 128);
  const TransactionNumber tt = 1 + history / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.trm.HistoricalAsOf(tt));
  }
}
BENCHMARK(BM_FullHistoryViaTrm)->Range(16, 1024);

// Maintenance: applying one more version to each representation.
void BM_TrmApplyVersion(benchmark::State& state) {
  workload::Generator gen(67);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  std::vector<HistoricalState> states;
  HistoricalState current = gen.RandomHistoricalState(schema, 128);
  for (int i = 0; i < 64; ++i) {
    states.push_back(current);
    current = gen.MutateState(current, 0.1);
  }
  for (auto _ : state) {
    state.PauseTiming();
    benzvi::TrmRelation trm(schema);
    state.ResumeTiming();
    for (size_t i = 0; i < states.size(); ++i) {
      (void)trm.ApplyVersion(states[i], i + 1);
    }
    benchmark::DoNotOptimize(trm);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrmApplyVersion);

}  // namespace
}  // namespace ttra
