// Experiments E6/E7: the historical algebra under transaction time.
// Measures ρ̂ as temporal history grows, the δ_{G,V} operator against
// interval count per tuple, and the historical operators — showing the
// identical rollback construction carries over (orthogonality).

#include <benchmark/benchmark.h>

#include "historical/haggregate.h"
#include "historical/hoperators.h"
#include "rollback/database.h"
#include "workload/generator.h"

namespace ttra {
namespace {

namespace hops = historical_ops;

Database BuildTemporal(size_t history, size_t state_size) {
  workload::Generator gen(29);
  Database db;
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"name", ValueType::kString}});
  (void)db.DefineRelation("t", RelationType::kTemporal, schema);
  HistoricalState state = gen.RandomHistoricalState(schema, state_size);
  for (size_t i = 0; i < history; ++i) {
    (void)db.ModifyState("t", state);
    state = gen.MutateState(state, 0.1);
  }
  return db;
}

// ρ̂(t, N) at the middle of a growing history — mirrors BM_Rollback of
// experiment E2, over historical states.
void BM_Hrho(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  Database db = BuildTemporal(history, 128);
  const TransactionNumber middle = 1 + history / 2;
  for (auto _ : state) {
    auto result = db.RollbackHistorical("t", middle);
    benchmark::DoNotOptimize(result);
  }
  state.counters["bytes"] = static_cast<double>(db.ApproxBytes());
}
BENCHMARK(BM_Hrho)->Range(16, 1024);

// δ_{G,V}: valid-time selection + projection as interval complexity grows.
void BM_Delta(benchmark::State& state) {
  const size_t max_intervals = static_cast<size_t>(state.range(0));
  workload::GeneratorOptions options;
  options.max_intervals_per_element = max_intervals;
  workload::Generator gen(31, options);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  HistoricalState hstate = gen.RandomHistoricalState(schema, 2048);
  TemporalPred g = TemporalPred::Overlaps(
      TemporalExpr::Valid(),
      TemporalExpr::Const(TemporalElement::Span(100, 500)));
  TemporalExpr v = TemporalExpr::Intersect(
      TemporalExpr::Valid(),
      TemporalExpr::Const(TemporalElement::Span(100, 500)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hops::Delta(hstate, g, v));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
  state.counters["max_intervals"] = static_cast<double>(max_intervals);
}
BENCHMARK(BM_Delta)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Historical operator throughput vs cardinality (the ∪̂ −̂ ×̂ π̂ σ̂ costs).
void BM_HistoricalUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Generator gen(37);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  HistoricalState a = gen.RandomHistoricalState(schema, n);
  HistoricalState b = gen.RandomHistoricalState(schema, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hops::Union(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_HistoricalUnion)->Range(64, 16384);

void BM_HistoricalDifference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Generator gen(41);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  HistoricalState a = gen.RandomHistoricalState(schema, n);
  HistoricalState b = gen.RandomHistoricalState(schema, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hops::Difference(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HistoricalDifference)->Range(64, 16384);

void BM_HistoricalProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Generator gen(43);
  HistoricalState a = gen.RandomHistoricalState(
      *Schema::Make({{"x", ValueType::kInt}}), n);
  HistoricalState b = gen.RandomHistoricalState(
      *Schema::Make({{"y", ValueType::kInt}}), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hops::Product(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_HistoricalProduct)->Range(8, 256);

// Temporal aggregation (interval partitioning): cost vs tuple count.
// Slab count grows with total interval count, so this is the quadratic-ish
// worst case of the historical algebra — worth tracking.
void BM_TemporalAggregate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Generator gen(53);
  HistoricalState a = gen.RandomHistoricalState(
      *Schema::Make({{"dept", ValueType::kString},
                     {"salary", ValueType::kInt}}),
      n);
  const std::vector<AggregateDef> defs = {
      {"cnt", AggFunc::kCount, ""},
      {"total", AggFunc::kSum, "salary"},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(hops::Aggregate(a, {"dept"}, defs));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TemporalAggregate)->Range(16, 512);

// Timeslice: reconstructing a snapshot from an historical state.
void BM_SnapshotAt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Generator gen(47);
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  HistoricalState a = gen.RandomHistoricalState(schema, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.SnapshotAt(500));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SnapshotAt)->Range(64, 16384);

}  // namespace
}  // namespace ttra
