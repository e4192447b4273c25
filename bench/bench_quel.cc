// Experiment E5: the Quel front-end. Measures parse+compile cost of the
// calculus → algebra mapping, end-to-end update throughput through Quel
// vs. hand-written algebra, and confirms the mapping's overhead is a
// constant per statement (the paper's benefit #1 is free in practice).

#include <benchmark/benchmark.h>

#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "lang/absint.h"
#include "lang/analyzer.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "quel/quel.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Database FreshDb(size_t rows) {
  workload::Generator gen(53);
  Database db;
  const Schema schema = *Schema::Make({{"name", ValueType::kString},
                                       {"salary", ValueType::kInt}});
  (void)db.DefineRelation("emp", RelationType::kRollback, schema);
  (void)db.ModifyState("emp", gen.RandomState(schema, rows));
  return db;
}

void BM_QuelParse(benchmark::State& state) {
  const char* source =
      R"(replace emp set salary = salary + 500 where name = "ed")";
  for (auto _ : state) {
    benchmark::DoNotOptimize(quel::ParseQuel(source));
  }
}
BENCHMARK(BM_QuelParse);

void BM_QuelCompile(benchmark::State& state) {
  Database db = FreshDb(100);
  lang::Catalog catalog(db);
  auto stmt = quel::ParseQuel(
      R"(replace emp set salary = salary + 500 where name = "ed")");
  for (auto _ : state) {
    benchmark::DoNotOptimize(quel::CompileQuel(*stmt, catalog));
  }
}
BENCHMARK(BM_QuelCompile);

// End-to-end: one Quel replace per iteration (parse + compile + execute),
// state size sweep.
void BM_QuelReplaceEndToEnd(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Database db = FreshDb(rows);
  lang::Catalog catalog(db);
  const char* source =
      R"(replace emp set salary = salary + 1 where salary < 50)";
  for (auto _ : state) {
    if (db.Find("emp")->history_length() >= 512) {
      state.PauseTiming();
      db = FreshDb(rows);
      state.ResumeTiming();
    }
    auto stmt = quel::ParseQuel(source);
    auto compiled = quel::CompileQuel(*stmt, catalog);
    Status status = lang::ExecStmt(*compiled, db);
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuelReplaceEndToEnd)->Range(16, 4096);

// The same update written directly in the algebra (pre-parsed): the
// difference against BM_QuelReplaceEndToEnd is the front-end's overhead.
void BM_DirectAlgebraReplace(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Database db = FreshDb(rows);
  auto expr = lang::ParseExpr(
      "select[not (salary < 50)](rho(emp, inf)) union "
      "extend[salary = salary + 1](select[salary < 50](rho(emp, inf)))");
  lang::Stmt stmt = lang::ModifyStateStmt{"emp", *expr};
  for (auto _ : state) {
    if (db.Find("emp")->history_length() >= 512) {
      state.PauseTiming();
      db = FreshDb(rows);
      state.ResumeTiming();
    }
    Status status = lang::ExecStmt(stmt, db);
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectAlgebraReplace)->Range(16, 4096);

// Statement-mix throughput: append/replace/delete/retrieve round-robin.
void BM_QuelMixedWorkload(benchmark::State& state) {
  Database db = FreshDb(256);
  const char* sources[] = {
      R"(append to emp (name = "new", salary = 10))",
      R"(replace emp set salary = salary + 1 where salary < 30)",
      R"(retrieve emp (name) where salary > 90)",
      R"(delete emp where name = "new")",
  };
  size_t next = 0;
  std::vector<lang::StateValue> outputs;
  for (auto _ : state) {
    if (db.Find("emp")->history_length() >= 512) {
      state.PauseTiming();
      db = FreshDb(256);
      state.ResumeTiming();
    }
    auto stmt = quel::ParseQuel(sources[next]);
    auto compiled = quel::CompileQuel(*stmt, lang::Catalog(db));
    outputs.clear();
    Status status = lang::ExecStmt(*compiled, db, &outputs);
    benchmark::DoNotOptimize(status);
    next = (next + 1) % 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuelMixedWorkload);

// The read script path stage by stage (experiment E19): text → parse (or
// Quel parse + compile) → analyze → optimize → evaluate, over a
// 20k-state rollback relation and a 20k-state temporal relation whose
// states each differ from the last by one tuple — the shape of the
// e2ebench asof_query preload, built in-process. Each iteration runs one
// operation at a random transaction number; the counters split its time
// into the four stages (microseconds per operation).
constexpr size_t kAsofStates = 20000;
constexpr int64_t kAsofIds = 32;
constexpr Chronon kAsofHorizon = 1000;

struct AsofHistory {
  Database db;
  TransactionNumber first = 0;
  TransactionNumber last = 0;
  lang::AbsState facts;
};

const AsofHistory& AsofPreload() {
  static const AsofHistory* history = [] {
    auto* h = new AsofHistory;
    std::mt19937_64 rng(20);
    auto uniform = [&](int64_t lo, int64_t hi) {
      return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    auto span = [&] {
      const Chronon a = uniform(0, kAsofHorizon - 2);
      return TemporalElement::Span(
          a, uniform(a + 1, std::min<Chronon>(kAsofHorizon, a + 300)));
    };
    auto acct_tuple = [&] {
      return Tuple{Value::Int(uniform(0, kAsofIds - 1)),
                   Value::String("o" + std::to_string(uniform(0, 7))),
                   Value::Int(uniform(0, 999))};
    };
    auto pos_tuple = [&] {
      return HistoricalTuple{
          Tuple{Value::Int(uniform(0, kAsofIds - 1)),
                Value::String("t" + std::to_string(uniform(0, 3)))},
          span()};
    };
    const Schema acct_schema = *Schema::Make({{"id", ValueType::kInt},
                                              {"owner", ValueType::kString},
                                              {"bal", ValueType::kInt}});
    const Schema pos_schema = *Schema::Make(
        {{"id", ValueType::kInt}, {"title", ValueType::kString}});
    (void)h->db.DefineRelation("acct", RelationType::kRollback, acct_schema);
    (void)h->db.DefineRelation("pos", RelationType::kTemporal, pos_schema);
    std::vector<Tuple> acct;
    for (int64_t i = 0; i < kAsofIds; ++i) acct.push_back(acct_tuple());
    std::vector<HistoricalTuple> pos;
    for (int i = 0; i < 16; ++i) pos.push_back(pos_tuple());
    h->first = h->db.transaction_number() + 1;
    for (size_t i = 0; i < kAsofStates; ++i) {
      acct[uniform(0, kAsofIds - 1)] = acct_tuple();
      pos[uniform(0, 15)] = pos_tuple();
      (void)h->db.ModifyState("acct",
                              *SnapshotState::Make(acct_schema, acct));
      (void)h->db.ModifyState("pos",
                              *HistoricalState::Make(pos_schema, pos));
    }
    h->last = h->db.transaction_number();
    h->facts = lang::AbsStateFromDatabase(h->db);
    return h;
  }();
  return *history;
}

enum class AsofOp { kQuelAsof, kBetween, kSlice };

std::vector<std::string> AsofScripts(AsofOp op, const AsofHistory& h) {
  std::mt19937_64 rng(static_cast<uint64_t>(op) + 1);
  auto uniform = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  auto txn = [&] {
    return std::to_string(uniform(static_cast<int64_t>(h.first),
                                  static_cast<int64_t>(h.last)));
  };
  std::vector<std::string> scripts;
  for (int i = 0; i < 4096; ++i) {
    switch (op) {
      case AsofOp::kQuelAsof:
        scripts.push_back("retrieve acct as of " + txn() + " where bal > " +
                          std::to_string(uniform(0, 999)));
        break;
      case AsofOp::kBetween:
        scripts.push_back("show(rho(acct, " + txn() + ") minus rho(acct, " +
                          txn() + "))");
        break;
      case AsofOp::kSlice: {
        const int64_t a = uniform(0, kAsofHorizon - 2);
        const std::string window =
            "[" + std::to_string(a) + ", " +
            std::to_string(uniform(a + 1, std::min<int64_t>(kAsofHorizon,
                                                            a + 300))) +
            ")";
        scripts.push_back("show(delta[overlaps(valid, " + window +
                          "); valid intersect " + window + "](hrho(pos, " +
                          txn() + ")))");
        break;
      }
    }
  }
  return scripts;
}

void BM_AsofScriptPath(benchmark::State& state, AsofOp op) {
  const AsofHistory& h = AsofPreload();
  const std::vector<std::string> scripts = AsofScripts(op, h);
  using Clock = std::chrono::steady_clock;
  Clock::duration parse{}, analyze{}, optimize{}, eval{};
  size_t next = 0;
  for (auto _ : state) {
    const std::string& text = scripts[next];
    next = (next + 1) % scripts.size();
    const auto t0 = Clock::now();
    lang::Catalog catalog(h.db);
    Result<lang::Stmt> stmt =
        op == AsofOp::kQuelAsof
            ? [&]() -> Result<lang::Stmt> {
                TTRA_ASSIGN_OR_RETURN(quel::QuelStmt quel,
                                      quel::ParseQuel(text));
                return quel::CompileQuel(quel, catalog);
              }()
            : lang::ParseStmt(text);
    const auto t1 = Clock::now();
    Status analyzed = lang::AnalyzeStmt(*stmt, catalog);
    const auto t2 = Clock::now();
    lang::Expr& expr = std::get<lang::ShowStmt>(*stmt).expr;
    expr = optimizer::OptimizeWithFacts(expr, catalog, h.facts);
    const auto t3 = Clock::now();
    Result<lang::StateValue> answer = lang::EvalExpr(expr, h.db);
    const auto t4 = Clock::now();
    if (!analyzed.ok() || !answer.ok()) {
      state.SkipWithError("asof script failed");
      break;
    }
    benchmark::DoNotOptimize(answer);
    parse += t1 - t0;
    analyze += t2 - t1;
    optimize += t3 - t2;
    eval += t4 - t3;
  }
  auto per_op_us = [](Clock::duration d) {
    return benchmark::Counter(
        std::chrono::duration<double, std::micro>(d).count(),
        benchmark::Counter::kAvgIterations);
  };
  state.counters["parse_us"] = per_op_us(parse);
  state.counters["analyze_us"] = per_op_us(analyze);
  state.counters["optimize_us"] = per_op_us(optimize);
  state.counters["eval_us"] = per_op_us(eval);
}
BENCHMARK_CAPTURE(BM_AsofScriptPath, quel_asof, AsofOp::kQuelAsof);
BENCHMARK_CAPTURE(BM_AsofScriptPath, between, AsofOp::kBetween);
BENCHMARK_CAPTURE(BM_AsofScriptPath, slice, AsofOp::kSlice);

}  // namespace
}  // namespace ttra
