// Oracle suites: independent reference implementations checked against
// the real ones on randomized inputs.

#include <gtest/gtest.h>

#include "lang/evaluator.h"
#include "lang/parser.h"
#include "spec_log.h"
#include "workload/generator.h"

namespace ttra {
namespace {

// --- FINDSTATE against a linear-scan reference (experiment E2) -----------------

class FindStateOracleTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FindStateOracleTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST_P(FindStateOracleTest, MatchesLinearScan) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  Database db;
  ASSERT_TRUE(db.DefineRelation("r", RelationType::kRollback, schema).ok());
  // Record the reference sequence alongside, in the paper-literal
  // SpecLog (FINDSTATE as a linear scan).
  SpecLog<SnapshotState> reference;
  SnapshotState state = gen.RandomState(schema, 15);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.ModifyState("r", state).ok());
    reference.Append(state, db.transaction_number());
    state = gen.MutateState(state, 0.3);
  }
  for (TransactionNumber probe = 0; probe <= db.transaction_number() + 3;
       ++probe) {
    const SnapshotState* want = reference.StateAt(probe);
    EXPECT_EQ(*db.Rollback("r", probe),
              want != nullptr ? *want : SnapshotState::Empty(schema))
        << "probe " << probe;
  }
}

// --- Derived operators vs their defining expressions, via the language ---------

class DerivedOpOracleTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, DerivedOpOracleTest,
                         ::testing::Range<uint64_t>(0, 10));

Result<lang::StateValue> Eval(const Database& db, std::string_view source) {
  auto expr = lang::ParseExpr(source);
  if (!expr.ok()) return expr.status();
  return lang::EvalExpr(*expr, db);
}

TEST_P(DerivedOpOracleTest, IntersectIsDoubleDifference) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  Database db;
  ASSERT_TRUE(db.DefineRelation("a", RelationType::kRollback, schema).ok());
  ASSERT_TRUE(db.DefineRelation("b", RelationType::kRollback, schema).ok());
  ASSERT_TRUE(db.ModifyState("a", gen.RandomState(schema, 20)).ok());
  ASSERT_TRUE(db.ModifyState("b", gen.RandomState(schema, 20)).ok());
  auto direct = Eval(db, "rho(a, inf) intersect rho(b, inf)");
  auto derived =
      Eval(db, "rho(a, inf) minus (rho(a, inf) minus rho(b, inf))");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(*direct == *derived);
}

TEST_P(DerivedOpOracleTest, JoinIsSelectedProductWithRenameAndProject) {
  // Natural join over one shared attribute k:
  //   A ⋈ B  =  π[k, x, y](σ[k = k2](A × rename[k→k2](B)))
  workload::Generator gen(GetParam() + 77);
  Schema left = *Schema::Make({{"k", ValueType::kInt},
                               {"x", ValueType::kString}});
  Schema right = *Schema::Make({{"k", ValueType::kInt},
                                {"y", ValueType::kString}});
  Database db;
  ASSERT_TRUE(db.DefineRelation("a", RelationType::kRollback, left).ok());
  ASSERT_TRUE(db.DefineRelation("b", RelationType::kRollback, right).ok());
  workload::GeneratorOptions narrow;
  narrow.value_range = 8;  // force key collisions
  workload::Generator values(GetParam() + 78, narrow);
  ASSERT_TRUE(db.ModifyState("a", values.RandomState(left, 15)).ok());
  ASSERT_TRUE(db.ModifyState("b", values.RandomState(right, 15)).ok());
  auto direct = Eval(db, "rho(a, inf) join rho(b, inf)");
  auto derived = Eval(db,
                      "project[k, x, y](select[k = k2]"
                      "(rho(a, inf) times rename[k -> k2](rho(b, inf))))");
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*direct == *derived);
}

TEST_P(DerivedOpOracleTest, HistoricalIntersectIsDoubleDifference) {
  workload::Generator gen(GetParam() + 200);
  const Schema schema = gen.RandomSchema();
  Database db;
  ASSERT_TRUE(db.DefineRelation("a", RelationType::kTemporal, schema).ok());
  ASSERT_TRUE(db.DefineRelation("b", RelationType::kTemporal, schema).ok());
  ASSERT_TRUE(
      db.ModifyState("a", gen.RandomHistoricalState(schema, 15)).ok());
  ASSERT_TRUE(
      db.ModifyState("b", gen.RandomHistoricalState(schema, 15)).ok());
  auto direct = Eval(db, "hrho(a, inf) intersect hrho(b, inf)");
  auto derived =
      Eval(db, "hrho(a, inf) minus (hrho(a, inf) minus hrho(b, inf))");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(*direct == *derived);
}

// --- The evaluator against a hand-rolled interpreter for a tiny core ----------

TEST_P(DerivedOpOracleTest, SelectProjectAgainstHandInterpreter) {
  workload::Generator gen(GetParam() + 400);
  Schema schema = *Schema::Make({{"a", ValueType::kInt},
                                 {"b", ValueType::kInt}});
  Database db;
  ASSERT_TRUE(db.DefineRelation("r", RelationType::kRollback, schema).ok());
  SnapshotState state = gen.RandomState(schema, 30);
  ASSERT_TRUE(db.ModifyState("r", state).ok());
  // Query: project[b](select[a < C](r))
  const int64_t cutoff = gen.rng().UniformInt(0, 100);
  auto via_lang = Eval(db, "project[b](select[a < " +
                               std::to_string(cutoff) + "](rho(r, inf)))");
  ASSERT_TRUE(via_lang.ok());
  // Hand interpreter.
  std::vector<Tuple> expected;
  for (const Tuple& t : state.tuples()) {
    if (t.at(0).AsInt() < cutoff) expected.push_back(Tuple{t.at(1)});
  }
  SnapshotState oracle = *SnapshotState::Make(
      *Schema::Make({{"b", ValueType::kInt}}), std::move(expected));
  EXPECT_EQ(std::get<SnapshotState>(*via_lang), oracle);
}

}  // namespace
}  // namespace ttra
