// Property tests for the fast read-path kernels: the hash-join operators
// must be observationally identical to their σ(×) / nested-loop
// definitions, copy-on-write reuse must hand back the input
// representation, and FINDSTATE must agree across every storage engine
// with the reconstruction cache on and off.

#include <gtest/gtest.h>

#include "historical/hoperators.h"
#include "lang/evaluator.h"
#include "rollback/commands.h"
#include "snapshot/operators.h"
#include "workload/generator.h"

namespace ttra {
namespace {

namespace sops = snapshot_ops;
namespace hops = historical_ops;

// Join operands: name-disjoint schemes with like-typed key columns plus a
// payload column, so equality conjuncts across the operands are common.
Schema LeftSchema() {
  return *Schema::Make({{"a0", ValueType::kInt},
                        {"a1", ValueType::kInt},
                        {"a2", ValueType::kString}});
}

Schema RightSchema() {
  return *Schema::Make({{"b0", ValueType::kInt},
                        {"b1", ValueType::kInt},
                        {"b2", ValueType::kDouble}});
}

Predicate EquiPred() {
  return Predicate::Comparison(Operand::Attr("a0"), CompareOp::kEq,
                               Operand::Attr("b0"));
}

class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST_P(JoinEquivalenceTest, ThetaJoinMatchesSelectOverProduct) {
  workload::Generator gen(GetParam());
  // Alternate which operand is smaller so both build-side branches run.
  const size_t ln = GetParam() % 2 == 0 ? 40 : 12;
  const size_t rn = GetParam() % 2 == 0 ? 12 : 40;
  const SnapshotState lhs = gen.RandomState(LeftSchema(), ln);
  const SnapshotState rhs = gen.RandomState(RightSchema(), rn);
  const Schema product_schema = *LeftSchema().Concat(RightSchema());

  std::vector<Predicate> predicates = {
      EquiPred(),
      Predicate::And(EquiPred(),
                     Predicate::AttrCompare("a1", CompareOp::kLt,
                                            Value::Int(50))),
      Predicate::And(EquiPred(),
                     Predicate::Comparison(Operand::Attr("a1"),
                                           CompareOp::kEq,
                                           Operand::Attr("b1"))),
      // No usable equality conjunct: exercises the nested-loop fallback.
      Predicate::AttrCompare("b1", CompareOp::kGe, Value::Int(20)),
      Predicate::Or(EquiPred(), Predicate::False()),
      gen.RandomPredicate(product_schema, 3),
  };
  for (const Predicate& pred : predicates) {
    auto joined = sops::ThetaJoin(lhs, rhs, pred);
    auto product = sops::Product(lhs, rhs);
    ASSERT_TRUE(product.ok());
    auto reference = sops::Select(*product, pred);
    ASSERT_EQ(joined.ok(), reference.ok()) << pred.ToString();
    if (joined.ok()) {
      EXPECT_EQ(*joined, *reference) << pred.ToString();
    }
  }
}

TEST_P(JoinEquivalenceTest, HistoricalThetaJoinMatchesSelectOverProduct) {
  workload::Generator gen(GetParam() + 100);
  const HistoricalState lhs = gen.RandomHistoricalState(LeftSchema(), 25);
  const HistoricalState rhs = gen.RandomHistoricalState(RightSchema(), 25);
  const Schema product_schema = *LeftSchema().Concat(RightSchema());

  std::vector<Predicate> predicates = {
      EquiPred(),
      Predicate::And(EquiPred(),
                     Predicate::AttrCompare("b1", CompareOp::kGt,
                                            Value::Int(10))),
      Predicate::AttrCompare("a1", CompareOp::kLe, Value::Int(70)),
      gen.RandomPredicate(product_schema, 3),
  };
  for (const Predicate& pred : predicates) {
    auto joined = hops::ThetaJoin(lhs, rhs, pred);
    auto product = hops::Product(lhs, rhs);
    ASSERT_TRUE(product.ok());
    auto reference = hops::Select(*product, pred);
    ASSERT_EQ(joined.ok(), reference.ok()) << pred.ToString();
    if (joined.ok()) {
      EXPECT_EQ(*joined, *reference) << pred.ToString();
    }
  }
}

TEST_P(JoinEquivalenceTest, NaturalJoinMatchesNestedLoopReference) {
  workload::Generator gen(GetParam() + 200);
  // Operands share columns n0/n1; s and t are private payloads.
  const Schema left = *Schema::Make({{"n0", ValueType::kInt},
                                     {"s", ValueType::kString},
                                     {"n1", ValueType::kInt}});
  const Schema right = *Schema::Make({{"n1", ValueType::kInt},
                                      {"t", ValueType::kDouble},
                                      {"n0", ValueType::kInt}});
  const SnapshotState lhs = gen.RandomState(left, 35);
  const SnapshotState rhs = gen.RandomState(right, 35);

  auto joined = sops::NaturalJoin(lhs, rhs);
  ASSERT_TRUE(joined.ok());

  // Oracle: brute-force nested loop with the same schema rules.
  std::vector<Tuple> expected;
  for (const Tuple& a : lhs.tuples()) {
    for (const Tuple& b : rhs.tuples()) {
      if (a.at(0) == b.at(2) && a.at(2) == b.at(0)) {
        expected.push_back(Tuple{a.at(0), a.at(1), a.at(2), b.at(1)});
      }
    }
  }
  const Schema joined_schema = *Schema::Make({{"n0", ValueType::kInt},
                                              {"s", ValueType::kString},
                                              {"n1", ValueType::kInt},
                                              {"t", ValueType::kDouble}});
  auto reference = SnapshotState::Make(joined_schema, std::move(expected));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*joined, *reference);
}

TEST_P(JoinEquivalenceTest, HistoricalNaturalJoinMatchesNestedLoopReference) {
  workload::Generator gen(GetParam() + 300);
  const Schema left = *Schema::Make({{"k", ValueType::kInt},
                                     {"u", ValueType::kInt}});
  const Schema right = *Schema::Make({{"k", ValueType::kInt},
                                      {"v", ValueType::kInt}});
  const HistoricalState lhs = gen.RandomHistoricalState(left, 20);
  const HistoricalState rhs = gen.RandomHistoricalState(right, 20);

  auto joined = hops::NaturalJoin(lhs, rhs);
  ASSERT_TRUE(joined.ok());

  std::vector<HistoricalTuple> expected;
  for (const HistoricalTuple& a : lhs.tuples()) {
    for (const HistoricalTuple& b : rhs.tuples()) {
      if (!(a.tuple.at(0) == b.tuple.at(0))) continue;
      TemporalElement both = a.valid.Intersect(b.valid);
      if (both.empty()) continue;
      expected.push_back(HistoricalTuple{
          Tuple{a.tuple.at(0), a.tuple.at(1), b.tuple.at(1)},
          std::move(both)});
    }
  }
  const Schema joined_schema = *Schema::Make({{"k", ValueType::kInt},
                                              {"u", ValueType::kInt},
                                              {"v", ValueType::kInt}});
  auto reference = HistoricalState::Make(joined_schema, std::move(expected));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*joined, *reference);
}

// --- Copy-on-write fast paths -------------------------------------------------

TEST(CowFastPathTest, SelectKeepingEverythingReusesTheInputState) {
  workload::Generator gen(42);
  const SnapshotState state = gen.RandomState(LeftSchema(), 30);
  auto all = sops::Select(state, Predicate::True());
  ASSERT_TRUE(all.ok());
  // Same shared representation, not a copy.
  EXPECT_EQ(all->tuples().data(), state.tuples().data());

  auto none = sops::Select(
      state, Predicate::AttrCompare("a0", CompareOp::kLt, Value::Int(-1)));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(CowFastPathTest, HistoricalSelectKeepingEverythingReusesTheInput) {
  workload::Generator gen(43);
  const HistoricalState state = gen.RandomHistoricalState(LeftSchema(), 20);
  auto all = hops::Select(state, Predicate::True());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->tuples().data(), state.tuples().data());
}

TEST(CowFastPathTest, StateCopiesShareRepresentation) {
  workload::Generator gen(44);
  const SnapshotState state = gen.RandomState(LeftSchema(), 10);
  const SnapshotState copy = state;
  EXPECT_EQ(copy.tuples().data(), state.tuples().data());
  EXPECT_EQ(copy, state);
}

// --- Product guards -----------------------------------------------------------

TEST(ProductGuardTest, RejectsOverlappingAttributeNames) {
  workload::Generator gen(45);
  const SnapshotState lhs = gen.RandomState(LeftSchema(), 3);
  auto result = sops::Product(lhs, lhs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("disjoint"), std::string::npos)
      << result.status().message();

  auto hlhs = gen.RandomHistoricalState(LeftSchema(), 3);
  auto hresult = hops::Product(hlhs, hlhs);
  ASSERT_FALSE(hresult.ok());
  EXPECT_NE(hresult.status().message().find("disjoint"), std::string::npos);
}

TEST(ProductGuardTest, EmptyOperandsProduceEmptyProduct) {
  auto result = sops::Product(SnapshotState::Empty(LeftSchema()),
                              SnapshotState::Empty(RightSchema()));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// --- Evaluator fusion ---------------------------------------------------------

TEST(EvaluatorFusionTest, SelectOverProductMatchesUnfusedSemantics) {
  Database db;
  ASSERT_TRUE(lang::Run("define_relation(r, snapshot, (a: int, x: int));"
                        "modify_state(r, (a: int, x: int) "
                        "{(1, 10), (2, 20), (3, 30)});"
                        "define_relation(s, snapshot, (b: int, y: int));"
                        "modify_state(s, (b: int, y: int) "
                        "{(2, 200), (3, 300), (4, 400)});",
                        db, nullptr)
                  .ok());
  std::vector<lang::StateValue> outputs;
  ASSERT_TRUE(lang::Run(
                  "show(select[a = b](rho(r, inf) times rho(s, inf)));",
                  db, &outputs)
                  .ok());
  ASSERT_EQ(outputs.size(), 1u);
  const auto& state = std::get<SnapshotState>(outputs[0]);
  const Schema schema = *Schema::Make({{"a", ValueType::kInt},
                                       {"x", ValueType::kInt},
                                       {"b", ValueType::kInt},
                                       {"y", ValueType::kInt}});
  const SnapshotState expected = *SnapshotState::Make(
      schema,
      {Tuple{Value::Int(2), Value::Int(20), Value::Int(2), Value::Int(200)},
       Tuple{Value::Int(3), Value::Int(30), Value::Int(3), Value::Int(300)}});
  EXPECT_EQ(state, expected);
}

TEST(EvaluatorFusionTest, FusedSelectStillRejectsMixedOperands) {
  Database db;
  ASSERT_TRUE(lang::Run("define_relation(r, snapshot, (a: int));"
                        "define_relation(h, historical, (b: int));",
                        db, nullptr)
                  .ok());
  std::vector<lang::StateValue> outputs;
  Status status = lang::Run(
      "show(select[a = b](rho(r, inf) times hrho(h, inf)));", db, &outputs);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("mixes snapshot and historical"),
            std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace ttra
