#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "alloc_counter.h"
#include "predicate_oracle.h"
#include "snapshot/operators.h"
#include "snapshot/predicate.h"
#include "snapshot/schema.h"
#include "snapshot/state.h"
#include "snapshot/value.h"
#include "util/random.h"
#include "workload/generator.h"

namespace ttra {
namespace {

namespace ops = snapshot_ops;

Schema MakeSchema(std::vector<Attribute> attrs) {
  return *Schema::Make(std::move(attrs));
}

const Schema& TwoCol() {
  static const Schema* schema = new Schema(MakeSchema(
      {{"id", ValueType::kInt}, {"name", ValueType::kString}}));
  return *schema;
}

SnapshotState State(std::vector<Tuple> tuples) {
  return *SnapshotState::Make(TwoCol(), std::move(tuples));
}

Tuple Row(int64_t id, std::string name) {
  return Tuple{Value::Int(id), Value::String(std::move(name))};
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, TypeAndAccessors) {
  EXPECT_EQ(Value::Int(7).type(), ValueType::kInt);
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Time(99).AsTime().ticks, 99);
}

TEST(ValueTest, ToStringLiterals) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(4).ToString(), "4.0");  // round-trips as double
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Time(12).ToString(), "@12");
}

TEST(ValueTest, CompareWithinType) {
  auto cmp = [](const Value& a, const Value& b) {
    return *Value::Compare(a, b);
  };
  EXPECT_LT(cmp(Value::Int(1), Value::Int(2)), 0);
  EXPECT_EQ(cmp(Value::String("a"), Value::String("a")), 0);
  EXPECT_GT(cmp(Value::Time(5), Value::Time(1)), 0);
  EXPECT_LT(cmp(Value::Bool(false), Value::Bool(true)), 0);
}

TEST(ValueTest, CompareIntDoubleIsNumeric) {
  EXPECT_EQ(*Value::Compare(Value::Int(2), Value::Double(2.0)), 0);
  EXPECT_LT(*Value::Compare(Value::Int(2), Value::Double(2.5)), 0);
  EXPECT_GT(*Value::Compare(Value::Double(3.0), Value::Int(2)), 0);
}

TEST(ValueTest, CompareAcrossTypesFails) {
  auto r = Value::Compare(Value::Int(1), Value::String("1"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kTypeMismatch);
  EXPECT_FALSE(Value::Compare(Value::Bool(true), Value::Time(1)).ok());
}

TEST(ValueTest, HashRespectsEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  // Same payload, different type should hash differently.
  EXPECT_NE(Value::Int(5).Hash(), Value::Time(5).Hash());
}

TEST(ValueTest, CanonicalOrderIsTypeThenNaturalOrder) {
  // The model: type tag first, then the order within the type; NaN is
  // neither below nor above any double, as under the raw double `<`.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Int(-3),      Value::Int(0),        Value::Int(7),
      Value::Double(-0.0), Value::Double(0.0),   Value::Double(2.5),
      Value::Double(nan),  Value::String(""),    Value::String("a"),
      Value::String("ab"), Value::String("b"),   Value::Bool(false),
      Value::Bool(true),   Value::Time(-1),      Value::Time(4)};
  auto model = [](const Value& a, const Value& b) {
    if (a.type() != b.type()) return a.type() < b.type() ? -1 : 1;
    auto sign = [](const auto& x, const auto& y) {
      return x < y ? -1 : (y < x ? 1 : 0);
    };
    switch (a.type()) {
      case ValueType::kInt:
        return sign(a.AsInt(), b.AsInt());
      case ValueType::kDouble:
        return sign(a.AsDouble(), b.AsDouble());
      case ValueType::kString:
        return sign(a.AsString(), b.AsString());
      case ValueType::kBool:
        return sign(a.AsBool(), b.AsBool());
      case ValueType::kUserTime:
        return sign(a.AsTime().ticks, b.AsTime().ticks);
    }
    return 0;
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      const int order = Value::CanonicalOrder(a, b);
      EXPECT_EQ((order > 0) - (order < 0), model(a, b)) << a << " vs " << b;
      EXPECT_EQ(a < b, model(a, b) < 0) << a << " vs " << b;
    }
  }
}

TEST(ValueTest, ParseValueTypeRoundTrip) {
  for (ValueType t : {ValueType::kInt, ValueType::kDouble, ValueType::kString,
                      ValueType::kBool, ValueType::kUserTime}) {
    auto parsed = ParseValueType(ValueTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(ParseValueType("float").ok());
}

// --- Schema -----------------------------------------------------------------

TEST(SchemaTest, MakeRejectsDuplicates) {
  auto r = Schema::Make({{"a", ValueType::kInt}, {"a", ValueType::kBool}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(SchemaTest, MakeRejectsNonIdentifiers) {
  EXPECT_FALSE(Schema::Make({{"1bad", ValueType::kInt}}).ok());
  EXPECT_FALSE(Schema::Make({{"a b", ValueType::kInt}}).ok());
  EXPECT_TRUE(Schema::Make({}).ok());
}

TEST(SchemaTest, IndexOfAndNames) {
  const Schema& s = TwoCol();
  EXPECT_EQ(s.IndexOf("id"), 0u);
  EXPECT_EQ(s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
  EXPECT_EQ(s.Names(), (std::vector<std::string>{"id", "name"}));
}

TEST(SchemaTest, ProjectKeepsOrderGiven) {
  auto projected = TwoCol().Project({"name", "id"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->Names(), (std::vector<std::string>{"name", "id"}));
  EXPECT_FALSE(TwoCol().Project({"zzz"}).ok());
}

TEST(SchemaTest, ConcatRequiresDisjointNames) {
  Schema other = MakeSchema({{"salary", ValueType::kInt}});
  auto combined = TwoCol().Concat(other);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->size(), 3u);
  EXPECT_FALSE(TwoCol().Concat(TwoCol()).ok());
}

TEST(SchemaTest, Rename) {
  auto renamed = TwoCol().Rename("id", "key");
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed->IndexOf("key").has_value());
  EXPECT_FALSE(renamed->IndexOf("id").has_value());
  EXPECT_FALSE(TwoCol().Rename("missing", "x").ok());
  EXPECT_FALSE(TwoCol().Rename("id", "name").ok());
}

TEST(SchemaTest, CopiesShareOneAttributeList) {
  const Schema copy = TwoCol();
  EXPECT_EQ(copy.attributes().data(), TwoCol().attributes().data());
  // Every state over one scheme holds the same list.
  const SnapshotState a = State({Row(1, "a")});
  const SnapshotState b = State({Row(2, "b")});
  EXPECT_EQ(a.schema().attributes().data(), b.schema().attributes().data());
  EXPECT_EQ(MakeSchema({}).attributes().data(), nullptr);
}

TEST(SchemaTest, ToStringForm) {
  EXPECT_EQ(TwoCol().ToString(), "(id: int, name: string)");
  EXPECT_EQ(MakeSchema({}).ToString(), "()");
}

// --- Tuple / State ------------------------------------------------------------

TEST(TupleTest, ConformsToChecksArityAndTypes) {
  EXPECT_TRUE(Row(1, "a").ConformsTo(TwoCol()).ok());
  EXPECT_FALSE(Tuple{Value::Int(1)}.ConformsTo(TwoCol()).ok());
  Tuple wrong{Value::String("x"), Value::String("y")};
  auto status = wrong.ConformsTo(TwoCol());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTypeMismatch);
}

TEST(TupleTest, IsOnePointer) {
  static_assert(sizeof(Tuple) == sizeof(void*));
  static_assert(sizeof(Schema) == sizeof(void*));
}

TEST(TupleTest, CopiesShareOnePayload) {
  const Tuple a = Row(1, "a");
  const Tuple b = a;
  Tuple c;
  c = b;
  EXPECT_EQ(a.values().data(), b.values().data());
  EXPECT_EQ(a.values().data(), c.values().data());
  // An equal tuple built separately is equal but has its own payload.
  const Tuple d = Row(1, "a");
  EXPECT_EQ(a, d);
  EXPECT_NE(a.values().data(), d.values().data());
  // A state's tuples are the caller's tuples, not copies of their values.
  const SnapshotState state = State({a});
  EXPECT_EQ(state.tuples()[0].values().data(), a.values().data());
}

TEST(TupleTest, MoveLeavesAnEmptyTuple) {
  Tuple a = Row(7, "x");
  const Value* payload = a.values().data();
  Tuple b = std::move(a);
  EXPECT_EQ(b.values().data(), payload);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a, Tuple());    // NOLINT(bugprone-use-after-move)
  Tuple c;
  c = std::move(b);
  EXPECT_EQ(c.values().data(), payload);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c, Row(7, "x"));
}

TEST(TupleTest, ZeroArity) {
  const Tuple empty;
  const Tuple built = Tuple::Builder(0).Build();
  const Tuple from_vector{std::vector<Value>{}};
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.values().empty());
  EXPECT_EQ(empty, built);
  EXPECT_EQ(empty, from_vector);
  EXPECT_FALSE(empty < built);
  EXPECT_TRUE(empty < Tuple{Value::Int(0)});
  EXPECT_EQ(empty.ToString(), "()");
  EXPECT_EQ(empty.Hash(), built.Hash());
  const Schema none = MakeSchema({});
  EXPECT_TRUE(empty.ConformsTo(none).ok());
  const SnapshotState state = *SnapshotState::Make(none, {empty, built});
  EXPECT_EQ(state.size(), 1u);
}

TEST(TupleTest, BuilderWritesTheValuesInOrder) {
  Tuple::Builder builder(3);
  builder.Add(Value::Int(1));
  const std::vector<Value> rest = {Value::String("s"), Value::Bool(true)};
  builder.Append(rest);
  const Tuple t = std::move(builder).Build();
  EXPECT_EQ(t, (Tuple{Value::Int(1), Value::String("s"), Value::Bool(true)}));
}

TEST(TupleTest, EqualityAndOrderAgreeWithAVectorModel) {
  workload::Generator gen(17, {.value_range = 3, .max_string_length = 2});
  Rng rng(29);
  const ValueType kTypes[] = {ValueType::kInt, ValueType::kString,
                              ValueType::kBool};
  std::vector<Tuple> tuples;
  for (int i = 0; i < 300; ++i) {
    std::vector<Value> values;
    for (size_t j = rng.Uniform(4); j > 0; --j) {
      values.push_back(gen.RandomValue(kTypes[rng.Uniform(3)]));
    }
    tuples.emplace_back(std::move(values));
    // Every few tuples, a copy on the same payload.
    if (i % 7 == 0) tuples.push_back(tuples.back());
  }
  auto model = [](const Tuple& t) {
    return std::vector<Value>(t.values().begin(), t.values().end());
  };
  for (const Tuple& a : tuples) {
    for (const Tuple& b : tuples) {
      ASSERT_EQ(a == b, model(a) == model(b)) << a << " vs " << b;
      ASSERT_EQ(a < b, model(a) < model(b)) << a << " vs " << b;
      if (a == b) {
        ASSERT_EQ(a.Hash(), b.Hash());
      }
    }
  }
}

TEST(StateTest, MakeCanonicalizesSortedUnique) {
  SnapshotState s = State({Row(2, "b"), Row(1, "a"), Row(2, "b")});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.tuples()[0], Row(1, "a"));
  EXPECT_EQ(s.tuples()[1], Row(2, "b"));
}

TEST(StateTest, EqualityIsSetEquality) {
  EXPECT_EQ(State({Row(1, "a"), Row(2, "b")}),
            State({Row(2, "b"), Row(1, "a")}));
  EXPECT_NE(State({Row(1, "a")}), State({Row(1, "b")}));
}

TEST(StateTest, MakeRejectsNonConformingTuple) {
  auto r = SnapshotState::Make(TwoCol(), {Tuple{Value::Bool(true)}});
  EXPECT_FALSE(r.ok());
}

TEST(StateTest, Contains) {
  SnapshotState s = State({Row(1, "a"), Row(3, "c")});
  EXPECT_TRUE(s.Contains(Row(1, "a")));
  EXPECT_FALSE(s.Contains(Row(2, "b")));
}

TEST(StateTest, ToStringLiteralForm) {
  SnapshotState s = State({Row(1, "a")});
  EXPECT_EQ(s.ToString(), "(id: int, name: string) {(1, \"a\")}");
  EXPECT_EQ(SnapshotState::Empty(MakeSchema({})).ToString(), "() {}");
}

// --- Predicates ---------------------------------------------------------------

// F(t) by the bound form, the evaluator σ and the θ-joins run.
bool BoundEval(const Predicate& p, const Schema& schema, const Tuple& t) {
  return BoundPredicate::Bind(p, schema)->Eval(t);
}

TEST(PredicateTest, ComparisonEval) {
  Predicate p = Predicate::AttrCompare("id", CompareOp::kGt, Value::Int(1));
  EXPECT_FALSE(BoundEval(p, TwoCol(), Row(1, "a")));
  EXPECT_TRUE(BoundEval(p, TwoCol(), Row(2, "b")));
  EXPECT_FALSE(*testutil::ReferenceEval(p, TwoCol(), Row(1, "a")));
  EXPECT_TRUE(*testutil::ReferenceEval(p, TwoCol(), Row(2, "b")));
}

TEST(PredicateTest, AllComparisonOps) {
  auto eval = [](CompareOp op, int64_t lhs, int64_t rhs) {
    Predicate p = Predicate::Comparison(Operand::Const(Value::Int(lhs)), op,
                                        Operand::Const(Value::Int(rhs)));
    const bool bound = BoundEval(p, Schema(), Tuple{});
    EXPECT_EQ(bound, *testutil::ReferenceEval(p, Schema(), Tuple{}));
    return bound;
  };
  EXPECT_TRUE(eval(CompareOp::kEq, 1, 1));
  EXPECT_FALSE(eval(CompareOp::kEq, 1, 2));
  EXPECT_TRUE(eval(CompareOp::kNe, 1, 2));
  EXPECT_TRUE(eval(CompareOp::kLt, 1, 2));
  EXPECT_TRUE(eval(CompareOp::kLe, 2, 2));
  EXPECT_TRUE(eval(CompareOp::kGt, 3, 2));
  EXPECT_TRUE(eval(CompareOp::kGe, 2, 2));
  EXPECT_FALSE(eval(CompareOp::kGe, 1, 2));
}

TEST(PredicateTest, LogicalConnectivesShortCircuit) {
  Predicate id_pos = Predicate::AttrCompare("id", CompareOp::kGt,
                                            Value::Int(0));
  // The right operand would error (unknown attribute), but the by-tuple
  // reference evaluation never reaches it. Binding checks the whole
  // predicate up front, so it refuses both, as Validate does.
  Predicate bad = Predicate::AttrCompare("zzz", CompareOp::kEq,
                                         Value::Int(0));
  Predicate or_pred = Predicate::Or(id_pos, bad);
  EXPECT_TRUE(*testutil::ReferenceEval(or_pred, TwoCol(), Row(5, "x")));
  Predicate and_pred = Predicate::And(Predicate::Not(id_pos), bad);
  EXPECT_FALSE(*testutil::ReferenceEval(and_pred, TwoCol(), Row(5, "x")));
  EXPECT_EQ(BoundPredicate::Bind(or_pred, TwoCol()).status(),
            or_pred.Validate(TwoCol()));
  EXPECT_FALSE(BoundPredicate::Bind(and_pred, TwoCol()).ok());
}

TEST(PredicateTest, EvalErrorsOnUnknownAttribute) {
  Predicate p = Predicate::AttrCompare("zzz", CompareOp::kEq, Value::Int(0));
  auto r = testutil::ReferenceEval(p, TwoCol(), Row(1, "a"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kSchemaMismatch);
  auto bound = BoundPredicate::Bind(p, TwoCol());
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(PredicateTest, DefaultsShareOneNode) {
  // The true/false literals are shared immutable nodes, made once per
  // process: after that, a default predicate or either literal allocates
  // nothing.
  (void)Predicate::True();
  (void)Predicate::False();
  EXPECT_EQ(testutil::AllocationsDuring([] {
              Predicate defaulted;
              Predicate yes = Predicate::True();
              Predicate no = Predicate::False();
              (void)defaulted;
              (void)yes;
              (void)no;
            }),
            0u);
  EXPECT_TRUE(Predicate().IsTrueLiteral());
  EXPECT_TRUE(Predicate::False().IsFalseLiteral());
}

TEST(PredicateTest, ValidateCatchesTypeMismatch) {
  Predicate p = Predicate::AttrCompare("id", CompareOp::kEq,
                                       Value::String("x"));
  auto status = p.Validate(TwoCol());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTypeMismatch);
  EXPECT_TRUE(Predicate::AttrCompare("id", CompareOp::kLt, Value::Double(1.5))
                  .Validate(TwoCol())
                  .ok());  // numeric mixing allowed
}

TEST(PredicateTest, AttributeNamesAndRename) {
  Predicate p = Predicate::And(
      Predicate::AttrCompare("id", CompareOp::kGt, Value::Int(0)),
      Predicate::Not(
          Predicate::AttrCompare("name", CompareOp::kEq,
                                 Value::String("x"))));
  EXPECT_EQ(p.AttributeNames(), (std::set<std::string>{"id", "name"}));
  Predicate renamed = p.RenameAttribute("id", "key");
  EXPECT_EQ(renamed.AttributeNames(), (std::set<std::string>{"key", "name"}));
}

TEST(PredicateTest, ToStringAndEquality) {
  Predicate p = Predicate::Or(
      Predicate::AttrCompare("id", CompareOp::kLe, Value::Int(3)),
      Predicate::False());
  EXPECT_EQ(p.ToString(), "(id <= 3 or false)");
  Predicate q = Predicate::Or(
      Predicate::AttrCompare("id", CompareOp::kLe, Value::Int(3)),
      Predicate::False());
  EXPECT_EQ(p, q);
  EXPECT_FALSE(p == Predicate::True());
}

// --- Operators -----------------------------------------------------------------

TEST(OperatorsTest, UnionMergesSets) {
  auto r = ops::Union(State({Row(1, "a"), Row(2, "b")}),
                      State({Row(2, "b"), Row(3, "c")}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, State({Row(1, "a"), Row(2, "b"), Row(3, "c")}));
}

TEST(OperatorsTest, UnionRequiresIdenticalSchemas) {
  SnapshotState other = *SnapshotState::Make(
      MakeSchema({{"x", ValueType::kInt}}), {Tuple{Value::Int(1)}});
  auto r = ops::Union(State({}), other);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kSchemaMismatch);
}

TEST(OperatorsTest, Difference) {
  auto r = ops::Difference(State({Row(1, "a"), Row(2, "b")}),
                           State({Row(2, "b"), Row(9, "z")}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, State({Row(1, "a")}));
}

TEST(OperatorsTest, ProductConcatenatesTuples) {
  SnapshotState nums = *SnapshotState::Make(
      MakeSchema({{"n", ValueType::kInt}}),
      {Tuple{Value::Int(1)}, Tuple{Value::Int(2)}});
  SnapshotState flags = *SnapshotState::Make(
      MakeSchema({{"f", ValueType::kBool}}), {Tuple{Value::Bool(true)}});
  auto r = ops::Product(nums, flags);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->schema().Names(), (std::vector<std::string>{"n", "f"}));
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(1), Value::Bool(true)}));
}

TEST(OperatorsTest, ProductRejectsNameCollision) {
  EXPECT_FALSE(ops::Product(State({}), State({})).ok());
}

TEST(OperatorsTest, ProjectDropsDuplicates) {
  auto r = ops::Project(State({Row(1, "same"), Row(2, "same")}), {"name"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->tuples()[0], Tuple{Value::String("same")});
}

TEST(OperatorsTest, ProjectUnknownAttributeFails) {
  EXPECT_FALSE(ops::Project(State({}), {"ghost"}).ok());
}

TEST(OperatorsTest, SelectFilters) {
  Predicate p = Predicate::AttrCompare("id", CompareOp::kGe, Value::Int(2));
  auto r = ops::Select(State({Row(1, "a"), Row(2, "b"), Row(3, "c")}), p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, State({Row(2, "b"), Row(3, "c")}));
}

TEST(OperatorsTest, SelectValidatesPredicate) {
  Predicate p = Predicate::AttrCompare("ghost", CompareOp::kEq,
                                       Value::Int(0));
  EXPECT_FALSE(ops::Select(State({Row(1, "a")}), p).ok());
}

TEST(OperatorsTest, IntersectMatchesDifferenceIdentity) {
  SnapshotState a = State({Row(1, "a"), Row(2, "b"), Row(3, "c")});
  SnapshotState b = State({Row(2, "b"), Row(3, "c"), Row(4, "d")});
  auto direct = ops::Intersect(a, b);
  auto via_diff = ops::Difference(a, *ops::Difference(a, b));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_diff.ok());
  EXPECT_EQ(*direct, *via_diff);
}

TEST(OperatorsTest, ThetaJoinEqualsSelectOverProduct) {
  SnapshotState nums = *SnapshotState::Make(
      MakeSchema({{"n", ValueType::kInt}}),
      {Tuple{Value::Int(1)}, Tuple{Value::Int(2)}});
  SnapshotState more = *SnapshotState::Make(
      MakeSchema({{"m", ValueType::kInt}}),
      {Tuple{Value::Int(2)}, Tuple{Value::Int(3)}});
  Predicate eq = Predicate::Comparison(Operand::Attr("n"), CompareOp::kEq,
                                       Operand::Attr("m"));
  auto joined = ops::ThetaJoin(nums, more, eq);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 1u);
  EXPECT_TRUE(joined->Contains(Tuple{Value::Int(2), Value::Int(2)}));
}

TEST(OperatorsTest, NaturalJoinSharesColumns) {
  Schema left = MakeSchema({{"id", ValueType::kInt},
                            {"dept", ValueType::kString}});
  Schema right = MakeSchema({{"dept", ValueType::kString},
                             {"floor", ValueType::kInt}});
  SnapshotState l = *SnapshotState::Make(
      left, {Tuple{Value::Int(1), Value::String("cs")},
             Tuple{Value::Int(2), Value::String("ee")}});
  SnapshotState r = *SnapshotState::Make(
      right, {Tuple{Value::String("cs"), Value::Int(3)}});
  auto joined = ops::NaturalJoin(l, r);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->schema().Names(),
            (std::vector<std::string>{"id", "dept", "floor"}));
  EXPECT_EQ(joined->size(), 1u);
  EXPECT_TRUE(joined->Contains(
      Tuple{Value::Int(1), Value::String("cs"), Value::Int(3)}));
}

TEST(OperatorsTest, NaturalJoinWithNoSharedAttrsIsProduct) {
  SnapshotState nums = *SnapshotState::Make(
      MakeSchema({{"n", ValueType::kInt}}), {Tuple{Value::Int(1)}});
  SnapshotState flags = *SnapshotState::Make(
      MakeSchema({{"f", ValueType::kBool}}), {Tuple{Value::Bool(false)}});
  auto joined = ops::NaturalJoin(nums, flags);
  auto product = ops::Product(nums, flags);
  ASSERT_TRUE(joined.ok());
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(*joined, *product);
}

TEST(OperatorsTest, RenameChangesSchemaOnly) {
  auto r = ops::Rename(State({Row(1, "a")}), "id", "key");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().Names(), (std::vector<std::string>{"key", "name"}));
  EXPECT_EQ(r->tuples()[0], Row(1, "a"));
}

// --- Algebraic laws on random states (experiment E1 correctness side) --------

class AlgebraLawTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraLawTest,
                         ::testing::Range<uint64_t>(0, 20));

TEST_P(AlgebraLawTest, UnionCommutesAndAssociates) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 20);
  SnapshotState b = gen.RandomState(schema, 20);
  SnapshotState c = gen.RandomState(schema, 20);
  EXPECT_EQ(*ops::Union(a, b), *ops::Union(b, a));
  EXPECT_EQ(*ops::Union(*ops::Union(a, b), c),
            *ops::Union(a, *ops::Union(b, c)));
}

TEST_P(AlgebraLawTest, SelectCommutes) {
  workload::Generator gen(GetParam() + 1000);
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 30);
  Predicate f = gen.RandomPredicate(schema);
  Predicate g = gen.RandomPredicate(schema);
  EXPECT_EQ(*ops::Select(*ops::Select(a, f), g),
            *ops::Select(*ops::Select(a, g), f));
}

TEST_P(AlgebraLawTest, SelectMergesIntoConjunction) {
  workload::Generator gen(GetParam() + 2000);
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 30);
  Predicate f = gen.RandomPredicate(schema);
  Predicate g = gen.RandomPredicate(schema);
  EXPECT_EQ(*ops::Select(*ops::Select(a, g), f),
            *ops::Select(a, Predicate::And(f, g)));
}

TEST_P(AlgebraLawTest, SelectDistributesOverUnionAndDifference) {
  workload::Generator gen(GetParam() + 3000);
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 25);
  SnapshotState b = gen.RandomState(schema, 25);
  Predicate f = gen.RandomPredicate(schema);
  EXPECT_EQ(*ops::Select(*ops::Union(a, b), f),
            *ops::Union(*ops::Select(a, f), *ops::Select(b, f)));
  EXPECT_EQ(*ops::Select(*ops::Difference(a, b), f),
            *ops::Difference(*ops::Select(a, f), *ops::Select(b, f)));
}

TEST_P(AlgebraLawTest, DeMorganOnPredicates) {
  workload::Generator gen(GetParam() + 4000);
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 30);
  Predicate f = gen.RandomPredicate(schema);
  Predicate g = gen.RandomPredicate(schema);
  EXPECT_EQ(*ops::Select(a, Predicate::Not(Predicate::And(f, g))),
            *ops::Select(a, Predicate::Or(Predicate::Not(f),
                                          Predicate::Not(g))));
}

TEST_P(AlgebraLawTest, SelectionSplitsStateIntoPartition) {
  workload::Generator gen(GetParam() + 5000);
  const Schema schema = gen.RandomSchema();
  SnapshotState a = gen.RandomState(schema, 30);
  Predicate f = gen.RandomPredicate(schema);
  SnapshotState kept = *ops::Select(a, f);
  SnapshotState dropped = *ops::Select(a, Predicate::Not(f));
  EXPECT_EQ(*ops::Union(kept, dropped), a);
  EXPECT_TRUE(ops::Intersect(kept, dropped)->empty());
}

// --- Bound predicates against the reference evaluator ----------------------

// One attribute per type, two of each numeric type, so comparisons mix
// attribute and constant operands of every domain.
const Schema& AllTypes() {
  static const Schema* schema = new Schema(MakeSchema({
      {"i", ValueType::kInt},
      {"j", ValueType::kInt},
      {"d", ValueType::kDouble},
      {"e", ValueType::kDouble},
      {"s", ValueType::kString},
      {"b", ValueType::kBool},
      {"t", ValueType::kUserTime},
  }));
  return *schema;
}

// Small domains, so comparisons tie often; NaN and signed zeros included.
Value RandomValue(Rng& rng, ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return Value::Int(rng.UniformInt(-3, 3));
    case ValueType::kDouble: {
      static const double kDoubles[] = {
          -2.5, -1.0, -0.0, 0.0, 1.0, 2.0, 2.5,
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()};
      return Value::Double(kDoubles[rng.Uniform(std::size(kDoubles))]);
    }
    case ValueType::kString: {
      static const char* kStrings[] = {"", "a", "ab", "b", "B"};
      return Value::String(kStrings[rng.Uniform(std::size(kStrings))]);
    }
    case ValueType::kBool:
      return Value::Bool(rng.Bernoulli(0.5));
    case ValueType::kUserTime:
      return Value::Time(rng.UniformInt(-2, 2));
  }
  return Value();
}

Tuple RandomRow(Rng& rng, const Schema& schema) {
  std::vector<Value> values;
  for (const Attribute& attr : schema.attributes()) {
    values.push_back(RandomValue(rng, attr.type));
  }
  return Tuple(std::move(values));
}

// An operand of `type`: an attribute of that type or a constant.
Operand RandomOperand(Rng& rng, ValueType type) {
  if (rng.Bernoulli(0.5)) return Operand::Const(RandomValue(rng, type));
  std::vector<std::string> names;
  for (const Attribute& attr : AllTypes().attributes()) {
    if (attr.type == type) names.push_back(attr.name);
  }
  return Operand::Attr(names[rng.Uniform(names.size())]);
}

// A random and/or/not predicate. With `invalid_rate` > 0 some comparisons
// mix uncomparable types or name a missing attribute.
Predicate RandomPredicate(Rng& rng, int depth, double invalid_rate) {
  const uint64_t pick = depth <= 0 ? 0 : rng.Uniform(6);
  if (pick == 3) {
    return Predicate::And(RandomPredicate(rng, depth - 1, invalid_rate),
                          RandomPredicate(rng, depth - 1, invalid_rate));
  }
  if (pick == 4) {
    return Predicate::Or(RandomPredicate(rng, depth - 1, invalid_rate),
                         RandomPredicate(rng, depth - 1, invalid_rate));
  }
  if (pick == 5) {
    return Predicate::Not(RandomPredicate(rng, depth - 1, invalid_rate));
  }
  if (rng.Bernoulli(0.05)) {
    return rng.Bernoulli(0.5) ? Predicate::True() : Predicate::False();
  }
  const auto type = static_cast<ValueType>(rng.Uniform(5));
  Operand lhs = RandomOperand(rng, type);
  ValueType rhs_type = type;
  if (type == ValueType::kInt || type == ValueType::kDouble) {
    rhs_type = rng.Bernoulli(0.5) ? ValueType::kInt : ValueType::kDouble;
  }
  if (rng.Bernoulli(invalid_rate)) {
    rhs_type = static_cast<ValueType>(rng.Uniform(5));
  }
  Operand rhs = RandomOperand(rng, rhs_type);
  if (rng.Bernoulli(invalid_rate / 4)) rhs = Operand::Attr("missing");
  if (rng.Bernoulli(0.5)) std::swap(lhs, rhs);
  const auto op = static_cast<CompareOp>(rng.Uniform(6));
  return Predicate::Comparison(std::move(lhs), op, std::move(rhs));
}

TEST(PredicateBindTest, BoundFormAgreesWithReferenceEvaluator) {
  Rng rng(4242);
  const Schema& schema = AllTypes();
  for (int round = 0; round < 400; ++round) {
    const Predicate p = RandomPredicate(rng, 3, 0.0);
    auto bound = BoundPredicate::Bind(p, schema);
    ASSERT_TRUE(bound.ok()) << p << ": " << bound.status().message();
    for (int row = 0; row < 40; ++row) {
      const Tuple t = RandomRow(rng, schema);
      auto expected = testutil::ReferenceEval(p, schema, t);
      ASSERT_TRUE(expected.ok()) << p;
      ASSERT_EQ(bound->Eval(t), *expected) << p << " on " << t;
      // Read as a pair split anywhere, the tuple evaluates the same.
      const size_t split = rng.Uniform(t.size() + 1);
      const Tuple head(std::vector<Value>(t.values().begin(),
                                          t.values().begin() + split));
      const Tuple tail(std::vector<Value>(t.values().begin() + split,
                                          t.values().end()));
      ASSERT_EQ(bound->Eval(head, tail), *expected) << p << " split " << split;
    }
  }
}

// The merge kernels decide each step with one three-way comparison; their
// output must be exactly what std::merge + std::unique,
// std::set_difference and std::set_intersection give, down to which
// operand's tuple is kept. Small double domains make ties common,
// including NaN (ties with every double but equals nothing) and signed
// zeros.
TEST(OperatorsTest, SetKernelsMatchStdAlgorithmsTupleForTuple) {
  Rng rng(2718);
  for (const Schema& schema : {MakeSchema({{"d", ValueType::kDouble}}),
                               MakeSchema({{"i", ValueType::kInt},
                                           {"d", ValueType::kDouble}})}) {
    for (int round = 0; round < 300; ++round) {
      auto random_state = [&] {
        std::vector<Tuple> rows;
        const size_t n = rng.Uniform(12);
        for (size_t k = 0; k < n; ++k) rows.push_back(RandomRow(rng, schema));
        return *SnapshotState::Make(schema, std::move(rows));
      };
      const SnapshotState a = random_state();
      const SnapshotState b = random_state();
      // Every output tuple is a copy of an input tuple, so payload
      // identity says which one was kept.
      auto same = [](const std::vector<Tuple>& want,
                     const std::vector<Tuple>& got) {
        if (want.size() != got.size()) return false;
        for (size_t k = 0; k < want.size(); ++k) {
          if (want[k].values().data() != got[k].values().data()) return false;
        }
        return true;
      };
      const std::vector<Tuple>& x = a.tuples();
      const std::vector<Tuple>& y = b.tuples();
      std::vector<Tuple> merged;
      std::merge(x.begin(), x.end(), y.begin(), y.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      std::vector<Tuple> difference;
      std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                          std::back_inserter(difference));
      std::vector<Tuple> intersection;
      std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                            std::back_inserter(intersection));
      EXPECT_TRUE(same(merged, ops::Union(a, b)->tuples()))
          << a << " u " << b;
      EXPECT_TRUE(same(difference, ops::Difference(a, b)->tuples()))
          << a << " - " << b;
      EXPECT_TRUE(same(intersection, ops::Intersect(a, b)->tuples()))
          << a << " n " << b;
    }
  }
}

TEST(PredicateBindTest, BindingAnInvalidPredicateReturnsValidateStatus) {
  Rng rng(977);
  const Schema& schema = AllTypes();
  int refused = 0;
  for (int round = 0; round < 600; ++round) {
    const Predicate p = RandomPredicate(rng, 3, 0.3);
    const Status validated = p.Validate(schema);
    auto bound = BoundPredicate::Bind(p, schema);
    ASSERT_EQ(bound.status(), validated) << p;
    if (!validated.ok()) {
      ++refused;
      continue;
    }
    const Tuple t = RandomRow(rng, schema);
    ASSERT_EQ(bound->Eval(t), *testutil::ReferenceEval(p, schema, t)) << p;
  }
  EXPECT_GT(refused, 100);  // both outcomes are exercised
}

TEST(PredicateBindTest, NaNComparesEqualAndNumericPromotion) {
  const Schema& schema = AllTypes();
  auto eval = [&](const std::string& source_attr, CompareOp op, Value c,
                  const Tuple& t) {
    const Predicate p = Predicate::AttrCompare(source_attr, op, std::move(c));
    const bool bound = BoundPredicate::Bind(p, schema)->Eval(t);
    EXPECT_EQ(bound, *testutil::ReferenceEval(p, schema, t)) << p;
    return bound;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Tuple t{Value::Int(1),         Value::Int(int64_t{1} << 53),
                Value::Double(nan),    Value::Double(2.5),
                Value::String("a"),    Value::Bool(true),
                Value::Time(3)};
  EXPECT_TRUE(eval("d", CompareOp::kEq, Value::Double(1.0), t));
  EXPECT_TRUE(eval("d", CompareOp::kLe, Value::Int(7), t));
  EXPECT_FALSE(eval("d", CompareOp::kLt, Value::Int(7), t));
  EXPECT_TRUE(eval("e", CompareOp::kGt, Value::Int(2), t));
  EXPECT_TRUE(eval("i", CompareOp::kLt, Value::Double(1.5), t));
  // int with int compares exactly, even where doubles would tie.
  EXPECT_TRUE(eval("j", CompareOp::kLt,
                   Value::Int((int64_t{1} << 53) + 1), t));
  EXPECT_FALSE(eval("j", CompareOp::kLt,
                    Value::Double(static_cast<double>((int64_t{1} << 53) + 1)),
                    t));
}

}  // namespace
}  // namespace ttra
