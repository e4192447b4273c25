#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "historical/hoperators.h"
#include "historical/hstate.h"
#include "historical/interval.h"
#include "historical/temporal_element.h"
#include "historical/temporal_expr.h"
#include "snapshot/operators.h"
#include "util/random.h"
#include "workload/generator.h"

namespace ttra {
namespace {

namespace hops = historical_ops;

Schema OneCol() { return *Schema::Make({{"n", ValueType::kInt}}); }

HistoricalState HState(std::vector<HistoricalTuple> tuples) {
  return *HistoricalState::Make(OneCol(), std::move(tuples));
}

HistoricalTuple Fact(int64_t n, std::initializer_list<Interval> valid) {
  return HistoricalTuple{Tuple{Value::Int(n)}, TemporalElement::Of(valid)};
}

// --- Interval -----------------------------------------------------------------

TEST(IntervalTest, EmptinessAndContains) {
  EXPECT_TRUE(Interval::Make(5, 5).empty());
  EXPECT_TRUE(Interval::Make(6, 5).empty());
  Interval i = Interval::Make(2, 5);
  EXPECT_FALSE(i.empty());
  EXPECT_TRUE(i.Contains(2));
  EXPECT_TRUE(i.Contains(4));
  EXPECT_FALSE(i.Contains(5));  // half-open
  EXPECT_FALSE(i.Contains(1));
}

TEST(IntervalTest, OverlapsAndMeets) {
  Interval a = Interval::Make(0, 5);
  EXPECT_TRUE(a.Overlaps(Interval::Make(4, 9)));
  EXPECT_FALSE(a.Overlaps(Interval::Make(5, 9)));  // touching != overlapping
  EXPECT_TRUE(a.Meets(Interval::Make(5, 9)));      // touching coalesces
  EXPECT_FALSE(a.Meets(Interval::Make(6, 9)));
}

TEST(IntervalTest, PointAndFromFactories) {
  EXPECT_TRUE(Interval::Point(3).Contains(3));
  EXPECT_FALSE(Interval::Point(3).Contains(4));
  EXPECT_TRUE(Interval::From(10).Contains(kChrononMax - 1));
}

TEST(IntervalTest, ToStringUsesInf) {
  EXPECT_EQ(Interval::Make(1, 5).ToString(), "[1, 5)");
  EXPECT_EQ(Interval::From(7).ToString(), "[7, inf)");
}

// --- TemporalElement ------------------------------------------------------------

TEST(TemporalElementTest, CanonicalizesSortsCoalescesDropsEmpty) {
  TemporalElement e = TemporalElement::Of(
      {Interval::Make(7, 9), Interval::Make(0, 3), Interval::Make(3, 5),
       Interval::Make(4, 4)});
  ASSERT_EQ(e.intervals().size(), 2u);
  EXPECT_EQ(e.intervals()[0], Interval::Make(0, 5));
  EXPECT_EQ(e.intervals()[1], Interval::Make(7, 9));
}

TEST(TemporalElementTest, ContainsBinarySearch) {
  TemporalElement e = TemporalElement::Of(
      {Interval::Make(0, 3), Interval::Make(10, 20), Interval::Make(30, 31)});
  EXPECT_TRUE(e.Contains(0));
  EXPECT_FALSE(e.Contains(3));
  EXPECT_TRUE(e.Contains(15));
  EXPECT_TRUE(e.Contains(30));
  EXPECT_FALSE(e.Contains(31));
  EXPECT_FALSE(e.Contains(-1));
  EXPECT_FALSE(TemporalElement().Contains(0));
}

TEST(TemporalElementTest, SetOperations) {
  TemporalElement a = TemporalElement::Of({Interval::Make(0, 10)});
  TemporalElement b =
      TemporalElement::Of({Interval::Make(5, 15), Interval::Make(20, 25)});
  EXPECT_EQ(a.Union(b),
            TemporalElement::Of({Interval::Make(0, 15),
                                 Interval::Make(20, 25)}));
  EXPECT_EQ(a.Intersect(b), TemporalElement::Of({Interval::Make(5, 10)}));
  EXPECT_EQ(a.Difference(b), TemporalElement::Of({Interval::Make(0, 5)}));
  EXPECT_EQ(b.Difference(a),
            TemporalElement::Of({Interval::Make(10, 15),
                                 Interval::Make(20, 25)}));
}

TEST(TemporalElementTest, DifferenceSplitsInterval) {
  TemporalElement a = TemporalElement::Of({Interval::Make(0, 10)});
  TemporalElement hole = TemporalElement::Of({Interval::Make(3, 6)});
  EXPECT_EQ(a.Difference(hole),
            TemporalElement::Of({Interval::Make(0, 3), Interval::Make(6, 10)}));
}

TEST(TemporalElementTest, CoversAndOverlaps) {
  TemporalElement a = TemporalElement::Of({Interval::Make(0, 10)});
  TemporalElement inside =
      TemporalElement::Of({Interval::Make(1, 3), Interval::Make(5, 7)});
  EXPECT_TRUE(a.Covers(inside));
  EXPECT_FALSE(inside.Covers(a));
  EXPECT_TRUE(a.Overlaps(inside));
  EXPECT_FALSE(a.Overlaps(TemporalElement::Of({Interval::Make(10, 12)})));
  EXPECT_TRUE(a.Covers(TemporalElement()));  // vacuously
}

TEST(TemporalElementTest, DurationAndBounds) {
  TemporalElement e =
      TemporalElement::Of({Interval::Make(0, 4), Interval::Make(10, 11)});
  EXPECT_EQ(e.Duration(), 5u);
  EXPECT_EQ(e.Min(), 0);
  EXPECT_EQ(e.Max(), 11);
  EXPECT_EQ(TemporalElement().Duration(), 0u);
}

TEST(TemporalElementTest, CopiesShareOneIntervalPayload) {
  static_assert(sizeof(TemporalElement) == sizeof(void*));
  const TemporalElement a =
      TemporalElement::Of({Interval::Make(0, 4), Interval::Make(10, 11)});
  const TemporalElement b = a;
  EXPECT_EQ(a.intervals().data(), b.intervals().data());
  // A union with nothing new returns the operand itself.
  EXPECT_EQ(a.Union(TemporalElement()).intervals().data(),
            a.intervals().data());
  EXPECT_EQ(TemporalElement().Union(a).intervals().data(),
            a.intervals().data());
  EXPECT_EQ(a.Union(b).intervals().data(), a.intervals().data());
  // Equal elements built apart compare equal and order neither way.
  const TemporalElement c =
      TemporalElement::Of({Interval::Make(10, 11), Interval::Make(0, 4)});
  EXPECT_NE(a.intervals().data(), c.intervals().data());
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a < c);
  EXPECT_FALSE(c < a);
  EXPECT_TRUE(TemporalElement().intervals().empty());
}

TEST(TemporalElementTest, ToStringForms) {
  EXPECT_EQ(TemporalElement().ToString(), "[)");
  EXPECT_EQ(TemporalElement::Span(1, 5).ToString(), "[1, 5)");
  EXPECT_EQ(TemporalElement::Of({Interval::Make(1, 2), Interval::Make(4, 6)})
                .ToString(),
            "[1, 2) u [4, 6)");
}

class ElementPropertyTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ElementPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

TEST_P(ElementPropertyTest, SetAlgebraLaws) {
  workload::Generator gen(GetParam());
  TemporalElement a = gen.RandomElement();
  TemporalElement b = gen.RandomElement();
  TemporalElement c = gen.RandomElement();
  // Commutativity / associativity / distributivity.
  EXPECT_EQ(a.Union(b), b.Union(a));
  EXPECT_EQ(a.Intersect(b), b.Intersect(a));
  EXPECT_EQ(a.Union(b).Union(c), a.Union(b.Union(c)));
  EXPECT_EQ(a.Intersect(b.Union(c)),
            a.Intersect(b).Union(a.Intersect(c)));
  // Difference identities.
  EXPECT_EQ(a.Difference(a), TemporalElement());
  EXPECT_EQ(a.Difference(TemporalElement()), a);
  EXPECT_EQ(a.Difference(b).Intersect(b), TemporalElement());
  EXPECT_EQ(a.Difference(b).Union(a.Intersect(b)), a);
}

TEST_P(ElementPropertyTest, IntersectIsCanonicalAsSwept) {
  // Intersect writes its pieces without re-canonicalizing: they must
  // already be sorted, non-empty and non-touching.
  workload::Generator gen(GetParam() + 900);
  for (int round = 0; round < 20; ++round) {
    const TemporalElement a = gen.RandomElement();
    const TemporalElement b = gen.RandomElement();
    const TemporalElement both = a.Intersect(b);
    EXPECT_EQ(both, TemporalElement::Of(std::vector<Interval>(
                        both.intervals().begin(), both.intervals().end())))
        << a << " ∩ " << b;
  }
}

TEST_P(ElementPropertyTest, MembershipMatchesOperations) {
  workload::Generator gen(GetParam() + 500);
  TemporalElement a = gen.RandomElement();
  TemporalElement b = gen.RandomElement();
  for (Chronon t = 0; t < 1000; t += 13) {
    EXPECT_EQ(a.Union(b).Contains(t), a.Contains(t) || b.Contains(t));
    EXPECT_EQ(a.Intersect(b).Contains(t), a.Contains(t) && b.Contains(t));
    EXPECT_EQ(a.Difference(b).Contains(t), a.Contains(t) && !b.Contains(t));
  }
}

// --- HistoricalState -------------------------------------------------------------

TEST(HistoricalStateTest, MakeMergesValueEqualTuples) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 5)}),
                              Fact(1, {Interval::Make(3, 9)}),
                              Fact(2, {Interval::Make(1, 2)})});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.ValidTimeOf(Tuple{Value::Int(1)}), TemporalElement::Span(0, 9));
}

TEST(HistoricalStateTest, MakeDropsEmptyElements) {
  HistoricalState s = HState({Fact(1, {Interval::Make(5, 5)})});
  EXPECT_TRUE(s.empty());
}

TEST(HistoricalStateTest, ValidTimeOfMissingTupleIsEmpty) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 5)})});
  EXPECT_TRUE(s.ValidTimeOf(Tuple{Value::Int(42)}).empty());
}

TEST(HistoricalStateTest, SnapshotAtSlices) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 5)}),
                              Fact(2, {Interval::Make(3, 9)})});
  EXPECT_EQ(s.SnapshotAt(0).size(), 1u);
  EXPECT_EQ(s.SnapshotAt(4).size(), 2u);
  EXPECT_EQ(s.SnapshotAt(7).size(), 1u);
  EXPECT_TRUE(s.SnapshotAt(100).empty());
  EXPECT_EQ(s.SnapshotAt(4).schema(), s.schema());
}

TEST(HistoricalStateTest, EqualityIsCanonical) {
  HistoricalState a = HState({Fact(1, {Interval::Make(0, 3)}),
                              Fact(1, {Interval::Make(3, 6)})});
  HistoricalState b = HState({Fact(1, {Interval::Make(0, 6)})});
  EXPECT_EQ(a, b);
}

// --- Historical operators --------------------------------------------------------

TEST(HistoricalOpsTest, UnionMergesHistories) {
  HistoricalState a = HState({Fact(1, {Interval::Make(0, 5)})});
  HistoricalState b = HState({Fact(1, {Interval::Make(10, 15)}),
                              Fact(2, {Interval::Make(0, 1)})});
  auto r = hops::Union(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(1)}),
            TemporalElement::Of({Interval::Make(0, 5),
                                 Interval::Make(10, 15)}));
}

TEST(HistoricalOpsTest, DifferenceSubtractsElements) {
  HistoricalState a = HState({Fact(1, {Interval::Make(0, 10)})});
  HistoricalState b = HState({Fact(1, {Interval::Make(4, 6)})});
  auto r = hops::Difference(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(1)}),
            TemporalElement::Of({Interval::Make(0, 4), Interval::Make(6, 10)}));
}

TEST(HistoricalOpsTest, DifferenceDropsFullyCoveredTuples) {
  HistoricalState a = HState({Fact(1, {Interval::Make(2, 4)})});
  HistoricalState b = HState({Fact(1, {Interval::Make(0, 9)})});
  auto r = hops::Difference(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(HistoricalOpsTest, ProductIntersectsElements) {
  Schema left = *Schema::Make({{"x", ValueType::kInt}});
  Schema right = *Schema::Make({{"y", ValueType::kInt}});
  HistoricalState a = *HistoricalState::Make(
      left, {HistoricalTuple{Tuple{Value::Int(1)},
                             TemporalElement::Span(0, 10)}});
  HistoricalState b = *HistoricalState::Make(
      right, {HistoricalTuple{Tuple{Value::Int(2)},
                              TemporalElement::Span(5, 15)},
              HistoricalTuple{Tuple{Value::Int(3)},
                              TemporalElement::Span(20, 30)}});
  auto r = hops::Product(a, b);
  ASSERT_TRUE(r.ok());
  // (1,3) never co-valid → dropped; (1,2) valid on the overlap.
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(1), Value::Int(2)}),
            TemporalElement::Span(5, 10));
}

TEST(HistoricalOpsTest, ProjectMergesCollapsedTuples) {
  Schema two = *Schema::Make({{"n", ValueType::kInt},
                              {"tag", ValueType::kString}});
  HistoricalState s = *HistoricalState::Make(
      two, {HistoricalTuple{Tuple{Value::Int(1), Value::String("a")},
                            TemporalElement::Span(0, 5)},
            HistoricalTuple{Tuple{Value::Int(1), Value::String("b")},
                            TemporalElement::Span(5, 9)}});
  auto r = hops::Project(s, {"n"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(1)}),
            TemporalElement::Span(0, 9));
}

TEST(HistoricalOpsTest, SelectKeepsElements) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 5)}),
                              Fact(7, {Interval::Make(2, 3)})});
  Predicate p = Predicate::AttrCompare("n", CompareOp::kGt, Value::Int(3));
  auto r = hops::Select(s, p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(7)}),
            TemporalElement::Span(2, 3));
}

TEST(HistoricalOpsTest, DeltaSelectsOnValidTime) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 5)}),
                              Fact(2, {Interval::Make(50, 60)})});
  // Keep tuples valid sometime in [0, 10).
  TemporalPred g = TemporalPred::Overlaps(
      TemporalExpr::Valid(),
      TemporalExpr::Const(TemporalElement::Span(0, 10)));
  auto r = hops::Delta(s, g, TemporalExpr::Valid());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_FALSE(r->ValidTimeOf(Tuple{Value::Int(1)}).empty());
}

TEST(HistoricalOpsTest, DeltaProjectsValidTime) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 10)})});
  // Restrict every tuple's history to [5, 30).
  TemporalExpr v = TemporalExpr::Intersect(
      TemporalExpr::Valid(),
      TemporalExpr::Const(TemporalElement::Span(5, 30)));
  auto r = hops::Delta(s, TemporalPred::True(), v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValidTimeOf(Tuple{Value::Int(1)}),
            TemporalElement::Span(5, 10));
}

TEST(HistoricalOpsTest, DeltaDropsTuplesProjectedToEmpty) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 10)})});
  TemporalExpr v = TemporalExpr::Intersect(
      TemporalExpr::Valid(),
      TemporalExpr::Const(TemporalElement::Span(50, 60)));
  auto r = hops::Delta(s, TemporalPred::True(), v);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(HistoricalOpsTest, DeltaIdentity) {
  HistoricalState s = HState({Fact(1, {Interval::Make(0, 10)}),
                              Fact(2, {Interval::Make(3, 4)})});
  auto r = hops::Delta(s, TemporalPred::True(), TemporalExpr::Valid());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, s);
}

TEST(HistoricalOpsTest, FromSnapshotStampsUniformly) {
  Schema schema = OneCol();
  SnapshotState snap = *SnapshotState::Make(
      schema, {Tuple{Value::Int(1)}, Tuple{Value::Int(2)}});
  auto r = hops::FromSnapshot(snap, TemporalElement::Span(10, 20));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->SnapshotAt(15), snap);
  EXPECT_TRUE(r->SnapshotAt(25).empty());
}

// --- Temporal predicates ----------------------------------------------------------

TEST(TemporalPredTest, ComparisonSemantics) {
  TemporalElement valid = TemporalElement::Span(0, 10);
  auto c = [](TemporalElement e) { return TemporalExpr::Const(std::move(e)); };
  EXPECT_TRUE(TemporalPred::Overlaps(TemporalExpr::Valid(),
                                     c(TemporalElement::Span(9, 20)))
                  .Eval(valid));
  EXPECT_FALSE(TemporalPred::Overlaps(TemporalExpr::Valid(),
                                      c(TemporalElement::Span(10, 20)))
                   .Eval(valid));
  EXPECT_TRUE(TemporalPred::Contains(TemporalExpr::Valid(),
                                     c(TemporalElement::Span(2, 5)))
                  .Eval(valid));
  EXPECT_FALSE(TemporalPred::Contains(c(TemporalElement::Span(2, 5)),
                                      TemporalExpr::Valid())
                   .Eval(valid));
  EXPECT_TRUE(TemporalPred::Before(TemporalExpr::Valid(),
                                   c(TemporalElement::Span(10, 12)))
                  .Eval(valid));
  EXPECT_FALSE(TemporalPred::Before(TemporalExpr::Valid(),
                                    c(TemporalElement::Span(5, 12)))
                   .Eval(valid));
  EXPECT_TRUE(TemporalPred::Equals(TemporalExpr::Valid(),
                                   c(TemporalElement::Span(0, 10)))
                  .Eval(valid));
  EXPECT_TRUE(TemporalPred::Empty(TemporalExpr::Difference(
                                      TemporalExpr::Valid(),
                                      c(TemporalElement::Span(0, 10))))
                  .Eval(valid));
}

TEST(TemporalPredTest, BeforeWithEmptyOperandIsFalse) {
  TemporalElement valid = TemporalElement::Span(0, 10);
  EXPECT_FALSE(TemporalPred::Before(TemporalExpr::Const(TemporalElement()),
                                    TemporalExpr::Valid())
                   .Eval(valid));
}

TEST(TemporalPredTest, LogicalConnectives) {
  TemporalElement valid = TemporalElement::Span(0, 10);
  TemporalPred yes = TemporalPred::True();
  TemporalPred no = TemporalPred::False();
  EXPECT_TRUE(TemporalPred::And(yes, yes).Eval(valid));
  EXPECT_FALSE(TemporalPred::And(yes, no).Eval(valid));
  EXPECT_TRUE(TemporalPred::Or(no, yes).Eval(valid));
  EXPECT_FALSE(TemporalPred::Or(no, no).Eval(valid));
  EXPECT_TRUE(TemporalPred::Not(no).Eval(valid));
}

TEST(TemporalExprTest, EvalAndToString) {
  TemporalElement valid = TemporalElement::Span(0, 10);
  TemporalExpr e = TemporalExpr::Union(
      TemporalExpr::Difference(TemporalExpr::Valid(),
                               TemporalExpr::Const(
                                   TemporalElement::Span(0, 5))),
      TemporalExpr::Const(TemporalElement::Span(20, 25)));
  EXPECT_EQ(e.Eval(valid),
            TemporalElement::Of({Interval::Make(5, 10),
                                 Interval::Make(20, 25)}));
  EXPECT_EQ(e.ToString(), "((valid minus [0, 5)) union [20, 25))");
}

TEST(TemporalExprTest, DefaultsShareOneNode) {
  // `valid` and the true/false literals are shared immutable nodes, made
  // once per process: after that, a default expression or predicate, and
  // each literal, allocates nothing.
  (void)TemporalExpr::Valid();
  (void)TemporalPred::True();
  (void)TemporalPred::False();
  EXPECT_EQ(testutil::AllocationsDuring([] {
              TemporalExpr projection;
              TemporalExpr valid = TemporalExpr::Valid();
              TemporalPred selection;
              TemporalPred yes = TemporalPred::True();
              TemporalPred no = TemporalPred::False();
              (void)projection;
              (void)valid;
              (void)selection;
              (void)yes;
              (void)no;
            }),
            0u);
  EXPECT_TRUE(TemporalExpr().IsIdentity());
  EXPECT_TRUE(TemporalPred().IsTrueLiteral());
}

// --- δ against by-value evaluation -------------------------------------------

// The by-value evaluators of 𝒱 and 𝒢: every operand, leaves included, is
// evaluated into a fresh element. TemporalExpr::Eval and TemporalPred::Eval
// read leaves in place instead; δ must not tell the difference.
TemporalElement ByValue(const TemporalExpr& e, const TemporalElement& valid) {
  switch (e.kind()) {
    case TemporalExpr::Kind::kValid:
      return valid;
    case TemporalExpr::Kind::kConst:
      return e.constant();
    case TemporalExpr::Kind::kUnion:
      return ByValue(e.left(), valid).Union(ByValue(e.right(), valid));
    case TemporalExpr::Kind::kIntersect:
      return ByValue(e.left(), valid).Intersect(ByValue(e.right(), valid));
    case TemporalExpr::Kind::kDifference:
      return ByValue(e.left(), valid).Difference(ByValue(e.right(), valid));
  }
  return TemporalElement();
}

bool ByValue(const TemporalPred& p, const TemporalElement& valid) {
  switch (p.kind()) {
    case TemporalPred::Kind::kConst:
      return p.const_value();
    case TemporalPred::Kind::kOverlaps:
      return ByValue(p.lhs(), valid).Overlaps(ByValue(p.rhs(), valid));
    case TemporalPred::Kind::kContains:
      return ByValue(p.lhs(), valid).Covers(ByValue(p.rhs(), valid));
    case TemporalPred::Kind::kBefore: {
      const TemporalElement a = ByValue(p.lhs(), valid);
      const TemporalElement b = ByValue(p.rhs(), valid);
      return !a.empty() && !b.empty() && a.Max() <= b.Min();
    }
    case TemporalPred::Kind::kEquals:
      return ByValue(p.lhs(), valid) == ByValue(p.rhs(), valid);
    case TemporalPred::Kind::kEmpty:
      return ByValue(p.lhs(), valid).empty();
    case TemporalPred::Kind::kAnd:
      return ByValue(p.left(), valid) && ByValue(p.right(), valid);
    case TemporalPred::Kind::kOr:
      return ByValue(p.left(), valid) || ByValue(p.right(), valid);
    case TemporalPred::Kind::kNot:
      return !ByValue(p.left(), valid);
  }
  return false;
}

TemporalElement RandomElement(Rng& rng) {
  std::vector<Interval> intervals;
  for (uint64_t n = rng.Uniform(4); n > 0; --n) {
    const Chronon a = rng.UniformInt(0, 40);
    intervals.push_back(Interval::Make(a, a + rng.UniformInt(1, 12)));
  }
  return TemporalElement::Of(std::move(intervals));
}

TemporalExpr RandomTemporalExpr(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.Uniform(2) : rng.Uniform(5)) {
    case 0:
      return TemporalExpr::Valid();
    case 1:
      return TemporalExpr::Const(RandomElement(rng));
    case 2:
      return TemporalExpr::Union(RandomTemporalExpr(rng, depth - 1),
                                 RandomTemporalExpr(rng, depth - 1));
    case 3:
      return TemporalExpr::Intersect(RandomTemporalExpr(rng, depth - 1),
                                     RandomTemporalExpr(rng, depth - 1));
    default:
      return TemporalExpr::Difference(RandomTemporalExpr(rng, depth - 1),
                                      RandomTemporalExpr(rng, depth - 1));
  }
}

TemporalPred RandomTemporalPred(Rng& rng, int depth) {
  auto operand = [&] { return RandomTemporalExpr(rng, 2); };
  switch (depth <= 0 ? rng.Uniform(6) : rng.Uniform(9)) {
    case 0:
      return rng.Bernoulli(0.5) ? TemporalPred::True() : TemporalPred::False();
    case 1:
      return TemporalPred::Overlaps(operand(), operand());
    case 2:
      return TemporalPred::Contains(operand(), operand());
    case 3:
      return TemporalPred::Before(operand(), operand());
    case 4:
      return TemporalPred::Equals(operand(), operand());
    case 5:
      return TemporalPred::Empty(operand());
    case 6:
      return TemporalPred::And(RandomTemporalPred(rng, depth - 1),
                               RandomTemporalPred(rng, depth - 1));
    case 7:
      return TemporalPred::Or(RandomTemporalPred(rng, depth - 1),
                              RandomTemporalPred(rng, depth - 1));
    default:
      return TemporalPred::Not(RandomTemporalPred(rng, depth - 1));
  }
}

TEST(TemporalExprTest, DeltaMatchesByValueEvaluation) {
  Rng rng(2020);
  for (int round = 0; round < 300; ++round) {
    std::vector<HistoricalTuple> tuples;
    for (int64_t n = 0; n < 12; ++n) {
      TemporalElement valid = RandomElement(rng);
      if (!valid.empty()) tuples.push_back({Tuple{Value::Int(n)}, valid});
    }
    const HistoricalState state = HState(tuples);
    const TemporalPred pred = RandomTemporalPred(rng, 2);
    const TemporalExpr projection = RandomTemporalExpr(rng, 2);
    std::vector<HistoricalTuple> expected;
    for (const HistoricalTuple& ht : state.tuples()) {
      ASSERT_EQ(pred.Eval(ht.valid), ByValue(pred, ht.valid)) << pred;
      ASSERT_EQ(projection.Eval(ht.valid), ByValue(projection, ht.valid))
          << projection;
      if (!ByValue(pred, ht.valid)) continue;
      TemporalElement projected = ByValue(projection, ht.valid);
      if (!projected.empty()) expected.push_back({ht.tuple, projected});
    }
    auto delta = hops::Delta(state, pred, projection);
    ASSERT_TRUE(delta.ok());
    EXPECT_EQ(*delta, HState(expected)) << pred << "; " << projection;
  }
}

// --- Randomized law checks for the historical operators (E1/E6) ------------------

class HistoricalLawTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, HistoricalLawTest,
                         ::testing::Range<uint64_t>(0, 15));

TEST_P(HistoricalLawTest, UnionCommutesAndSelectDistributes) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  HistoricalState a = gen.RandomHistoricalState(schema, 15);
  HistoricalState b = gen.RandomHistoricalState(schema, 15);
  Predicate f = gen.RandomPredicate(schema);
  EXPECT_EQ(*hops::Union(a, b), *hops::Union(b, a));
  EXPECT_EQ(*hops::Select(*hops::Union(a, b), f),
            *hops::Union(*hops::Select(a, f), *hops::Select(b, f)));
  EXPECT_EQ(*hops::Select(*hops::Difference(a, b), f),
            *hops::Difference(*hops::Select(a, f), *hops::Select(b, f)));
}

TEST_P(HistoricalLawTest, TimesliceCommutesWithOperators) {
  // Snapshot-reducibility: slicing the historical result at any chronon t
  // equals applying the snapshot operator to the slices.
  workload::Generator gen(GetParam() + 700);
  const Schema schema = gen.RandomSchema();
  HistoricalState a = gen.RandomHistoricalState(schema, 15);
  HistoricalState b = gen.RandomHistoricalState(schema, 15);
  Predicate f = gen.RandomPredicate(schema);
  for (Chronon t = 0; t < 1000; t += 97) {
    EXPECT_EQ(hops::Union(a, b)->SnapshotAt(t),
              *snapshot_ops::Union(a.SnapshotAt(t), b.SnapshotAt(t)));
    EXPECT_EQ(hops::Difference(a, b)->SnapshotAt(t),
              *snapshot_ops::Difference(a.SnapshotAt(t), b.SnapshotAt(t)));
    EXPECT_EQ(hops::Select(a, f)->SnapshotAt(t),
              *snapshot_ops::Select(a.SnapshotAt(t), f));
    EXPECT_EQ(hops::Intersect(a, b)->SnapshotAt(t),
              *snapshot_ops::Intersect(a.SnapshotAt(t), b.SnapshotAt(t)));
  }
}

TEST_P(HistoricalLawTest, ProductTimesliceCommutes) {
  workload::Generator gen(GetParam() + 1400);
  const Schema left = gen.RandomSchema(2);
  // Disjoint attribute names for the product.
  Schema right = *Schema::Make({{"b0", ValueType::kInt},
                                {"b1", ValueType::kString}});
  HistoricalState a = gen.RandomHistoricalState(left, 10);
  HistoricalState b = gen.RandomHistoricalState(right, 10);
  for (Chronon t = 0; t < 1000; t += 131) {
    EXPECT_EQ(hops::Product(a, b)->SnapshotAt(t),
              *snapshot_ops::Product(a.SnapshotAt(t), b.SnapshotAt(t)));
  }
}

}  // namespace
}  // namespace ttra
