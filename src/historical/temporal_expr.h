#ifndef TTRA_HISTORICAL_TEMPORAL_EXPR_H_
#define TTRA_HISTORICAL_TEMPORAL_EXPR_H_

#include <memory>
#include <ostream>
#include <string>

#include "historical/temporal_element.h"

namespace ttra {

/// The paper's domain 𝒱 of temporal expressions: expressions that, given a
/// tuple's valid-time element, evaluate to a temporal element. Used as the
/// V argument of δ_{G,V} (valid-time projection) and inside the boolean
/// domain 𝒢. Immutable and cheap to copy.
class TemporalExpr {
 public:
  /// Defaults to Valid() — the identity projection. `valid` is one shared
  /// immutable node, so a default expression allocates nothing.
  TemporalExpr();

  /// The tuple's own valid-time element ("valid").
  static TemporalExpr Valid();
  /// A constant temporal element.
  static TemporalExpr Const(TemporalElement element);
  static TemporalExpr Union(TemporalExpr lhs, TemporalExpr rhs);
  static TemporalExpr Intersect(TemporalExpr lhs, TemporalExpr rhs);
  static TemporalExpr Difference(TemporalExpr lhs, TemporalExpr rhs);

  /// Evaluates with `valid` bound to the tuple's element. Total.
  TemporalElement Eval(const TemporalElement& valid) const;

  /// True if the expression is exactly `Valid()`.
  bool IsIdentity() const;

  std::string ToString() const;

  friend bool operator==(const TemporalExpr& a, const TemporalExpr& b);

  enum class Kind : uint8_t { kValid, kConst, kUnion, kIntersect, kDifference };
  Kind kind() const;
  /// kConst only.
  const TemporalElement& constant() const;
  /// Binary kinds only.
  TemporalExpr left() const;
  TemporalExpr right() const;

 private:
  friend class TemporalPred;  // evaluates its operands in place

  struct Node;
  explicit TemporalExpr(std::shared_ptr<const Node> node);

  // Evaluates `node` with `valid` bound, without copying: returns `valid`
  // or the constant for a leaf, else writes the element into `scratch`
  // and returns it.
  static const TemporalElement& EvalRef(const Node& node,
                                        const TemporalElement& valid,
                                        TemporalElement& scratch);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const TemporalExpr& expr);

/// The paper's domain 𝒢 of boolean expressions over temporal expressions,
/// relational operators, and logical operators. Used as the G argument of
/// δ_{G,V} (valid-time selection).
class TemporalPred {
 public:
  /// Defaults to True (δ with G=true filters nothing). The literals are
  /// shared immutable nodes, so a default predicate allocates nothing.
  TemporalPred();

  static TemporalPred True();
  static TemporalPred False();
  /// V1 and V2 share at least one chronon.
  static TemporalPred Overlaps(TemporalExpr lhs, TemporalExpr rhs);
  /// Every chronon of V2 is in V1.
  static TemporalPred Contains(TemporalExpr lhs, TemporalExpr rhs);
  /// Both non-empty and all of V1 precedes all of V2.
  static TemporalPred Before(TemporalExpr lhs, TemporalExpr rhs);
  /// V1 and V2 denote the same element.
  static TemporalPred Equals(TemporalExpr lhs, TemporalExpr rhs);
  /// V is the empty element.
  static TemporalPred Empty(TemporalExpr operand);
  static TemporalPred And(TemporalPred lhs, TemporalPred rhs);
  static TemporalPred Or(TemporalPred lhs, TemporalPred rhs);
  static TemporalPred Not(TemporalPred operand);

  /// Evaluates with `valid` bound to the tuple's element. Total.
  bool Eval(const TemporalElement& valid) const;

  bool IsTrueLiteral() const;

  std::string ToString() const;

  friend bool operator==(const TemporalPred& a, const TemporalPred& b);

  enum class Kind : uint8_t {
    kConst,
    kOverlaps,
    kContains,
    kBefore,
    kEquals,
    kEmpty,
    kAnd,
    kOr,
    kNot,
  };
  Kind kind() const;
  bool const_value() const;
  /// Comparison kinds.
  TemporalExpr lhs() const;
  TemporalExpr rhs() const;
  /// kAnd/kOr (left, right) and kNot (left).
  TemporalPred left() const;
  TemporalPred right() const;

 private:
  struct Node;
  explicit TemporalPred(std::shared_ptr<const Node> node);

  static bool EvalNode(const Node& node, const TemporalElement& valid);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const TemporalPred& pred);

}  // namespace ttra

#endif  // TTRA_HISTORICAL_TEMPORAL_EXPR_H_
