#ifndef TTRA_SNAPSHOT_PREDICATE_H_
#define TTRA_SNAPSHOT_PREDICATE_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/schema.h"
#include "snapshot/tuple.h"
#include "snapshot/value.h"
#include "util/result.h"

namespace ttra {

/// Comparison operators of the paper's boolean-expression domain 𝓕.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpName(CompareOp op);

/// One side of a comparison: either an attribute reference (an IDENTIFIER
/// in the paper's domain 𝓕) or a constant value.
class Operand {
 public:
  static Operand Attr(std::string name);
  static Operand Const(Value value);

  bool is_attr() const { return is_attr_; }
  const std::string& attr_name() const { return name_; }
  const Value& constant() const { return value_; }

  /// The operand's type under `schema`; fails on a missing attribute.
  Result<ValueType> TypeIn(const Schema& schema) const;

  std::string ToString() const;

  friend bool operator==(const Operand&, const Operand&) = default;

 private:
  bool is_attr_ = false;
  std::string name_;
  Value value_;
};

/// An immutable boolean expression over attribute names and constants —
/// the selection condition F of σ_F. Cheap to copy (shared tree).
class Predicate {
 public:
  /// Defaults to the constant `true` (σ_true is the identity). The true
  /// and false literals are each one shared immutable node, so a default
  /// predicate allocates nothing.
  Predicate();

  static Predicate True();
  static Predicate False();
  static Predicate Comparison(Operand lhs, CompareOp op, Operand rhs);
  static Predicate And(Predicate lhs, Predicate rhs);
  static Predicate Or(Predicate lhs, Predicate rhs);
  static Predicate Not(Predicate operand);

  /// Convenience: attr <op> constant.
  static Predicate AttrCompare(std::string attr, CompareOp op, Value constant);

  /// Static validation against a schema: OK iff every attribute operand
  /// exists and every comparison's operand types are comparable (equal,
  /// or both numeric) — the "invalid expression" cases the paper defers.
  /// BoundPredicate::Bind fails with exactly this status.
  Status Validate(const Schema& schema) const;

  /// Names of all attributes referenced (used by the optimizer's pushdown
  /// analysis).
  std::set<std::string> AttributeNames() const;

  /// Structurally replaces attribute name `from` with `to`.
  Predicate RenameAttribute(std::string_view from, std::string_view to) const;

  /// True if the node is the constant true/false literal.
  bool IsTrueLiteral() const;
  bool IsFalseLiteral() const;

  std::string ToString() const;

  /// Structural equality.
  friend bool operator==(const Predicate& a, const Predicate& b);

  // Node introspection for the optimizer and printer.
  enum class Kind : uint8_t { kConst, kComparison, kAnd, kOr, kNot };
  Kind kind() const;
  /// kConst only.
  bool const_value() const;
  /// kComparison only.
  const Operand& lhs() const;
  const Operand& rhs() const;
  CompareOp op() const;
  /// kAnd/kOr: children; kNot: left child only.
  Predicate left() const;
  Predicate right() const;

 private:
  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const Predicate& predicate);

/// A predicate resolved once against one schema, for σ and the θ-join
/// kernels: each attribute operand is a position, each constant is read
/// in place, and each comparison's numeric promotion is fixed up front
/// (int with int compares exactly, int with double as doubles, and NaN
/// compares equal to everything). Evaluating a tuple therefore cannot
/// fail and copies no value. Keeps its predicate alive; bound to the
/// schema it was bound against, and meaningful only on its tuples.
class BoundPredicate {
 public:
  /// Binds `predicate` to `schema`; fails with exactly the status
  /// `predicate.Validate(schema)` returns.
  static Result<BoundPredicate> Bind(const Predicate& predicate,
                                     const Schema& schema);

  /// F(t) for a tuple over the bound schema.
  bool Eval(const Tuple& tuple) const { return EvalAt(0, {tuple.values()}); }

  /// F(lhs ++ rhs) without building the concatenation: positions past
  /// lhs's arity read from rhs (a θ-join candidate pair over the product
  /// scheme).
  bool Eval(const Tuple& lhs, const Tuple& rhs) const {
    return EvalAt(0, {lhs.values(), rhs.values()});
  }

 private:
  friend class Predicate;  // Validate shares the binding walk

  // How a comparison reads its operands, decided from their types.
  enum class Domain : uint8_t { kInt, kNumeric, kString, kBool, kTime };

  struct BoundOperand {
    const Value* constant = nullptr;  // null: read position `index`
    size_t index = 0;
  };

  // Nodes in prefix order: an and/or/not node's left child follows it,
  // and `right` indexes an and/or node's right child.
  struct Node {
    Predicate::Kind kind = Predicate::Kind::kConst;
    bool const_value = false;
    uint8_t outcomes = 0;  // the comparison operator as a set of outcomes
    Domain domain = Domain::kInt;
    bool lhs_int = false;  // kNumeric: promote this side from int
    bool rhs_int = false;
    uint32_t right = 0;
    BoundOperand lhs = {};
    BoundOperand rhs = {};
  };

  // The values of one tuple, or of a pair read as its concatenation.
  struct Row {
    std::span<const Value> head;
    std::span<const Value> tail = {};
    const Value& operator[](size_t i) const {
      return i < head.size() ? head[i] : tail[i - head.size()];
    }
  };

  BoundPredicate(Predicate predicate, std::vector<Node> nodes)
      : predicate_(std::move(predicate)), nodes_(std::move(nodes)) {}

  // Validates `predicate` against `schema`; with `out`, also appends its
  // bound nodes.
  static Status BindInto(const Predicate& predicate, const Schema& schema,
                         std::vector<Node>* out);

  bool EvalAt(uint32_t i, const Row& row) const;
  static bool Compare(const Node& node, const Row& row);

  Predicate predicate_;
  std::vector<Node> nodes_;
};

}  // namespace ttra

#endif  // TTRA_SNAPSHOT_PREDICATE_H_
