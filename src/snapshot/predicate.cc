#include "snapshot/predicate.h"

#include <cassert>

namespace ttra {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Operand Operand::Attr(std::string name) {
  Operand o;
  o.is_attr_ = true;
  o.name_ = std::move(name);
  return o;
}

Operand Operand::Const(Value value) {
  Operand o;
  o.is_attr_ = false;
  o.value_ = std::move(value);
  return o;
}

Result<ValueType> Operand::TypeIn(const Schema& schema) const {
  if (!is_attr_) return value_.type();
  auto index = schema.IndexOf(name_);
  if (!index.has_value()) {
    return SchemaMismatchError("predicate references unknown attribute: " +
                               name_);
  }
  return schema.attribute(*index).type;
}

std::string Operand::ToString() const {
  return is_attr_ ? name_ : value_.ToString();
}

struct Predicate::Node {
  Kind kind;
  // kConst
  bool const_value = false;
  // kComparison
  Operand lhs;
  CompareOp op = CompareOp::kEq;
  Operand rhs;
  // kAnd / kOr / kNot
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

Predicate::Predicate(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

Predicate::Predicate() : Predicate(True()) {}

// The literals are shared immutable nodes, like SnapshotState's empty
// representation: every default predicate, and every node that holds one
// (an AST node's σ slot), shares them instead of allocating its own.
Predicate Predicate::True() {
  static const std::shared_ptr<const Node> kTrue = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kConst;
    node->const_value = true;
    return node;
  }();
  return Predicate(kTrue);
}

Predicate Predicate::False() {
  static const std::shared_ptr<const Node> kFalse = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kConst;
    node->const_value = false;
    return node;
  }();
  return Predicate(kFalse);
}

Predicate Predicate::Comparison(Operand lhs, CompareOp op, Operand rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kComparison;
  node->lhs = std::move(lhs);
  node->op = op;
  node->rhs = std::move(rhs);
  return Predicate(std::move(node));
}

Predicate Predicate::And(Predicate lhs, Predicate rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate lhs, Predicate rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Not(Predicate operand) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = std::move(operand.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::AttrCompare(std::string attr, CompareOp op,
                                 Value constant) {
  return Comparison(Operand::Attr(std::move(attr)), op,
                    Operand::Const(std::move(constant)));
}

Status Predicate::Validate(const Schema& schema) const {
  return BoundPredicate::BindInto(*this, schema, nullptr);
}

std::set<std::string> Predicate::AttributeNames() const {
  std::set<std::string> names;
  switch (node_->kind) {
    case Kind::kConst:
      break;
    case Kind::kComparison:
      if (node_->lhs.is_attr()) names.insert(node_->lhs.attr_name());
      if (node_->rhs.is_attr()) names.insert(node_->rhs.attr_name());
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      names = Predicate(node_->left).AttributeNames();
      auto right = Predicate(node_->right).AttributeNames();
      names.insert(right.begin(), right.end());
      break;
    }
    case Kind::kNot:
      names = Predicate(node_->left).AttributeNames();
      break;
  }
  return names;
}

Predicate Predicate::RenameAttribute(std::string_view from,
                                     std::string_view to) const {
  auto rename_operand = [&](const Operand& o) {
    if (o.is_attr() && o.attr_name() == from) {
      return Operand::Attr(std::string(to));
    }
    return o;
  };
  switch (node_->kind) {
    case Kind::kConst:
      return *this;
    case Kind::kComparison:
      return Comparison(rename_operand(node_->lhs), node_->op,
                        rename_operand(node_->rhs));
    case Kind::kAnd:
      return And(Predicate(node_->left).RenameAttribute(from, to),
                 Predicate(node_->right).RenameAttribute(from, to));
    case Kind::kOr:
      return Or(Predicate(node_->left).RenameAttribute(from, to),
                Predicate(node_->right).RenameAttribute(from, to));
    case Kind::kNot:
      return Not(Predicate(node_->left).RenameAttribute(from, to));
  }
  return *this;
}

bool Predicate::IsTrueLiteral() const {
  return node_->kind == Kind::kConst && node_->const_value;
}

bool Predicate::IsFalseLiteral() const {
  return node_->kind == Kind::kConst && !node_->const_value;
}

std::string Predicate::ToString() const {
  switch (node_->kind) {
    case Kind::kConst:
      return node_->const_value ? "true" : "false";
    case Kind::kComparison:
      return node_->lhs.ToString() + " " +
             std::string(CompareOpName(node_->op)) + " " +
             node_->rhs.ToString();
    case Kind::kAnd:
      return "(" + Predicate(node_->left).ToString() + " and " +
             Predicate(node_->right).ToString() + ")";
    case Kind::kOr:
      return "(" + Predicate(node_->left).ToString() + " or " +
             Predicate(node_->right).ToString() + ")";
    case Kind::kNot:
      return "not (" + Predicate(node_->left).ToString() + ")";
  }
  return "?";
}

bool operator==(const Predicate& a, const Predicate& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Predicate::Kind::kConst:
      return a.const_value() == b.const_value();
    case Predicate::Kind::kComparison:
      return a.lhs() == b.lhs() && a.op() == b.op() && a.rhs() == b.rhs();
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return a.left() == b.left() && a.right() == b.right();
    case Predicate::Kind::kNot:
      return a.left() == b.left();
  }
  return false;
}

Predicate::Kind Predicate::kind() const { return node_->kind; }
bool Predicate::const_value() const {
  assert(node_->kind == Kind::kConst);
  return node_->const_value;
}
const Operand& Predicate::lhs() const {
  assert(node_->kind == Kind::kComparison);
  return node_->lhs;
}
const Operand& Predicate::rhs() const {
  assert(node_->kind == Kind::kComparison);
  return node_->rhs;
}
CompareOp Predicate::op() const {
  assert(node_->kind == Kind::kComparison);
  return node_->op;
}
Predicate Predicate::left() const {
  assert(node_->left != nullptr);
  return Predicate(node_->left);
}
Predicate Predicate::right() const {
  assert(node_->right != nullptr);
  return Predicate(node_->right);
}

std::ostream& operator<<(std::ostream& os, const Predicate& predicate) {
  return os << predicate.ToString();
}

// --- BoundPredicate ---------------------------------------------------------

namespace {

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble;
}

// Which outcomes of a three-way comparison satisfy each operator, as a
// bit set over Outcome(x, y): bit 0 equal, bit 1 greater, bit 2 less.
uint8_t OutcomeMask(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return 0b001;
    case CompareOp::kNe:
      return 0b110;
    case CompareOp::kLt:
      return 0b100;
    case CompareOp::kLe:
      return 0b101;
    case CompareOp::kGt:
      return 0b010;
    case CompareOp::kGe:
      return 0b011;
  }
  return 0;
}

// The outcome of sign(x, y) = x < y ? -1 : y < x ? 1 : 0, the order
// Value::Compare applies: 2 for less, 1 for greater, 0 for neither — so
// unordered values (NaN) compare equal, as they always have.
template <typename T>
unsigned Outcome(const T& x, const T& y) {
  return (x < y ? 2u : 0u) | (y < x ? 1u : 0u);
}

}  // namespace

Status BoundPredicate::BindInto(const Predicate& predicate,
                                const Schema& schema, std::vector<Node>* out) {
  const size_t at = out != nullptr ? out->size() : 0;
  if (out != nullptr) {
    out->emplace_back();
    out->back().kind = predicate.kind();
  }
  switch (predicate.kind()) {
    case Predicate::Kind::kConst:
      if (out != nullptr) (*out)[at].const_value = predicate.const_value();
      return Status::Ok();
    case Predicate::Kind::kComparison: {
      auto lhs_type = predicate.lhs().TypeIn(schema);
      if (!lhs_type.ok()) return lhs_type.status();
      auto rhs_type = predicate.rhs().TypeIn(schema);
      if (!rhs_type.ok()) return rhs_type.status();
      const bool numeric = IsNumeric(*lhs_type) && IsNumeric(*rhs_type);
      if (*lhs_type != *rhs_type && !numeric) {
        return TypeMismatchError(
            "comparison between " + std::string(ValueTypeName(*lhs_type)) +
            " and " + std::string(ValueTypeName(*rhs_type)) + " in " +
            predicate.ToString());
      }
      if (out == nullptr) return Status::Ok();
      auto bind = [&schema](const Operand& operand) {
        return operand.is_attr()
                   ? BoundOperand{.index = *schema.IndexOf(operand.attr_name())}
                   : BoundOperand{.constant = &operand.constant()};
      };
      Node& node = (*out)[at];
      node.outcomes = OutcomeMask(predicate.op());
      node.lhs = bind(predicate.lhs());
      node.rhs = bind(predicate.rhs());
      if (*lhs_type == ValueType::kInt && *rhs_type == ValueType::kInt) {
        node.domain = Domain::kInt;
      } else if (numeric) {
        node.domain = Domain::kNumeric;
        node.lhs_int = *lhs_type == ValueType::kInt;
        node.rhs_int = *rhs_type == ValueType::kInt;
      } else if (*lhs_type == ValueType::kString) {
        node.domain = Domain::kString;
      } else if (*lhs_type == ValueType::kUserTime) {
        node.domain = Domain::kTime;
      } else {
        node.domain = Domain::kBool;
      }
      return Status::Ok();
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      TTRA_RETURN_IF_ERROR(BindInto(predicate.left(), schema, out));
      if (out != nullptr) (*out)[at].right = static_cast<uint32_t>(out->size());
      return BindInto(predicate.right(), schema, out);
    }
    case Predicate::Kind::kNot:
      return BindInto(predicate.left(), schema, out);
  }
  return InternalError("unhandled predicate kind");
}

Result<BoundPredicate> BoundPredicate::Bind(const Predicate& predicate,
                                            const Schema& schema) {
  std::vector<Node> nodes;
  TTRA_RETURN_IF_ERROR(BindInto(predicate, schema, &nodes));
  return BoundPredicate(predicate, std::move(nodes));
}

bool BoundPredicate::EvalAt(uint32_t i, const Row& row) const {
  // Tested in order of frequency with plain branches: the node kinds of
  // one predicate repeat for every tuple, so each branch predicts well.
  const Node& node = nodes_[i];
  if (node.kind == Predicate::Kind::kComparison) return Compare(node, row);
  if (node.kind == Predicate::Kind::kAnd) {
    return EvalAt(i + 1, row) && EvalAt(node.right, row);
  }
  if (node.kind == Predicate::Kind::kOr) {
    return EvalAt(i + 1, row) || EvalAt(node.right, row);
  }
  if (node.kind == Predicate::Kind::kNot) return !EvalAt(i + 1, row);
  return node.const_value;
}

bool BoundPredicate::Compare(const Node& node, const Row& row) {
  const Value& a =
      node.lhs.constant != nullptr ? *node.lhs.constant : row[node.lhs.index];
  const Value& b =
      node.rhs.constant != nullptr ? *node.rhs.constant : row[node.rhs.index];
  unsigned outcome = 0;
  if (node.domain == Domain::kInt) {
    outcome = Outcome(a.AsInt(), b.AsInt());
  } else if (node.domain == Domain::kNumeric) {
    outcome = Outcome(
        node.lhs_int ? static_cast<double>(a.AsInt()) : a.AsDouble(),
        node.rhs_int ? static_cast<double>(b.AsInt()) : b.AsDouble());
  } else if (node.domain == Domain::kString) {
    outcome = Outcome(a.AsString().compare(b.AsString()), 0);
  } else if (node.domain == Domain::kTime) {
    outcome = Outcome(a.AsTime().ticks, b.AsTime().ticks);
  } else {
    outcome = Outcome(a.AsBool(), b.AsBool());
  }
  return (node.outcomes >> outcome) & 1u;
}

}  // namespace ttra
