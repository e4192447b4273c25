#include "historical/temporal_expr.h"

#include <cassert>

namespace ttra {

struct TemporalExpr::Node {
  Kind kind;
  TemporalElement constant;  // kConst
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

TemporalExpr::TemporalExpr(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

TemporalExpr::TemporalExpr() : TemporalExpr(Valid()) {}

// `valid` is one shared immutable node: every default expression, and
// every node that holds one (a TemporalPred's operands, an AST node's δ
// slots), shares it instead of allocating its own.
TemporalExpr TemporalExpr::Valid() {
  static const std::shared_ptr<const Node> kValid = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kValid;
    return node;
  }();
  return TemporalExpr(kValid);
}

TemporalExpr TemporalExpr::Const(TemporalElement element) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConst;
  node->constant = std::move(element);
  return TemporalExpr(std::move(node));
}

TemporalExpr TemporalExpr::Union(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kUnion;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return TemporalExpr(std::move(node));
}

TemporalExpr TemporalExpr::Intersect(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kIntersect;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return TemporalExpr(std::move(node));
}

TemporalExpr TemporalExpr::Difference(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kDifference;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return TemporalExpr(std::move(node));
}

TemporalElement TemporalExpr::Eval(const TemporalElement& valid) const {
  TemporalElement scratch;
  const TemporalElement& result = EvalRef(*node_, valid, scratch);
  if (&result == &scratch) return scratch;
  return result;
}

const TemporalElement& TemporalExpr::EvalRef(const Node& node,
                                             const TemporalElement& valid,
                                             TemporalElement& scratch) {
  switch (node.kind) {
    case Kind::kValid:
      return valid;
    case Kind::kConst:
      return node.constant;
    case Kind::kUnion:
    case Kind::kIntersect:
    case Kind::kDifference: {
      TemporalElement left_scratch;
      TemporalElement right_scratch;
      const TemporalElement& a = EvalRef(*node.left, valid, left_scratch);
      const TemporalElement& b = EvalRef(*node.right, valid, right_scratch);
      scratch = node.kind == Kind::kUnion       ? a.Union(b)
                : node.kind == Kind::kIntersect ? a.Intersect(b)
                                                : a.Difference(b);
      return scratch;
    }
  }
  return scratch;
}

bool TemporalExpr::IsIdentity() const { return node_->kind == Kind::kValid; }

std::string TemporalExpr::ToString() const {
  switch (node_->kind) {
    case Kind::kValid:
      return "valid";
    case Kind::kConst:
      return node_->constant.ToString();
    case Kind::kUnion:
      return "(" + TemporalExpr(node_->left).ToString() + " union " +
             TemporalExpr(node_->right).ToString() + ")";
    case Kind::kIntersect:
      return "(" + TemporalExpr(node_->left).ToString() + " intersect " +
             TemporalExpr(node_->right).ToString() + ")";
    case Kind::kDifference:
      return "(" + TemporalExpr(node_->left).ToString() + " minus " +
             TemporalExpr(node_->right).ToString() + ")";
  }
  return "?";
}

bool operator==(const TemporalExpr& a, const TemporalExpr& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TemporalExpr::Kind::kValid:
      return true;
    case TemporalExpr::Kind::kConst:
      return a.constant() == b.constant();
    default:
      return a.left() == b.left() && a.right() == b.right();
  }
}

TemporalExpr::Kind TemporalExpr::kind() const { return node_->kind; }
const TemporalElement& TemporalExpr::constant() const {
  assert(node_->kind == Kind::kConst);
  return node_->constant;
}
TemporalExpr TemporalExpr::left() const {
  assert(node_->left != nullptr);
  return TemporalExpr(node_->left);
}
TemporalExpr TemporalExpr::right() const {
  assert(node_->right != nullptr);
  return TemporalExpr(node_->right);
}

std::ostream& operator<<(std::ostream& os, const TemporalExpr& expr) {
  return os << expr.ToString();
}

// ---------------------------------------------------------------------------

struct TemporalPred::Node {
  Kind kind;
  bool const_value = false;         // kConst
  TemporalExpr lhs;                 // comparison kinds
  TemporalExpr rhs;                 // binary comparison kinds
  std::shared_ptr<const Node> left;   // kAnd / kOr / kNot
  std::shared_ptr<const Node> right;  // kAnd / kOr
};

TemporalPred::TemporalPred(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

TemporalPred::TemporalPred() : TemporalPred(True()) {}

// Shared immutable literal nodes, as for TemporalExpr::Valid().
TemporalPred TemporalPred::True() {
  static const std::shared_ptr<const Node> kTrue = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kConst;
    node->const_value = true;
    return node;
  }();
  return TemporalPred(kTrue);
}

TemporalPred TemporalPred::False() {
  static const std::shared_ptr<const Node> kFalse = [] {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kConst;
    node->const_value = false;
    return node;
  }();
  return TemporalPred(kFalse);
}

TemporalPred TemporalPred::Overlaps(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOverlaps;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return TemporalPred(std::move(node));
}
TemporalPred TemporalPred::Contains(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kContains;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return TemporalPred(std::move(node));
}
TemporalPred TemporalPred::Before(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBefore;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return TemporalPred(std::move(node));
}
TemporalPred TemporalPred::Equals(TemporalExpr lhs, TemporalExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kEquals;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return TemporalPred(std::move(node));
}
TemporalPred TemporalPred::Empty(TemporalExpr operand) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kEmpty;
  node->lhs = std::move(operand);
  return TemporalPred(std::move(node));
}

TemporalPred TemporalPred::And(TemporalPred lhs, TemporalPred rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return TemporalPred(std::move(node));
}

TemporalPred TemporalPred::Or(TemporalPred lhs, TemporalPred rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return TemporalPred(std::move(node));
}

TemporalPred TemporalPred::Not(TemporalPred operand) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = std::move(operand.node_);
  return TemporalPred(std::move(node));
}

bool TemporalPred::Eval(const TemporalElement& valid) const {
  return EvalNode(*node_, valid);
}

bool TemporalPred::EvalNode(const Node& node, const TemporalElement& valid) {
  // Operands are evaluated in place: a `valid` or constant leaf is read by
  // reference, so only composite temporal expressions build an element.
  TemporalElement lhs_scratch;
  TemporalElement rhs_scratch;
  auto lhs = [&]() -> const TemporalElement& {
    return TemporalExpr::EvalRef(*node.lhs.node_, valid, lhs_scratch);
  };
  auto rhs = [&]() -> const TemporalElement& {
    return TemporalExpr::EvalRef(*node.rhs.node_, valid, rhs_scratch);
  };
  switch (node.kind) {
    case Kind::kConst:
      return node.const_value;
    case Kind::kOverlaps:
      return lhs().Overlaps(rhs());
    case Kind::kContains:
      return lhs().Covers(rhs());
    case Kind::kBefore: {
      const TemporalElement& a = lhs();
      const TemporalElement& b = rhs();
      return !a.empty() && !b.empty() && a.Max() <= b.Min();
    }
    case Kind::kEquals:
      return lhs() == rhs();
    case Kind::kEmpty:
      return lhs().empty();
    case Kind::kAnd:
      return EvalNode(*node.left, valid) && EvalNode(*node.right, valid);
    case Kind::kOr:
      return EvalNode(*node.left, valid) || EvalNode(*node.right, valid);
    case Kind::kNot:
      return !EvalNode(*node.left, valid);
  }
  return false;
}

bool TemporalPred::IsTrueLiteral() const {
  return node_->kind == Kind::kConst && node_->const_value;
}

std::string TemporalPred::ToString() const {
  switch (node_->kind) {
    case Kind::kConst:
      return node_->const_value ? "true" : "false";
    case Kind::kOverlaps:
      return "overlaps(" + node_->lhs.ToString() + ", " +
             node_->rhs.ToString() + ")";
    case Kind::kContains:
      return "contains(" + node_->lhs.ToString() + ", " +
             node_->rhs.ToString() + ")";
    case Kind::kBefore:
      return "before(" + node_->lhs.ToString() + ", " + node_->rhs.ToString() +
             ")";
    case Kind::kEquals:
      return "equals(" + node_->lhs.ToString() + ", " + node_->rhs.ToString() +
             ")";
    case Kind::kEmpty:
      return "isempty(" + node_->lhs.ToString() + ")";
    case Kind::kAnd:
      return "(" + TemporalPred(node_->left).ToString() + " and " +
             TemporalPred(node_->right).ToString() + ")";
    case Kind::kOr:
      return "(" + TemporalPred(node_->left).ToString() + " or " +
             TemporalPred(node_->right).ToString() + ")";
    case Kind::kNot:
      return "not (" + TemporalPred(node_->left).ToString() + ")";
  }
  return "?";
}

bool operator==(const TemporalPred& a, const TemporalPred& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TemporalPred::Kind::kConst:
      return a.const_value() == b.const_value();
    case TemporalPred::Kind::kOverlaps:
    case TemporalPred::Kind::kContains:
    case TemporalPred::Kind::kBefore:
    case TemporalPred::Kind::kEquals:
      return a.lhs() == b.lhs() && a.rhs() == b.rhs();
    case TemporalPred::Kind::kEmpty:
      return a.lhs() == b.lhs();
    case TemporalPred::Kind::kAnd:
    case TemporalPred::Kind::kOr:
      return a.left() == b.left() && a.right() == b.right();
    case TemporalPred::Kind::kNot:
      return a.left() == b.left();
  }
  return false;
}

TemporalPred::Kind TemporalPred::kind() const { return node_->kind; }
bool TemporalPred::const_value() const {
  assert(node_->kind == Kind::kConst);
  return node_->const_value;
}
TemporalExpr TemporalPred::lhs() const { return node_->lhs; }
TemporalExpr TemporalPred::rhs() const { return node_->rhs; }
TemporalPred TemporalPred::left() const {
  assert(node_->left != nullptr);
  return TemporalPred(node_->left);
}
TemporalPred TemporalPred::right() const {
  assert(node_->right != nullptr);
  return TemporalPred(node_->right);
}

std::ostream& operator<<(std::ostream& os, const TemporalPred& pred) {
  return os << pred.ToString();
}

}  // namespace ttra
