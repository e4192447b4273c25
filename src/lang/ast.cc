#include "lang/ast.h"

#include <cassert>
#include <utility>

#include "util/string_util.h"

namespace ttra::lang {

// --- ScalarExpr ------------------------------------------------------------

struct ScalarExpr::Node {
  Kind kind;
  std::string attr;  // kAttr
  Value constant;    // kConst
  Op op = Op::kAdd;  // kBinary
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

ScalarExpr::ScalarExpr(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

ScalarExpr::ScalarExpr() : ScalarExpr(Const(Value::Int(0))) {}

ScalarExpr ScalarExpr::Attr(std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAttr;
  node->attr = std::move(name);
  return ScalarExpr(std::move(node));
}

ScalarExpr ScalarExpr::Const(Value value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConst;
  node->constant = std::move(value);
  return ScalarExpr(std::move(node));
}

ScalarExpr ScalarExpr::Binary(Op op, ScalarExpr lhs, ScalarExpr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBinary;
  node->op = op;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return ScalarExpr(std::move(node));
}

namespace {

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble;
}

char ScalarOpChar(ScalarExpr::Op op) {
  switch (op) {
    case ScalarExpr::Op::kAdd:
      return '+';
    case ScalarExpr::Op::kSub:
      return '-';
    case ScalarExpr::Op::kMul:
      return '*';
    case ScalarExpr::Op::kDiv:
      return '/';
  }
  return '?';
}

Result<Value> ApplyScalarOp(ScalarExpr::Op op, const Value& a,
                            const Value& b) {
  if (op == ScalarExpr::Op::kAdd && a.type() == ValueType::kString &&
      b.type() == ValueType::kString) {
    return Value::String(a.AsString() + b.AsString());
  }
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return TypeMismatchError(
        std::string("arithmetic requires numeric operands; got ") +
        std::string(ValueTypeName(a.type())) + " and " +
        std::string(ValueTypeName(b.type())));
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    const int64_t x = a.AsInt();
    const int64_t y = b.AsInt();
    switch (op) {
      case ScalarExpr::Op::kAdd:
        return Value::Int(x + y);
      case ScalarExpr::Op::kSub:
        return Value::Int(x - y);
      case ScalarExpr::Op::kMul:
        return Value::Int(x * y);
      case ScalarExpr::Op::kDiv:
        if (y == 0) return InvalidArgumentError("integer division by zero");
        return Value::Int(x / y);
    }
  }
  const double x =
      a.type() == ValueType::kInt ? static_cast<double>(a.AsInt())
                                  : a.AsDouble();
  const double y =
      b.type() == ValueType::kInt ? static_cast<double>(b.AsInt())
                                  : b.AsDouble();
  switch (op) {
    case ScalarExpr::Op::kAdd:
      return Value::Double(x + y);
    case ScalarExpr::Op::kSub:
      return Value::Double(x - y);
    case ScalarExpr::Op::kMul:
      return Value::Double(x * y);
    case ScalarExpr::Op::kDiv:
      return Value::Double(x / y);
  }
  return InternalError("unhandled scalar op");
}

}  // namespace

Result<ValueType> ScalarExpr::TypeIn(const Schema& schema) const {
  switch (node_->kind) {
    case Kind::kAttr: {
      auto index = schema.IndexOf(node_->attr);
      if (!index.has_value()) {
        return SchemaMismatchError("extend references unknown attribute: " +
                                   node_->attr);
      }
      return schema.attribute(*index).type;
    }
    case Kind::kConst:
      return node_->constant.type();
    case Kind::kBinary: {
      TTRA_ASSIGN_OR_RETURN(ValueType a,
                            ScalarExpr(node_->left).TypeIn(schema));
      TTRA_ASSIGN_OR_RETURN(ValueType b,
                            ScalarExpr(node_->right).TypeIn(schema));
      if (node_->op == Op::kAdd && a == ValueType::kString &&
          b == ValueType::kString) {
        return ValueType::kString;
      }
      if (!IsNumeric(a) || !IsNumeric(b)) {
        return TypeMismatchError(
            "arithmetic requires numeric operands in " + ToString());
      }
      if (a == ValueType::kDouble || b == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      return ValueType::kInt;
    }
  }
  return InternalError("unhandled scalar kind");
}

std::set<std::string> ScalarExpr::AttributeNames() const {
  switch (node_->kind) {
    case Kind::kAttr:
      return {node_->attr};
    case Kind::kConst:
      return {};
    case Kind::kBinary: {
      auto names = ScalarExpr(node_->left).AttributeNames();
      auto right = ScalarExpr(node_->right).AttributeNames();
      names.insert(right.begin(), right.end());
      return names;
    }
  }
  return {};
}

std::string ScalarExpr::ToString() const {
  switch (node_->kind) {
    case Kind::kAttr:
      return node_->attr;
    case Kind::kConst:
      return node_->constant.ToString();
    case Kind::kBinary:
      return "(" + ScalarExpr(node_->left).ToString() + " " +
             ScalarOpChar(node_->op) + " " +
             ScalarExpr(node_->right).ToString() + ")";
  }
  return "?";
}

bool operator==(const ScalarExpr& a, const ScalarExpr& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ScalarExpr::Kind::kAttr:
      return a.attr_name() == b.attr_name();
    case ScalarExpr::Kind::kConst:
      return a.constant() == b.constant();
    case ScalarExpr::Kind::kBinary:
      return a.op() == b.op() && a.left() == b.left() &&
             a.right() == b.right();
  }
  return false;
}

ScalarExpr::Kind ScalarExpr::kind() const { return node_->kind; }
const std::string& ScalarExpr::attr_name() const {
  assert(node_->kind == Kind::kAttr);
  return node_->attr;
}
const Value& ScalarExpr::constant() const {
  assert(node_->kind == Kind::kConst);
  return node_->constant;
}
ScalarExpr::Op ScalarExpr::op() const {
  assert(node_->kind == Kind::kBinary);
  return node_->op;
}
ScalarExpr ScalarExpr::left() const {
  assert(node_->left != nullptr);
  return ScalarExpr(node_->left);
}
ScalarExpr ScalarExpr::right() const {
  assert(node_->right != nullptr);
  return ScalarExpr(node_->right);
}

std::ostream& operator<<(std::ostream& os, const ScalarExpr& expr) {
  return os << expr.ToString();
}

Status BoundScalar::BindInto(const ScalarExpr& expr, const Schema& schema,
                             std::vector<Node>& out) {
  const size_t at = out.size();
  out.push_back(Node{.kind = expr.kind()});
  switch (expr.kind()) {
    case ScalarExpr::Kind::kAttr: {
      auto index = schema.IndexOf(expr.attr_name());
      if (!index.has_value()) {
        return SchemaMismatchError("extend references unknown attribute: " +
                                   expr.attr_name());
      }
      out[at].index = *index;
      return Status::Ok();
    }
    case ScalarExpr::Kind::kConst:
      out[at].constant = &expr.constant();
      return Status::Ok();
    case ScalarExpr::Kind::kBinary:
      out[at].op = expr.op();
      TTRA_RETURN_IF_ERROR(BindInto(expr.left(), schema, out));
      out[at].right = static_cast<uint32_t>(out.size());
      return BindInto(expr.right(), schema, out);
  }
  return InternalError("unhandled scalar kind");
}

Result<BoundScalar> BoundScalar::Bind(const ScalarExpr& expr,
                                      const Schema& schema) {
  std::vector<Node> nodes;
  TTRA_RETURN_IF_ERROR(BindInto(expr, schema, nodes));
  return BoundScalar(expr, std::move(nodes));
}

Result<Value> BoundScalar::EvalAt(uint32_t i, const Tuple& tuple) const {
  const Node& node = nodes_[i];
  switch (node.kind) {
    case ScalarExpr::Kind::kAttr:
      return tuple.at(node.index);
    case ScalarExpr::Kind::kConst:
      return *node.constant;
    case ScalarExpr::Kind::kBinary: {
      // A leaf operand is read in place; only a nested operation builds a
      // value of its own.
      auto operand = [&](uint32_t child, Value& scratch) -> Result<const Value*> {
        const Node& leaf = nodes_[child];
        if (leaf.kind == ScalarExpr::Kind::kAttr) return &tuple.at(leaf.index);
        if (leaf.kind == ScalarExpr::Kind::kConst) return leaf.constant;
        TTRA_ASSIGN_OR_RETURN(scratch, EvalAt(child, tuple));
        return &scratch;
      };
      Value left_scratch, right_scratch;
      TTRA_ASSIGN_OR_RETURN(const Value* a, operand(i + 1, left_scratch));
      TTRA_ASSIGN_OR_RETURN(const Value* b, operand(node.right, right_scratch));
      return ApplyScalarOp(node.op, *a, *b);
    }
  }
  return InternalError("unhandled scalar kind");
}

// --- Expr -------------------------------------------------------------------

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kUnion:
      return "union";
    case BinaryOp::kMinus:
      return "minus";
    case BinaryOp::kTimes:
      return "times";
    case BinaryOp::kIntersect:
      return "intersect";
    case BinaryOp::kJoin:
      return "join";
  }
  return "?";
}

struct Expr::Node {
  Kind kind;
  // kConst
  StateValue constant;
  // kBinary
  BinaryOp op = BinaryOp::kUnion;
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
  // kProject
  std::vector<std::string> attributes;
  // kSelect
  Predicate predicate;
  // kRename
  std::string rename_from;
  std::string rename_to;
  // kExtend
  std::vector<std::pair<std::string, ScalarExpr>> definitions;
  // kDelta
  TemporalPred temporal_pred;
  TemporalExpr temporal_projection;
  // kSummarize
  std::vector<std::string> group_attrs;
  std::vector<AggregateDef> aggregates;
  // kRollback
  std::string relation_name;
  std::optional<TransactionNumber> rollback_txn;
  bool rollback_historical = false;
  // Source position (not structure; excluded from operator==).
  SourceSpan span;
};

Expr::Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

// The default (empty snapshot constant) is one shared immutable node, like
// the Predicate and TemporalExpr defaults its slots hold.
Expr::Expr() {
  static const std::shared_ptr<const Node> kEmpty =
      Const(SnapshotState()).node_;
  node_ = kEmpty;
}

Expr Expr::Const(SnapshotState state) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConst;
  node->constant = std::move(state);
  return Expr(std::move(node));
}

Expr Expr::Const(HistoricalState state) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kConst;
  node->constant = std::move(state);
  return Expr(std::move(node));
}

Expr Expr::Binary(BinaryOp op, Expr lhs, Expr rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBinary;
  node->op = op;
  node->left = std::move(lhs.node_);
  node->right = std::move(rhs.node_);
  return Expr(std::move(node));
}

Expr Expr::Project(std::vector<std::string> attributes, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kProject;
  node->attributes = std::move(attributes);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Select(Predicate predicate, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSelect;
  node->predicate = std::move(predicate);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Rename(std::string from, std::string to, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRename;
  node->rename_from = std::move(from);
  node->rename_to = std::move(to);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Extend(std::vector<std::pair<std::string, ScalarExpr>> definitions,
                  Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kExtend;
  node->definitions = std::move(definitions);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Delta(TemporalPred pred, TemporalExpr projection, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kDelta;
  node->temporal_pred = std::move(pred);
  node->temporal_projection = std::move(projection);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Summarize(std::vector<std::string> group_attrs,
                     std::vector<AggregateDef> aggregates, Expr child) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kSummarize;
  node->group_attrs = std::move(group_attrs);
  node->aggregates = std::move(aggregates);
  node->left = std::move(child.node_);
  return Expr(std::move(node));
}

Expr Expr::Rollback(std::string name, std::optional<TransactionNumber> txn,
                    bool historical) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kRollback;
  node->relation_name = std::move(name);
  node->rollback_txn = txn;
  node->rollback_historical = historical;
  return Expr(std::move(node));
}

std::string Expr::ToString() const {
  switch (node_->kind) {
    case Kind::kConst:
      if (std::holds_alternative<HistoricalState>(node_->constant)) {
        return "historical " +
               std::get<HistoricalState>(node_->constant).ToString();
      }
      return std::get<SnapshotState>(node_->constant).ToString();
    case Kind::kBinary:
      return "(" + left().ToString() + " " +
             std::string(BinaryOpName(node_->op)) + " " + right().ToString() +
             ")";
    case Kind::kProject:
      return "project[" + Join(node_->attributes, ", ") + "](" +
             left().ToString() + ")";
    case Kind::kSelect:
      return "select[" + node_->predicate.ToString() + "](" +
             left().ToString() + ")";
    case Kind::kRename:
      return "rename[" + node_->rename_from + " -> " + node_->rename_to +
             "](" + left().ToString() + ")";
    case Kind::kExtend: {
      std::string defs;
      for (size_t i = 0; i < node_->definitions.size(); ++i) {
        if (i > 0) defs += ", ";
        defs += node_->definitions[i].first + " = " +
                node_->definitions[i].second.ToString();
      }
      return "extend[" + defs + "](" + left().ToString() + ")";
    }
    case Kind::kDelta:
      return "delta[" + node_->temporal_pred.ToString() + "; " +
             node_->temporal_projection.ToString() + "](" + left().ToString() +
             ")";
    case Kind::kSummarize: {
      std::string defs;
      for (size_t i = 0; i < node_->aggregates.size(); ++i) {
        const AggregateDef& def = node_->aggregates[i];
        if (i > 0) defs += ", ";
        defs += def.name + " = " + std::string(AggFuncName(def.func));
        if (def.func != AggFunc::kCount) defs += "(" + def.attr + ")";
      }
      return "summarize[" + Join(node_->group_attrs, ", ") + "; " + defs +
             "](" + left().ToString() + ")";
    }
    case Kind::kRollback: {
      const std::string op = node_->rollback_historical ? "hrho" : "rho";
      const std::string txn = node_->rollback_txn.has_value()
                                  ? std::to_string(*node_->rollback_txn)
                                  : "inf";
      return op + "(" + node_->relation_name + ", " + txn + ")";
    }
  }
  return "?";
}

const SourceSpan& Expr::span() const { return node_->span; }

Expr Expr::WithSpan(SourceSpan span) const& {
  auto node = std::make_shared<Node>(*node_);
  node->span = span;
  return Expr(std::move(node));
}

Expr Expr::WithSpan(SourceSpan span) && {
  if (node_.use_count() != 1) return std::as_const(*this).WithSpan(span);
  // Every node is created non-const by a factory, and no other expression
  // can observe this one, so the annotation is made in place.
  const_cast<Node&>(*node_).span = span;
  return std::move(*this);
}

std::set<std::string> Expr::RelationNames() const {
  std::set<std::string> names;
  switch (node_->kind) {
    case Kind::kConst:
      break;
    case Kind::kBinary: {
      names = left().RelationNames();
      auto r = right().RelationNames();
      names.insert(r.begin(), r.end());
      break;
    }
    case Kind::kRollback:
      names.insert(node_->relation_name);
      break;
    default:
      names = left().RelationNames();
  }
  return names;
}

bool operator==(const Expr& a, const Expr& b) {
  if (a.node_ == b.node_) return true;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Expr::Kind::kConst:
      return a.constant() == b.constant();
    case Expr::Kind::kBinary:
      return a.op() == b.op() && a.left() == b.left() &&
             a.right() == b.right();
    case Expr::Kind::kProject:
      return a.attributes() == b.attributes() && a.left() == b.left();
    case Expr::Kind::kSelect:
      return a.predicate() == b.predicate() && a.left() == b.left();
    case Expr::Kind::kRename:
      return a.rename_from() == b.rename_from() &&
             a.rename_to() == b.rename_to() && a.left() == b.left();
    case Expr::Kind::kExtend:
      return a.definitions() == b.definitions() && a.left() == b.left();
    case Expr::Kind::kDelta:
      return a.temporal_pred() == b.temporal_pred() &&
             a.temporal_projection() == b.temporal_projection() &&
             a.left() == b.left();
    case Expr::Kind::kSummarize:
      return a.group_attrs() == b.group_attrs() &&
             a.aggregates() == b.aggregates() && a.left() == b.left();
    case Expr::Kind::kRollback:
      return a.relation_name() == b.relation_name() &&
             a.rollback_txn() == b.rollback_txn() &&
             a.rollback_historical() == b.rollback_historical();
  }
  return false;
}

Expr::Kind Expr::kind() const { return node_->kind; }
const StateValue& Expr::constant() const {
  assert(node_->kind == Kind::kConst);
  return node_->constant;
}
BinaryOp Expr::op() const {
  assert(node_->kind == Kind::kBinary);
  return node_->op;
}
Expr Expr::left() const {
  assert(node_->left != nullptr);
  return Expr(node_->left);
}
Expr Expr::right() const {
  assert(node_->right != nullptr);
  return Expr(node_->right);
}
const std::vector<std::string>& Expr::attributes() const {
  assert(node_->kind == Kind::kProject);
  return node_->attributes;
}
const Predicate& Expr::predicate() const {
  assert(node_->kind == Kind::kSelect);
  return node_->predicate;
}
const std::string& Expr::rename_from() const {
  assert(node_->kind == Kind::kRename);
  return node_->rename_from;
}
const std::string& Expr::rename_to() const {
  assert(node_->kind == Kind::kRename);
  return node_->rename_to;
}
const std::vector<std::pair<std::string, ScalarExpr>>& Expr::definitions()
    const {
  assert(node_->kind == Kind::kExtend);
  return node_->definitions;
}
const TemporalPred& Expr::temporal_pred() const {
  assert(node_->kind == Kind::kDelta);
  return node_->temporal_pred;
}
const TemporalExpr& Expr::temporal_projection() const {
  assert(node_->kind == Kind::kDelta);
  return node_->temporal_projection;
}
const std::vector<std::string>& Expr::group_attrs() const {
  assert(node_->kind == Kind::kSummarize);
  return node_->group_attrs;
}
const std::vector<AggregateDef>& Expr::aggregates() const {
  assert(node_->kind == Kind::kSummarize);
  return node_->aggregates;
}
const std::string& Expr::relation_name() const {
  assert(node_->kind == Kind::kRollback);
  return node_->relation_name;
}
const std::optional<TransactionNumber>& Expr::rollback_txn() const {
  assert(node_->kind == Kind::kRollback);
  return node_->rollback_txn;
}
bool Expr::rollback_historical() const {
  assert(node_->kind == Kind::kRollback);
  return node_->rollback_historical;
}

std::ostream& operator<<(std::ostream& os, const Expr& expr) {
  return os << expr.ToString();
}

// --- Statements -------------------------------------------------------------

const SourceSpan& StmtSpan(const Stmt& stmt) {
  return std::visit([](const auto& s) -> const SourceSpan& { return s.span; },
                    stmt);
}

const Expr* StmtExpr(const Stmt& stmt) {
  if (const auto* modify = std::get_if<ModifyStateStmt>(&stmt)) {
    return &modify->expr;
  }
  if (const auto* show = std::get_if<ShowStmt>(&stmt)) return &show->expr;
  return nullptr;
}

std::string SchemaToSyntax(const Schema& schema) { return schema.ToString(); }

std::string StmtToString(const Stmt& stmt) {
  return std::visit(
      [](const auto& s) -> std::string {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, DefineRelationStmt>) {
          return "define_relation(" + s.name + ", " +
                 std::string(RelationTypeName(s.type)) + ", " +
                 SchemaToSyntax(s.schema) + ")";
        } else if constexpr (std::is_same_v<T, ModifyStateStmt>) {
          return "modify_state(" + s.name + ", " + s.expr.ToString() + ")";
        } else if constexpr (std::is_same_v<T, DeleteRelationStmt>) {
          return "delete_relation(" + s.name + ")";
        } else if constexpr (std::is_same_v<T, ModifySchemaStmt>) {
          return "modify_schema(" + s.name + ", " + SchemaToSyntax(s.schema) +
                 ")";
        } else {
          static_assert(std::is_same_v<T, ShowStmt>);
          return "show(" + s.expr.ToString() + ")";
        }
      },
      stmt);
}

std::string ProgramToString(const Program& program) {
  std::string out;
  for (const Stmt& stmt : program) {
    out += StmtToString(stmt);
    out += ";\n";
  }
  return out;
}

}  // namespace ttra::lang
