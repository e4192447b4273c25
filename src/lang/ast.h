#ifndef TTRA_LANG_AST_H_
#define TTRA_LANG_AST_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "historical/hstate.h"
#include "snapshot/aggregate.h"
#include "historical/temporal_expr.h"
#include "lang/diagnostics.h"
#include "rollback/relation.h"
#include "snapshot/predicate.h"
#include "snapshot/state.h"

namespace ttra::lang {

/// What every expression of the language evaluates to: a snapshot state or
/// an historical state (the paper's two state domains).
using StateValue = std::variant<SnapshotState, HistoricalState>;

/// Arithmetic over attribute values, used by the `extend` operator (our
/// language extension backing Quel's `replace ... set a = a + 1`).
class ScalarExpr {
 public:
  enum class Op : uint8_t { kAdd, kSub, kMul, kDiv };
  enum class Kind : uint8_t { kAttr, kConst, kBinary };

  /// Defaults to the integer constant 0.
  ScalarExpr();

  static ScalarExpr Attr(std::string name);
  static ScalarExpr Const(Value value);
  static ScalarExpr Binary(Op op, ScalarExpr lhs, ScalarExpr rhs);

  /// Static result type under `schema`.
  Result<ValueType> TypeIn(const Schema& schema) const;

  std::set<std::string> AttributeNames() const;

  std::string ToString() const;

  friend bool operator==(const ScalarExpr& a, const ScalarExpr& b);

  Kind kind() const;
  const std::string& attr_name() const;  // kAttr
  const Value& constant() const;         // kConst
  Op op() const;                         // kBinary
  ScalarExpr left() const;               // kBinary
  ScalarExpr right() const;              // kBinary

 private:
  struct Node;
  explicit ScalarExpr(std::shared_ptr<const Node> node);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const ScalarExpr& expr);

/// A scalar expression resolved once against one schema (extend's
/// per-statement step): attribute operands are positions and constants
/// are read in place. Keeps its expression alive.
class BoundScalar {
 public:
  /// Fails if an attribute operand is missing from `schema`.
  static Result<BoundScalar> Bind(const ScalarExpr& expr,
                                  const Schema& schema);

  /// Evaluates on one tuple over the bound schema. `+` concatenates
  /// strings; all four operators work on numeric operands (int op int →
  /// int except /, which divides as int and errors on zero; any double
  /// operand → double).
  Result<Value> Eval(const Tuple& tuple) const { return EvalAt(0, tuple); }

 private:
  // Nodes in prefix order: a binary node's left operand follows it, and
  // `right` indexes its right operand.
  struct Node {
    ScalarExpr::Kind kind = ScalarExpr::Kind::kConst;
    ScalarExpr::Op op = ScalarExpr::Op::kAdd;
    const Value* constant = nullptr;  // kConst
    size_t index = 0;                 // kAttr
    uint32_t right = 0;               // kBinary
  };

  BoundScalar(ScalarExpr expr, std::vector<Node> nodes)
      : expr_(std::move(expr)), nodes_(std::move(nodes)) {}

  static Status BindInto(const ScalarExpr& expr, const Schema& schema,
                         std::vector<Node>& out);
  Result<Value> EvalAt(uint32_t i, const Tuple& tuple) const;

  ScalarExpr expr_;
  std::vector<Node> nodes_;
};

/// Binary algebraic operators. In the concrete syntax these are
/// polymorphic: the analyzer resolves each use to the snapshot operator or
/// its historical counterpart (∪ vs ∪̂ etc.) from the operand state kinds.
enum class BinaryOp : uint8_t { kUnion, kMinus, kTimes, kIntersect, kJoin };

std::string_view BinaryOpName(BinaryOp op);

/// The paper's EXPRESSION syntactic domain: constants, the five snapshot
/// operators (+ derived intersect/join/rename and the extend extension),
/// the historical operators including δ_{G,V}, and the rollback operators
/// ρ (kRollback, historical=false) and ρ̂ (historical=true). Immutable;
/// cheap to copy.
class Expr {
 public:
  enum class Kind : uint8_t {
    kConst,
    kBinary,
    kProject,
    kSelect,
    kRename,
    kExtend,
    kDelta,
    kSummarize,
    kRollback,
  };

  /// Defaults to the empty snapshot-state constant, one shared immutable
  /// node: a default expression allocates nothing.
  Expr();

  static Expr Const(SnapshotState state);
  static Expr Const(HistoricalState state);
  static Expr Binary(BinaryOp op, Expr lhs, Expr rhs);
  static Expr Project(std::vector<std::string> attributes, Expr child);
  static Expr Select(Predicate predicate, Expr child);
  static Expr Rename(std::string from, std::string to, Expr child);
  static Expr Extend(
      std::vector<std::pair<std::string, ScalarExpr>> definitions, Expr child);
  static Expr Delta(TemporalPred pred, TemporalExpr projection, Expr child);
  /// Aggregation (Quel's aggregate functions as an algebraic operator;
  /// snapshot-reducible temporal semantics over historical operands).
  static Expr Summarize(std::vector<std::string> group_attrs,
                        std::vector<AggregateDef> aggregates, Expr child);
  /// ρ(name, txn); nullopt txn means ∞. `historical` selects ρ̂.
  static Expr Rollback(std::string name,
                       std::optional<TransactionNumber> txn, bool historical);

  std::string ToString() const;

  /// Relation names referenced via ρ/ρ̂ anywhere in the tree.
  std::set<std::string> RelationNames() const;

  /// Source region this expression was parsed from; invalid (line 0) for
  /// programmatically built trees. Ignored by operator==.
  const SourceSpan& span() const;

  /// Copy of this expression annotated with a source span (children keep
  /// their own spans). Used by the parser; cheap — one node is cloned.
  Expr WithSpan(SourceSpan span) const&;
  /// As above, but a node no other expression shares (one a factory or
  /// the parser just built) is annotated in place instead of cloned.
  Expr WithSpan(SourceSpan span) &&;

  friend bool operator==(const Expr& a, const Expr& b);

  /// True when both are the same node, not merely equal trees: a rewrite
  /// that changed nothing below a node can keep the node.
  bool IsSameNode(const Expr& other) const { return node_ == other.node_; }

  Kind kind() const;
  // kConst:
  const StateValue& constant() const;
  // kBinary:
  BinaryOp op() const;
  // kBinary (both), kProject/kSelect/kRename/kExtend/kDelta (child = left):
  Expr left() const;
  Expr right() const;
  // kProject:
  const std::vector<std::string>& attributes() const;
  // kSelect:
  const Predicate& predicate() const;
  // kRename:
  const std::string& rename_from() const;
  const std::string& rename_to() const;
  // kExtend:
  const std::vector<std::pair<std::string, ScalarExpr>>& definitions() const;
  // kDelta:
  const TemporalPred& temporal_pred() const;
  const TemporalExpr& temporal_projection() const;
  // kSummarize:
  const std::vector<std::string>& group_attrs() const;
  const std::vector<AggregateDef>& aggregates() const;
  // kRollback:
  const std::string& relation_name() const;
  const std::optional<TransactionNumber>& rollback_txn() const;
  bool rollback_historical() const;

 private:
  struct Node;
  explicit Expr(std::shared_ptr<const Node> node);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const Expr& expr);

// --- Statements (the paper's COMMAND domain plus the show query and the --
// --- extension commands). -------------------------------------------------

// Statements carry the source span they were parsed from (invalid for
// hand-built statements). Spans are position metadata, not structure, so
// every operator== below ignores them.

struct DefineRelationStmt {
  std::string name;
  RelationType type = RelationType::kSnapshot;
  Schema schema;
  SourceSpan span = {};
  friend bool operator==(const DefineRelationStmt& a,
                         const DefineRelationStmt& b) {
    return a.name == b.name && a.type == b.type && a.schema == b.schema;
  }
};

struct ModifyStateStmt {
  std::string name;
  Expr expr;
  SourceSpan span = {};
  friend bool operator==(const ModifyStateStmt& a, const ModifyStateStmt& b) {
    return a.name == b.name && a.expr == b.expr;
  }
};

struct DeleteRelationStmt {
  std::string name;
  SourceSpan span = {};
  friend bool operator==(const DeleteRelationStmt& a,
                         const DeleteRelationStmt& b) {
    return a.name == b.name;
  }
};

struct ModifySchemaStmt {
  std::string name;
  Schema schema;
  SourceSpan span = {};
  friend bool operator==(const ModifySchemaStmt& a,
                         const ModifySchemaStmt& b) {
    return a.name == b.name && a.schema == b.schema;
  }
};

/// Pure query: evaluates the expression and reports its value (the
/// "display the contents of a relation" command of §3.1).
struct ShowStmt {
  Expr expr;
  SourceSpan span = {};
  friend bool operator==(const ShowStmt& a, const ShowStmt& b) {
    return a.expr == b.expr;
  }
};

using Stmt = std::variant<DefineRelationStmt, ModifyStateStmt,
                          DeleteRelationStmt, ModifySchemaStmt, ShowStmt>;

/// The paper's SENTENCE domain: a non-empty command sequence.
using Program = std::vector<Stmt>;

/// The span of any statement alternative.
const SourceSpan& StmtSpan(const Stmt& stmt);

/// The expression inside a modify_state/show statement, nullptr otherwise.
const Expr* StmtExpr(const Stmt& stmt);

std::string SchemaToSyntax(const Schema& schema);
std::string StmtToString(const Stmt& stmt);
std::string ProgramToString(const Program& program);

}  // namespace ttra::lang

#endif  // TTRA_LANG_AST_H_
