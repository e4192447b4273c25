#include "optimizer/rewriter.h"

#include <algorithm>
#include <optional>

#include "lang/evaluator.h"

namespace ttra::optimizer {

namespace {

using lang::AbsRelation;
using lang::AbsState;
using lang::Analyze;
using lang::AnalyzeStmt;
using lang::BinaryOp;
using lang::Catalog;
using lang::Expr;
using lang::ExprType;
using lang::StateKind;

// True when `e` contains a ρ/ρ̂ (Expr::RelationNames() is non-empty),
// without collecting the names.
bool ReadsRelation(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kConst:
      return false;
    case Expr::Kind::kRollback:
      return true;
    case Expr::Kind::kBinary:
      return ReadsRelation(e.left()) || ReadsRelation(e.right());
    default:
      return ReadsRelation(e.left());
  }
}

bool Covers(const Schema& schema, const std::set<std::string>& names) {
  return std::all_of(names.begin(), names.end(), [&schema](const auto& n) {
    return schema.IndexOf(n).has_value();
  });
}

}  // namespace

Predicate SimplifyPredicate(const Predicate& p) {
  switch (p.kind()) {
    case Predicate::Kind::kConst:
    case Predicate::Kind::kComparison:
      return p;
    case Predicate::Kind::kAnd: {
      Predicate l = SimplifyPredicate(p.left());
      Predicate r = SimplifyPredicate(p.right());
      if (l.IsFalseLiteral() || r.IsFalseLiteral()) return Predicate::False();
      if (l.IsTrueLiteral()) return r;
      if (r.IsTrueLiteral()) return l;
      return Predicate::And(std::move(l), std::move(r));
    }
    case Predicate::Kind::kOr: {
      Predicate l = SimplifyPredicate(p.left());
      Predicate r = SimplifyPredicate(p.right());
      if (l.IsTrueLiteral() || r.IsTrueLiteral()) return Predicate::True();
      if (l.IsFalseLiteral()) return r;
      if (r.IsFalseLiteral()) return l;
      return Predicate::Or(std::move(l), std::move(r));
    }
    case Predicate::Kind::kNot: {
      Predicate inner = SimplifyPredicate(p.left());
      if (inner.IsTrueLiteral()) return Predicate::False();
      if (inner.IsFalseLiteral()) return Predicate::True();
      if (inner.kind() == Predicate::Kind::kNot) return inner.left();
      return Predicate::Not(std::move(inner));
    }
  }
  return p;
}

std::vector<Predicate> SplitConjuncts(const Predicate& p) {
  if (p.kind() == Predicate::Kind::kAnd) {
    std::vector<Predicate> conjuncts = SplitConjuncts(p.left());
    std::vector<Predicate> right = SplitConjuncts(p.right());
    conjuncts.insert(conjuncts.end(), right.begin(), right.end());
    return conjuncts;
  }
  return {p};
}

Predicate AndAll(const std::vector<Predicate>& conjuncts) {
  if (conjuncts.empty()) return Predicate::True();
  Predicate result = conjuncts.front();
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = Predicate::And(std::move(result), conjuncts[i]);
  }
  return result;
}

namespace {

class Rewriter {
 public:
  explicit Rewriter(const Catalog& catalog,
                    const AbsState* facts = nullptr)
      : catalog_(catalog), facts_(facts) {}

  Expr Rewrite(const Expr& expr) {
    // Bottom-up, then local rules at this node to a (bounded) fixpoint.
    Expr node = RewriteChildren(expr);
    for (int i = 0; i < 8; ++i) {
      auto rewritten = ApplyLocal(node);
      if (!rewritten.has_value()) break;
      ++applications_;
      node = RewriteChildren(*rewritten);
    }
    return node;
  }

  int applications() const { return applications_; }

 private:
  Expr RewriteChildren(const Expr& expr) {
    if (expr.kind() == Expr::Kind::kConst ||
        expr.kind() == Expr::Kind::kRollback) {
      return expr;
    }
    Expr left = Rewrite(expr.left());
    std::optional<Expr> right;
    if (expr.kind() == Expr::Kind::kBinary) right = Rewrite(expr.right());
    // Nothing changed below: keep the node itself — unless it has a source
    // span. A rewritten tree's interior nodes carry none, so run-time
    // errors are positioned the same whether or not a rule fired.
    if (left.IsSameNode(expr.left()) &&
        (!right.has_value() || right->IsSameNode(expr.right())) &&
        !expr.span().valid()) {
      return expr;
    }
    switch (expr.kind()) {
      case Expr::Kind::kConst:
      case Expr::Kind::kRollback:
        return expr;
      case Expr::Kind::kBinary:
        return Expr::Binary(expr.op(), std::move(left), *std::move(right));
      case Expr::Kind::kProject:
        return Expr::Project(expr.attributes(), std::move(left));
      case Expr::Kind::kSelect:
        return Expr::Select(expr.predicate(), std::move(left));
      case Expr::Kind::kRename:
        return Expr::Rename(expr.rename_from(), expr.rename_to(),
                            std::move(left));
      case Expr::Kind::kExtend:
        return Expr::Extend(expr.definitions(), std::move(left));
      case Expr::Kind::kDelta:
        return Expr::Delta(expr.temporal_pred(), expr.temporal_projection(),
                           std::move(left));
      case Expr::Kind::kSummarize:
        return Expr::Summarize(expr.group_attrs(), expr.aggregates(),
                               std::move(left));
    }
    return expr;
  }

  /// One local rewrite at the root of `expr`, or nullopt if none applies.
  std::optional<Expr> ApplyLocal(const Expr& expr) {
    if (facts_ != nullptr) {
      if (auto folded = TryConstFold(expr)) return folded;
    }
    switch (expr.kind()) {
      case Expr::Kind::kSelect:
        return RewriteSelect(expr);
      case Expr::Kind::kProject:
        return RewriteProject(expr);
      case Expr::Kind::kDelta:
        if (expr.temporal_pred().IsTrueLiteral() &&
            expr.temporal_projection().IsIdentity()) {
          return expr.left();
        }
        return std::nullopt;
      case Expr::Kind::kRollback:
        return facts_ != nullptr ? RewriteRollback(expr) : std::nullopt;
      case Expr::Kind::kBinary:
        return facts_ != nullptr ? RewriteEmptyOperand(expr) : std::nullopt;
      default:
        return std::nullopt;
    }
  }

  // --- Facts-driven rules (facts_ != nullptr) -------------------------------

  /// TTRA-W009's rewrite: a relation-free non-constant subexpression is a
  /// compile-time constant — if its evaluation succeeds. Evaluation
  /// failure (division by zero, ...) keeps the expression so the run-time
  /// error surfaces exactly where it did before.
  std::optional<Expr> TryConstFold(const Expr& expr) {
    if (expr.kind() == Expr::Kind::kConst) return std::nullopt;
    if (ReadsRelation(expr)) return std::nullopt;
    if (!Analyze(expr, catalog_).ok()) return std::nullopt;
    auto value = lang::EvalExpr(expr, empty_db_);
    if (!value.ok()) return std::nullopt;
    if (std::holds_alternative<HistoricalState>(*value)) {
      return Expr::Const(std::get<HistoricalState>(std::move(*value)));
    }
    return Expr::Const(std::get<SnapshotState>(std::move(*value)));
  }

  /// ρ-empty fold and ρ-∞ normalization for finite-transaction rollbacks.
  std::optional<Expr> RewriteRollback(const Expr& expr) {
    if (!expr.rollback_txn().has_value()) return std::nullopt;
    const TransactionNumber txn = *expr.rollback_txn();
    const AbsRelation* rel = facts_->Find(expr.relation_name());
    if (rel == nullptr || !rel->states_complete) return std::nullopt;
    // Never replace a node static analysis rejects: the rewritten program
    // must fail exactly like the original.
    if (!Analyze(expr, catalog_).ok()) return std::nullopt;
    if (rel->ProvablyEmptyAt(txn)) {
      // FINDSTATE returns Empty(SchemaAt(txn)); fold only when that scheme
      // is provably the current one, so the constant types exactly like
      // the rollback node did (no static/run-time divergence).
      const Schema* at = rel->ProvableSchemaAt(txn);
      if (at == nullptr || !(*at == rel->schema)) return std::nullopt;
      if (expr.rollback_historical()) {
        return Expr::Const(HistoricalState::Empty(*at));
      }
      return Expr::Const(SnapshotState::Empty(*at));
    }
    // N provably at/after the last recorded state: FINDSTATE picks that
    // last state either way, and ∞ names it without a transaction number.
    const std::optional<lang::TxnInterval> last = rel->LastStateTxn();
    if (last.has_value() && last->hi.has_value() && txn >= *last->hi) {
      return Expr::Rollback(expr.relation_name(), std::nullopt,
                            expr.rollback_historical());
    }
    return std::nullopt;
  }

  /// True when every ρ/ρ̂ inside `e` provably observes a state whose
  /// recorded scheme equals the scheme static analysis assigned to the
  /// node. Under this condition Analyze's acceptance proves no run-time
  /// schema/type check in `e` can fail, so a rewrite may remove such
  /// checks (∅-pruning removes the binary operator that performed them).
  bool RuntimeSchemaProvable(const Expr& e) const {
    switch (e.kind()) {
      case Expr::Kind::kConst:
        return true;
      case Expr::Kind::kRollback: {
        const AbsRelation* rel = facts_->Find(e.relation_name());
        if (rel == nullptr) return false;
        const Schema* observed = rel->ProvableObservedSchemaAt(e.rollback_txn());
        return observed != nullptr && *observed == rel->schema;
      }
      case Expr::Kind::kBinary:
        return RuntimeSchemaProvable(e.left()) &&
               RuntimeSchemaProvable(e.right());
      default:
        return RuntimeSchemaProvable(e.left());
    }
  }

  /// True when evaluating `e` cannot fail for value-dependent reasons once
  /// static analysis accepted it and RuntimeSchemaProvable holds: extend
  /// (scalar arithmetic can divide by zero), summarize and delta
  /// (value-dependent domain checks) are the failure sources. Only such
  /// subtrees may be discarded without masking an error.
  bool DiscardSafe(const Expr& e) const {
    switch (e.kind()) {
      case Expr::Kind::kConst:
      case Expr::Kind::kRollback:
        return true;
      case Expr::Kind::kExtend:
      case Expr::Kind::kSummarize:
      case Expr::Kind::kDelta:
        return false;
      case Expr::Kind::kBinary:
        return DiscardSafe(e.left()) && DiscardSafe(e.right());
      default:
        return DiscardSafe(e.left());
    }
  }

  static bool IsEmptyConst(const Expr& e) {
    if (e.kind() != Expr::Kind::kConst) return false;
    return std::visit([](const auto& s) { return s.empty(); }, e.constant());
  }

  /// ∅-pruning of binary operators with a provably-empty operand.
  std::optional<Expr> RewriteEmptyOperand(const Expr& expr) {
    const Expr lhs = expr.left();
    const Expr rhs = expr.right();
    const bool lhs_empty = IsEmptyConst(lhs);
    const bool rhs_empty = IsEmptyConst(rhs);
    if (!lhs_empty && !rhs_empty) return std::nullopt;
    auto type = Analyze(expr, catalog_);
    if (!type.ok() || !RuntimeSchemaProvable(expr)) return std::nullopt;
    const auto empty_result = [&type]() -> Expr {
      if (type->kind == StateKind::kHistorical) {
        return Expr::Const(HistoricalState::Empty(type->schema));
      }
      return Expr::Const(SnapshotState::Empty(type->schema));
    };
    switch (expr.op()) {
      case BinaryOp::kUnion:
        // Nothing value-bearing is discarded: ∅ contributes no tuples.
        if (lhs_empty) return rhs;
        return lhs;
      case BinaryOp::kMinus:
        if (rhs_empty) return lhs;  // E − ∅ → E
        // ∅ − E → ∅ discards E.
        return DiscardSafe(rhs) ? std::optional<Expr>(lhs) : std::nullopt;
      case BinaryOp::kIntersect:
        if (lhs_empty) {
          return DiscardSafe(rhs) ? std::optional<Expr>(lhs) : std::nullopt;
        }
        return DiscardSafe(lhs) ? std::optional<Expr>(rhs) : std::nullopt;
      case BinaryOp::kTimes:
      case BinaryOp::kJoin:
        // ∅ × E and ∅ ⋈ E are empty over the combined scheme.
        if (DiscardSafe(lhs_empty ? rhs : lhs)) return empty_result();
        return std::nullopt;
    }
    return std::nullopt;
  }

  std::optional<Expr> RewriteSelect(const Expr& expr) {
    Predicate pred = SimplifyPredicate(expr.predicate());
    const Expr child = expr.left();

    // σ_true(E) → E.
    if (pred.IsTrueLiteral()) return child;

    // σ_false(E) → empty constant of E's scheme (needs a typeable child).
    if (pred.IsFalseLiteral()) {
      auto type = Analyze(child, catalog_);
      if (type.ok()) {
        if (type->kind == StateKind::kSnapshot) {
          return Expr::Const(SnapshotState::Empty(type->schema));
        }
        return Expr::Const(HistoricalState::Empty(type->schema));
      }
      return std::nullopt;
    }

    // Simplification changed the predicate? Re-anchor and continue.
    if (!(pred == expr.predicate())) {
      return Expr::Select(std::move(pred), child);
    }

    switch (child.kind()) {
      case Expr::Kind::kSelect:
        // σ-merge.
        return Expr::Select(Predicate::And(pred, child.predicate()),
                            child.left());
      case Expr::Kind::kBinary:
        switch (child.op()) {
          case BinaryOp::kUnion:
          case BinaryOp::kMinus:
            // σ distributes over ∪ and −.
            return Expr::Binary(child.op(),
                                Expr::Select(pred, child.left()),
                                Expr::Select(pred, child.right()));
          case BinaryOp::kTimes:
            return PushSelectThroughProduct(pred, child);
          default:
            return std::nullopt;
        }
      default:
        return std::nullopt;
    }
  }

  std::optional<Expr> PushSelectThroughProduct(const Predicate& pred,
                                               const Expr& product) {
    auto lhs_type = Analyze(product.left(), catalog_);
    auto rhs_type = Analyze(product.right(), catalog_);
    if (!lhs_type.ok() || !rhs_type.ok()) return std::nullopt;

    std::vector<Predicate> lhs_conj, rhs_conj, mixed;
    for (const Predicate& conjunct : SplitConjuncts(pred)) {
      const std::set<std::string> names = conjunct.AttributeNames();
      if (Covers(lhs_type->schema, names)) {
        lhs_conj.push_back(conjunct);
      } else if (Covers(rhs_type->schema, names)) {
        rhs_conj.push_back(conjunct);
      } else {
        mixed.push_back(conjunct);
      }
    }
    if (lhs_conj.empty() && rhs_conj.empty()) return std::nullopt;

    Expr lhs = lhs_conj.empty()
                   ? product.left()
                   : Expr::Select(AndAll(lhs_conj), product.left());
    Expr rhs = rhs_conj.empty()
                   ? product.right()
                   : Expr::Select(AndAll(rhs_conj), product.right());
    Expr pushed = Expr::Binary(BinaryOp::kTimes, std::move(lhs),
                               std::move(rhs));
    if (mixed.empty()) return pushed;
    return Expr::Select(AndAll(mixed), std::move(pushed));
  }

  std::optional<Expr> RewriteProject(const Expr& expr) {
    const Expr child = expr.left();
    if (child.kind() == Expr::Kind::kProject) {
      // π-absorb: the outer list is necessarily a subset of the inner one
      // in well-typed expressions.
      return Expr::Project(expr.attributes(), child.left());
    }
    // π over the full scheme is the identity.
    auto type = Analyze(child, catalog_);
    if (type.ok() && expr.attributes() == type->schema.Names()) {
      return child;
    }
    return std::nullopt;
  }

  const Catalog& catalog_;
  const AbsState* facts_;
  /// Relation-free expressions never touch the database; a shared empty
  /// one satisfies EvalExpr's signature for constant folding.
  Database empty_db_;
  int applications_ = 0;
};

Expr RunToFixpoint(Rewriter& rewriter, const Expr& expr, RewriteStats* stats) {
  Expr current = expr;
  int passes = 0;
  for (; passes < 8; ++passes) {
    Expr next = rewriter.Rewrite(current);
    if (next == current) break;
    current = std::move(next);
  }
  if (stats != nullptr) {
    stats->passes += passes;
    stats->applications += rewriter.applications();
  }
  return current;
}

}  // namespace

lang::Expr Optimize(const lang::Expr& expr, const lang::Catalog& catalog,
                    RewriteStats* stats) {
  Rewriter rewriter(catalog);
  return RunToFixpoint(rewriter, expr, stats);
}

lang::Expr OptimizeWithFacts(const lang::Expr& expr,
                             const lang::Catalog& catalog,
                             const lang::AbsState& facts,
                             RewriteStats* stats) {
  Rewriter rewriter(catalog, &facts);
  return RunToFixpoint(rewriter, expr, stats);
}

lang::Program OptimizeProgram(const lang::Program& program,
                              lang::Catalog catalog, lang::AbsState initial,
                              RewriteStats* stats) {
  // Mirror CheckProgram's error mask so the interpreter treats rejected
  // statements as committing nothing.
  std::vector<bool> errors(program.size(), false);
  {
    Catalog scratch = catalog;
    for (size_t i = 0; i < program.size(); ++i) {
      errors[i] = !AnalyzeStmt(program[i], scratch).ok();
      (void)scratch.Apply(program[i]);
    }
  }
  const std::vector<AbsState> states =
      lang::Interpret(program, std::move(initial), &errors);

  lang::Program out = program;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!errors[i]) {
      if (auto* modify = std::get_if<lang::ModifyStateStmt>(&out[i])) {
        modify->expr = OptimizeWithFacts(modify->expr, catalog, states[i],
                                         stats);
      } else if (auto* show = std::get_if<lang::ShowStmt>(&out[i])) {
        show->expr = OptimizeWithFacts(show->expr, catalog, states[i], stats);
      }
    }
    (void)catalog.Apply(out[i]);
  }
  return out;
}

}  // namespace ttra::optimizer
