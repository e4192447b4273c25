#include "lang/absint.h"

#include <algorithm>
#include <utility>

namespace ttra::lang {

TxnInterval TxnInterval::Join(const TxnInterval& other) const {
  TxnInterval out;
  out.lo = std::min(lo, other.lo);
  if (hi.has_value() && other.hi.has_value()) {
    out.hi = std::max(*hi, *other.hi);
  } else {
    out.hi = std::nullopt;
  }
  return out;
}

TxnInterval TxnInterval::Plus(TransactionNumber a, TransactionNumber b) const {
  TxnInterval out;
  out.lo = lo + a;
  out.hi = hi.has_value() ? std::optional<TransactionNumber>(*hi + b)
                          : std::nullopt;
  return out;
}

std::string TxnInterval::ToString() const {
  if (exact()) return std::to_string(lo);
  if (hi.has_value()) {
    return "[" + std::to_string(lo) + "," + std::to_string(*hi) + "]";
  }
  return "[" + std::to_string(lo) + ",inf)";
}

const Schema* AbsRelation::ProvableSchemaAt(TransactionNumber txn) const {
  // An empty history means the relation pre-existed the program and its
  // scheme versions are unknown — nothing is provable.
  if (schema_history.empty()) return nullptr;
  // k = largest index whose installation provably precedes-or-equals txn.
  // Index 0 also applies when txn precedes every installation, because
  // Relation::SchemaAt clamps to the define-time scheme.
  size_t k = 0;
  for (size_t i = 1; i < schema_history.size(); ++i) {
    if (schema_history[i].second.ProvablyLe(txn)) k = i;
  }
  // Version k is the one FINDSTATE observes only if every later version
  // provably post-dates txn; otherwise the applicable version is ambiguous.
  for (size_t i = k + 1; i < schema_history.size(); ++i) {
    if (!schema_history[i].second.ProvablyGt(txn)) return nullptr;
  }
  return &schema_history[k].first;
}

size_t AbsRelation::StateCount() const {
  return (recorded != nullptr ? recorded->history_length() : 0) +
         state_txns.size();
}

TxnInterval AbsRelation::StateTxnAt(size_t i) const {
  const size_t seeded = recorded != nullptr ? recorded->history_length() : 0;
  if (i < seeded) return TxnInterval::Exact(recorded->TxnAt(i));
  return state_txns[i - seeded];
}

std::optional<TxnInterval> AbsRelation::LastStateTxn() const {
  if (!state_txns.empty()) return state_txns.back();
  if (recorded != nullptr && recorded->history_length() > 0) {
    return TxnInterval::Exact(recorded->TxnAt(recorded->history_length() - 1));
  }
  return std::nullopt;
}

bool AbsRelation::ProvablyEmptyAt(TransactionNumber txn) const {
  if (!states_complete) return false;
  // Recorded transactions are exact and increasing: the first one
  // decides whether any is at or before txn.
  if (recorded != nullptr && recorded->history_length() > 0 &&
      recorded->TxnAt(0) <= txn) {
    return false;
  }
  for (const TxnInterval& t : state_txns) {
    if (!t.ProvablyGt(txn)) return false;
  }
  return true;
}

const Schema* AbsRelation::ProvableObservedSchemaAt(
    std::optional<TransactionNumber> txn) const {
  if (!states_complete) return nullptr;
  // A relation whose scheme never changed observes that scheme no matter
  // which state FINDSTATE lands on (including the empty state).
  if (schema_history.size() == 1) return &schema_history.front().first;
  if (schema_history.empty()) return nullptr;
  // With scheme evolution in play, pin down the exact state observed: the
  // last state at or before the probe. The recorded states are exact and
  // increasing, so FINDSTATE's binary search finds their candidate.
  std::optional<TransactionNumber> observed;
  if (recorded != nullptr) {
    const size_t count = txn.has_value() ? recorded->CountAtOrBefore(*txn)
                                         : recorded->history_length();
    if (count > 0) observed = recorded->TxnAt(count - 1);
  }
  for (const TxnInterval& t : state_txns) {
    if (!t.exact()) return nullptr;
    if (!txn.has_value() || t.lo <= *txn) observed = t.lo;
  }
  if (!observed.has_value()) {
    // The probe observes the empty state, whose scheme is the one current
    // at the probe transaction (Relation::SchemaAt semantics).
    if (!txn.has_value()) return &schema;
    return ProvableSchemaAt(*txn);
  }
  return ProvableSchemaAt(*observed);
}

const AbsRelation* AbsState::Find(const std::string& name) const {
  auto it = relations.find(name);
  return it == relations.end() ? nullptr : &it->second;
}

AbsState InitialAbsState(const Catalog& catalog,
                         std::optional<TransactionNumber> initial_txn) {
  AbsState state;
  state.counter = initial_txn.has_value() ? TxnInterval::Exact(*initial_txn)
                                          : TxnInterval::AtLeast(0);
  // Pre-existing relations were created at some unknown transaction no
  // later than the current counter; their state and scheme histories are
  // invisible, so only the current type/scheme are recorded as facts.
  const TxnInterval unknown_past =
      initial_txn.has_value() ? TxnInterval::Range(0, *initial_txn)
                              : TxnInterval::AtLeast(0);
  for (const auto& [name, entry] : catalog.entries()) {
    AbsRelation r;
    r.type = entry.type;
    r.schema = entry.schema;
    r.defined_at = unknown_past;
    r.states_complete = false;
    state.relations.emplace(name, std::move(r));
  }
  return state;
}

AbsState AbsStateFromDatabase(const Database& db) {
  AbsState state;
  state.counter = TxnInterval::Exact(db.transaction_number());
  for (const std::string& name : db.RelationNames()) {
    std::shared_ptr<const Relation> rel = db.FindShared(name);
    AbsRelation r;
    r.type = rel->type();
    r.schema = rel->schema();
    for (const auto& [schema, txn] : rel->schema_history()) {
      r.schema_history.emplace_back(schema, TxnInterval::Exact(txn));
    }
    r.defined_at = r.schema_history.empty() ? TxnInterval::Exact(0)
                                            : r.schema_history.front().second;
    r.recorded = std::move(rel);
    r.states_complete = true;
    state.relations.emplace(name, std::move(r));
  }
  return state;
}

namespace {

/// Transfer function of one statement over the abstract state. A rejected
/// statement commits nothing (the database, including the transaction
/// counter, is unchanged on failure), so it has no abstract effect either.
void ApplyAbstract(const Stmt& stmt, bool has_error, AbsState& state) {
  if (std::holds_alternative<ShowStmt>(stmt)) return;  // queries commit nothing
  if (has_error) return;
  const TxnInterval commit = state.counter.Plus(1, 1);
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, DefineRelationStmt>) {
          if (state.relations.contains(s.name)) return;
          AbsRelation r;
          r.type = s.type;
          r.schema = s.schema;
          r.defined_at = commit;
          r.schema_history.emplace_back(s.schema, commit);
          r.states_complete = true;
          state.relations.emplace(s.name, std::move(r));
        } else if constexpr (std::is_same_v<T, DeleteRelationStmt>) {
          state.relations.erase(s.name);
        } else if constexpr (std::is_same_v<T, ModifySchemaStmt>) {
          auto it = state.relations.find(s.name);
          if (it == state.relations.end()) return;
          it->second.schema = s.schema;
          it->second.schema_history.emplace_back(s.schema, commit);
        } else if constexpr (std::is_same_v<T, ModifyStateStmt>) {
          auto it = state.relations.find(s.name);
          if (it == state.relations.end()) return;
          // modify_state dispatch (§3.5): append for rollback/temporal,
          // replace the single state for snapshot/historical.
          if (!RetainsHistory(it->second.type)) {
            it->second.recorded.reset();
            it->second.state_txns.clear();
          }
          it->second.state_txns.push_back(commit);
        }
      },
      stmt);
  // Every non-rejected command commits exactly one transaction.
  state.counter = commit;
}

}  // namespace

std::vector<AbsState> Interpret(const Program& program, AbsState initial,
                                const std::vector<bool>* stmt_has_error) {
  std::vector<AbsState> states;
  states.reserve(program.size() + 1);
  AbsState current = std::move(initial);
  for (size_t i = 0; i < program.size(); ++i) {
    states.push_back(current);
    const bool has_error = stmt_has_error != nullptr &&
                           i < stmt_has_error->size() && (*stmt_has_error)[i];
    ApplyAbstract(program[i], has_error, current);
  }
  states.push_back(std::move(current));
  return states;
}

namespace {

template <typename Fn>
void ForEachRollback(const Expr& expr, Fn&& fn) {
  if (expr.kind() == Expr::Kind::kRollback) {
    fn(expr);
    return;
  }
  if (expr.kind() == Expr::Kind::kConst) return;
  ForEachRollback(expr.left(), fn);
  if (expr.kind() == Expr::Kind::kBinary) ForEachRollback(expr.right(), fn);
}

SourceSpan ExprOrStmtSpan(const Expr& expr, const Stmt& stmt) {
  return expr.span().valid() ? expr.span() : StmtSpan(stmt);
}

}  // namespace

void CheckProgramAbsint(const Program& program,
                        const std::vector<AbsState>& states,
                        const std::vector<bool>& stmt_has_error,
                        DiagnosticSink& sink) {
  struct PendingWrite {
    size_t stmt_index;  // 0-based
    SourceSpan span;
  };
  // Snapshot/historical writes not yet observed by any expression.
  std::map<std::string, PendingWrite> pending;

  for (size_t i = 0; i < program.size() && i < states.size(); ++i) {
    const Stmt& stmt = program[i];
    const AbsState& pre = states[i];
    const bool clean = i >= stmt_has_error.size() || !stmt_has_error[i];

    // The statement's expression observes the relations it references,
    // whether or not the statement itself goes on to commit.
    if (const Expr* expr = StmtExpr(stmt)) {
      for (const std::string& name : expr->RelationNames()) {
        pending.erase(name);
      }
    }

    if (clean) {
      if (const Expr* expr = StmtExpr(stmt)) {
        // TTRA-W006/W007: finite rollbacks judged against the abstract
        // state sequence and scheme history.
        ForEachRollback(*expr, [&](const Expr& rb) {
          if (!rb.rollback_txn().has_value()) return;
          const TransactionNumber txn = *rb.rollback_txn();
          const AbsRelation* rel = pre.Find(rb.relation_name());
          if (rel == nullptr) return;
          if (rel->ProvablyEmptyAt(txn)) {
            sink.AddWarning(
                kWarnRollbackProvablyEmpty, ExprOrStmtSpan(rb, stmt),
                "rollback to transaction " + std::to_string(txn) +
                    " provably observes the empty state: relation '" +
                    rb.relation_name() +
                    "' records no state at or before that transaction");
            return;
          }
          if (const Schema* at = rel->ProvableSchemaAt(txn)) {
            if (*at != rel->schema) {
              sink.AddWarning(
                  kWarnRollbackSchemaChanged, ExprOrStmtSpan(rb, stmt),
                  "rollback to transaction " + std::to_string(txn) +
                      " observes scheme " + at->ToString() +
                      ", but surrounding operators are typed against the "
                      "current scheme " +
                      rel->schema.ToString());
            }
          }
        });

        // TTRA-W009: a non-constant expression over no relations is a
        // compile-time constant.
        if (expr->kind() != Expr::Kind::kConst && expr->RelationNames().empty()) {
          sink.AddWarning(kWarnConstantFoldable, ExprOrStmtSpan(*expr, stmt),
                          "expression references no relation; its value is a "
                          "compile-time constant");
        }
      }
    }

    // TTRA-W008: dead modify_state of a relation that does not retain
    // history. A rejected statement commits nothing, so it neither starts
    // nor kills a pending write.
    if (const auto* modify = std::get_if<ModifyStateStmt>(&stmt)) {
      if (clean) {
        auto it = pending.find(modify->name);
        if (it != pending.end()) {
          sink.AddWarning(
              kWarnDeadModifyState, it->second.span,
              "state written to '" + modify->name +
                  "' here is overwritten by statement " + std::to_string(i + 1) +
                  " before any expression reads it");
          pending.erase(it);
        }
        const AbsRelation* rel = pre.Find(modify->name);
        if (rel != nullptr && !RetainsHistory(rel->type)) {
          pending[modify->name] = PendingWrite{i, StmtSpan(stmt)};
        }
      }
    } else if (const auto* del = std::get_if<DeleteRelationStmt>(&stmt)) {
      if (clean) {
        auto it = pending.find(del->name);
        if (it != pending.end()) {
          sink.AddWarning(
              kWarnDeadModifyState, it->second.span,
              "state written to '" + del->name +
                  "' here is deleted by statement " + std::to_string(i + 1) +
                  " before any expression reads it");
        }
      }
      pending.erase(del->name);
    } else if (const auto* define = std::get_if<DefineRelationStmt>(&stmt)) {
      pending.erase(define->name);
    }
    // modify_schema keeps the old state observable: neither read nor kill.
  }
}

}  // namespace ttra::lang
