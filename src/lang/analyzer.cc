#include "lang/analyzer.h"

#include <set>
#include <vector>

#include "lang/absint.h"

namespace ttra::lang {

std::string_view StateKindName(StateKind kind) {
  return kind == StateKind::kSnapshot ? "snapshot" : "historical";
}

Catalog::Catalog(const Database& db) {
  // Both maps are in name order, so each entry goes in at the end.
  for (const auto& [name, relation] : db.relations()) {
    entries_.emplace_hint(entries_.end(), name,
                          Entry{relation->type(), relation->schema()});
  }
}

const Catalog::Entry* Catalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

Status Catalog::Apply(const Stmt& stmt) {
  return std::visit(
      [this](const auto& s) -> Status {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, DefineRelationStmt>) {
          if (entries_.contains(s.name)) {
            return AlreadyDefinedError("relation already defined: " + s.name);
          }
          entries_.emplace(s.name, Entry{s.type, s.schema});
          return Status::Ok();
        } else if constexpr (std::is_same_v<T, DeleteRelationStmt>) {
          if (entries_.erase(s.name) == 0) {
            return UnknownIdentifierError("delete of undefined relation: " +
                                          s.name);
          }
          return Status::Ok();
        } else if constexpr (std::is_same_v<T, ModifySchemaStmt>) {
          auto it = entries_.find(s.name);
          if (it == entries_.end()) {
            return UnknownIdentifierError(
                "modify_schema of undefined relation: " + s.name);
          }
          it->second.schema = s.schema;
          return Status::Ok();
        } else {
          return Status::Ok();
        }
      },
      stmt);
}

namespace {

/// True for kinds with at least one child expression (left()).
bool HasChild(Expr::Kind kind) {
  return kind != Expr::Kind::kConst && kind != Expr::Kind::kRollback;
}

Result<ExprType> CombineBinary(const Expr& expr, const ExprType& lhs,
                               const ExprType& rhs) {
  if (lhs.kind != rhs.kind) {
    return TypeMismatchError(
        std::string(BinaryOpName(expr.op())) + " mixes a " +
        std::string(StateKindName(lhs.kind)) + " operand with a " +
        std::string(StateKindName(rhs.kind)) + " operand");
  }
  switch (expr.op()) {
    case BinaryOp::kUnion:
    case BinaryOp::kMinus:
    case BinaryOp::kIntersect:
      if (lhs.schema != rhs.schema) {
        return SchemaMismatchError(
            std::string(BinaryOpName(expr.op())) +
            " requires identical schemas; got " + lhs.schema.ToString() +
            " vs " + rhs.schema.ToString());
      }
      return lhs;
    case BinaryOp::kTimes: {
      TTRA_ASSIGN_OR_RETURN(Schema schema, lhs.schema.Concat(rhs.schema));
      return ExprType{lhs.kind, std::move(schema)};
    }
    case BinaryOp::kJoin: {
      // Natural-join result: lhs attributes then rhs-only attributes;
      // shared names must agree on type.
      std::vector<Attribute> attrs(lhs.schema.attributes().begin(),
                                   lhs.schema.attributes().end());
      for (const Attribute& attr : rhs.schema.attributes()) {
        auto i = lhs.schema.IndexOf(attr.name);
        if (i.has_value()) {
          if (lhs.schema.attribute(*i).type != attr.type) {
            return SchemaMismatchError("natural join attribute '" +
                                       attr.name + "' has mismatched types");
          }
        } else {
          attrs.push_back(attr);
        }
      }
      TTRA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
      return ExprType{lhs.kind, std::move(schema)};
    }
  }
  return InternalError("unhandled binary operator");
}

Result<ExprType> ExtendType(const Expr& expr, const ExprType& child) {
  std::vector<Attribute> attrs(child.schema.attributes().begin(),
                               child.schema.attributes().end());
  for (const auto& [name, scalar] : expr.definitions()) {
    TTRA_ASSIGN_OR_RETURN(ValueType type, scalar.TypeIn(child.schema));
    auto i = child.schema.IndexOf(name);
    if (i.has_value()) {
      attrs[*i].type = type;  // in-place redefinition (replace semantics)
    } else {
      attrs.push_back(Attribute{name, type});
    }
  }
  TTRA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return ExprType{child.kind, std::move(schema)};
}

/// Type of one node given its (already analyzed) child types. Leaves ignore
/// `lhs`/`rhs`; binary nodes use both; every other kind uses `lhs` only.
/// Shared by the fail-fast and the collecting traversals so both report
/// exactly the same node-level errors.
Result<ExprType> TypeOfNode(const Expr& expr, const Catalog& catalog,
                            const std::optional<ExprType>& lhs,
                            const std::optional<ExprType>& rhs) {
  switch (expr.kind()) {
    case Expr::Kind::kConst:
      if (std::holds_alternative<HistoricalState>(expr.constant())) {
        return ExprType{StateKind::kHistorical,
                        std::get<HistoricalState>(expr.constant()).schema()};
      }
      return ExprType{StateKind::kSnapshot,
                      std::get<SnapshotState>(expr.constant()).schema()};
    case Expr::Kind::kBinary:
      return CombineBinary(expr, *lhs, *rhs);
    case Expr::Kind::kProject: {
      TTRA_ASSIGN_OR_RETURN(Schema schema,
                            lhs->schema.Project(expr.attributes()));
      return ExprType{lhs->kind, std::move(schema)};
    }
    case Expr::Kind::kSelect:
      TTRA_RETURN_IF_ERROR(expr.predicate().Validate(lhs->schema));
      return *lhs;
    case Expr::Kind::kRename: {
      TTRA_ASSIGN_OR_RETURN(
          Schema schema,
          lhs->schema.Rename(expr.rename_from(), expr.rename_to()));
      return ExprType{lhs->kind, std::move(schema)};
    }
    case Expr::Kind::kExtend:
      return ExtendType(expr, *lhs);
    case Expr::Kind::kDelta:
      if (lhs->kind != StateKind::kHistorical) {
        return TypeMismatchError(
            "delta applies to historical states only; operand is snapshot");
      }
      return *lhs;
    case Expr::Kind::kSummarize: {
      TTRA_ASSIGN_OR_RETURN(
          Schema schema,
          AggregateSchema(lhs->schema, expr.group_attrs(),
                          expr.aggregates()));
      return ExprType{lhs->kind, std::move(schema)};
    }
    case Expr::Kind::kRollback: {
      const Catalog::Entry* entry = catalog.Find(expr.relation_name());
      if (entry == nullptr) {
        return UnknownIdentifierError("rollback of undefined relation: " +
                                      expr.relation_name());
      }
      if (!expr.rollback_historical()) {
        // ρ: snapshot states. ∞ allows snapshot or rollback relations;
        // a finite transaction number requires a rollback relation.
        if (!HoldsSnapshotStates(entry->type)) {
          return InvalidRollbackError("rho applied to " +
                                      std::string(RelationTypeName(
                                          entry->type)) +
                                      " relation '" + expr.relation_name() +
                                      "' (use hrho)");
        }
        if (expr.rollback_txn().has_value() &&
            entry->type != RelationType::kRollback) {
          return InvalidRollbackError(
              "rho with a transaction number requires a rollback relation");
        }
        return ExprType{StateKind::kSnapshot, entry->schema};
      }
      // ρ̂: historical states.
      if (HoldsSnapshotStates(entry->type)) {
        return InvalidRollbackError(
            "hrho applied to " +
            std::string(RelationTypeName(entry->type)) + " relation '" +
            expr.relation_name() + "' (use rho)");
      }
      if (expr.rollback_txn().has_value() &&
          entry->type != RelationType::kTemporal) {
        return InvalidRollbackError(
            "hrho with a transaction number requires a temporal relation");
      }
      return ExprType{StateKind::kHistorical, entry->schema};
    }
  }
  return InternalError("unhandled expression kind");
}

}  // namespace

Result<ExprType> Analyze(const Expr& expr, const Catalog& catalog) {
  std::optional<ExprType> lhs;
  std::optional<ExprType> rhs;
  if (HasChild(expr.kind())) {
    TTRA_ASSIGN_OR_RETURN(ExprType left, Analyze(expr.left(), catalog));
    lhs = std::move(left);
    if (expr.kind() == Expr::Kind::kBinary) {
      TTRA_ASSIGN_OR_RETURN(ExprType right, Analyze(expr.right(), catalog));
      rhs = std::move(right);
    }
  }
  return TypeOfNode(expr, catalog, lhs, rhs);
}

std::optional<ExprType> CheckExpr(const Expr& expr, const Catalog& catalog,
                                  DiagnosticSink& sink) {
  std::optional<ExprType> lhs;
  std::optional<ExprType> rhs;
  bool children_ok = true;
  if (HasChild(expr.kind())) {
    lhs = CheckExpr(expr.left(), catalog, sink);
    if (!lhs.has_value()) children_ok = false;
    if (expr.kind() == Expr::Kind::kBinary) {
      rhs = CheckExpr(expr.right(), catalog, sink);
      if (!rhs.has_value()) children_ok = false;
    }
  }
  // Errors in the children are already in the sink; a node whose operands
  // failed cannot be typed, and re-reporting would duplicate diagnostics.
  if (!children_ok) return std::nullopt;
  auto type = TypeOfNode(expr, catalog, lhs, rhs);
  if (!type.ok()) {
    sink.AddError(type.status(), expr.span());
    return std::nullopt;
  }
  return std::move(type).value();
}

namespace {

StateKind RequiredKind(RelationType type) {
  return HoldsSnapshotStates(type) ? StateKind::kSnapshot
                                   : StateKind::kHistorical;
}

/// The state kind an expression is forced to by its syntax alone. Every
/// operator yields its (left) operand's kind except delta, which always
/// yields historical; leaves are constants and rollback operators, whose
/// kinds are manifest. Defined for every tree, even ill-typed ones.
StateKind StructuralKind(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kConst:
      return std::holds_alternative<HistoricalState>(expr.constant())
                 ? StateKind::kHistorical
                 : StateKind::kSnapshot;
    case Expr::Kind::kRollback:
      return expr.rollback_historical() ? StateKind::kHistorical
                                        : StateKind::kSnapshot;
    case Expr::Kind::kDelta:
      return StateKind::kHistorical;
    default:
      return StructuralKind(expr.left());
  }
}

SourceSpan SpanOrStmt(const Expr& expr, const Stmt& stmt) {
  return expr.span().valid() ? expr.span() : StmtSpan(stmt);
}

}  // namespace

void CheckStmt(const Stmt& stmt, const Catalog& catalog,
               DiagnosticSink& sink) {
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, ModifyStateStmt>) {
          const Catalog::Entry* entry = catalog.Find(s.name);
          if (entry == nullptr) {
            sink.AddError(UnknownIdentifierError(
                              "modify_state of undefined relation: " + s.name),
                          s.span);
          }
          auto type = CheckExpr(s.expr, catalog, sink);
          if (entry == nullptr) return;
          const StateKind required = RequiredKind(entry->type);
          if (type.has_value()) {
            if (type->kind != required) {
              sink.AddError(
                  TypeMismatchError(
                      "modify_state of " +
                      std::string(RelationTypeName(entry->type)) +
                      " relation '" + s.name + "' requires a " +
                      std::string(StateKindName(required)) +
                      " expression, got " +
                      std::string(StateKindName(type->kind))),
                  SpanOrStmt(s.expr, stmt));
            } else if (type->schema != entry->schema) {
              sink.AddError(
                  SchemaMismatchError("modify_state expression schema " +
                                      type->schema.ToString() +
                                      " does not match relation schema " +
                                      entry->schema.ToString()),
                  SpanOrStmt(s.expr, stmt));
            }
          } else if (StructuralKind(s.expr) != required) {
            // The expression failed to type-check, but its kind is already
            // decided by its syntax — fixing the reported errors cannot make
            // this statement succeed.
            sink.AddWarning(
                kWarnKindNeverMatches, SpanOrStmt(s.expr, stmt),
                "expression kind can never match: '" + s.name + "' is a " +
                    std::string(RelationTypeName(entry->type)) +
                    " relation holding " +
                    std::string(StateKindName(required)) +
                    " states, but this expression is structurally " +
                    std::string(StateKindName(StructuralKind(s.expr))));
          }
        } else if constexpr (std::is_same_v<T, ShowStmt>) {
          CheckExpr(s.expr, catalog, sink);
        } else if constexpr (std::is_same_v<T, DefineRelationStmt>) {
          if (catalog.Find(s.name) != nullptr) {
            sink.AddError(
                AlreadyDefinedError("relation already defined: " + s.name),
                s.span);
          }
        } else if constexpr (std::is_same_v<T, DeleteRelationStmt>) {
          if (catalog.Find(s.name) == nullptr) {
            sink.AddError(UnknownIdentifierError(
                              "delete_relation of undefined relation: " +
                              s.name),
                          s.span);
          }
        } else {
          static_assert(std::is_same_v<T, ModifySchemaStmt>);
          if (catalog.Find(s.name) == nullptr) {
            sink.AddError(UnknownIdentifierError(
                              "modify_schema of undefined relation: " +
                              s.name),
                          s.span);
          }
        }
      },
      stmt);
}

namespace {

/// Relation names a statement reads or writes (delete_relation's target is
/// deliberately excluded: deleting a relation is not "using" it for the
/// purposes of TTRA-W004).
std::set<std::string> ReferencedNames(const Stmt& stmt) {
  std::set<std::string> names;
  if (const Expr* expr = StmtExpr(stmt)) names = expr->RelationNames();
  if (const auto* modify = std::get_if<ModifyStateStmt>(&stmt)) {
    names.insert(modify->name);
  }
  if (const auto* schema = std::get_if<ModifySchemaStmt>(&stmt)) {
    names.insert(schema->name);
  }
  return names;
}

/// TTRA-W003: warns on every ρ/ρ̂ with a literal transaction number greater
/// than `max_txn`, the largest transaction that can have committed by the
/// time the enclosing statement executes.
void WarnFutureRollbacks(const Expr& expr, TransactionNumber max_txn,
                         DiagnosticSink& sink) {
  if (expr.kind() == Expr::Kind::kRollback) {
    if (expr.rollback_txn().has_value() && *expr.rollback_txn() > max_txn) {
      sink.AddWarning(
          kWarnRollbackInFuture, expr.span(),
          "rollback to transaction " + std::to_string(*expr.rollback_txn()) +
              ", but at most " + std::to_string(max_txn) +
              " transactions can have committed when this statement runs");
    }
    return;
  }
  if (expr.kind() == Expr::Kind::kConst) return;
  WarnFutureRollbacks(expr.left(), max_txn, sink);
  if (expr.kind() == Expr::Kind::kBinary) {
    WarnFutureRollbacks(expr.right(), max_txn, sink);
  }
}

}  // namespace

void CheckProgram(const Program& program, Catalog catalog,
                  DiagnosticSink& sink, const AnalyzeOptions& options) {
  // The abstract interpreter (below) needs the catalog as it was before
  // any statement's effect was threaded through.
  const Catalog initial_catalog = catalog;
  std::vector<bool> stmt_has_error(program.size(), false);

  // Index of each relation's first define_relation (for TTRA-W001) and the
  // names each statement references (for TTRA-W001/W004).
  std::map<std::string, size_t> first_define;
  std::vector<std::set<std::string>> referenced(program.size());
  for (size_t i = 0; i < program.size(); ++i) {
    if (const auto* define = std::get_if<DefineRelationStmt>(&program[i])) {
      first_define.try_emplace(define->name, i);
    }
    referenced[i] = ReferencedNames(program[i]);
  }

  std::optional<size_t> first_failed;
  size_t commands_before = 0;  // non-show statements preceding this one
  for (size_t i = 0; i < program.size(); ++i) {
    const Stmt& stmt = program[i];
    if (first_failed.has_value() && *first_failed + 1 == i) {
      sink.AddWarning(
          kWarnUnreachableStmt, StmtSpan(stmt),
          "unreachable: strict execution stops at the first failing command "
          "(statement " +
              std::to_string(*first_failed + 1) + ")");
    }
    const size_t errors_before = sink.error_count();
    CheckStmt(stmt, catalog, sink);
    for (const std::string& name : referenced[i]) {
      if (catalog.Find(name) != nullptr) continue;
      auto it = first_define.find(name);
      if (it != first_define.end() && it->second > i) {
        sink.AddWarning(kWarnUseBeforeDefine, StmtSpan(stmt),
                        "relation '" + name +
                            "' is used here but only defined by statement " +
                            std::to_string(it->second + 1));
      }
    }
    if (options.initial_txn.has_value()) {
      if (const Expr* expr = StmtExpr(stmt)) {
        WarnFutureRollbacks(*expr, *options.initial_txn + commands_before,
                            sink);
      }
    }
    if (sink.error_count() > errors_before) {
      stmt_has_error[i] = true;
      if (!first_failed.has_value()) first_failed = i;
    }
    // The statement's effect still applies so later statements are checked
    // against the right catalog; failure conditions were reported above.
    (void)catalog.Apply(stmt);
    if (!std::holds_alternative<ShowStmt>(stmt)) ++commands_before;
  }

  // TTRA-W004: a defined relation no later statement reads or writes.
  for (size_t i = 0; i < program.size(); ++i) {
    const auto* define = std::get_if<DefineRelationStmt>(&program[i]);
    if (define == nullptr || first_define.at(define->name) != i) continue;
    bool used = false;
    for (size_t j = i + 1; j < program.size() && !used; ++j) {
      used = referenced[j].contains(define->name);
    }
    if (!used) {
      sink.AddWarning(kWarnUnusedRelation, StmtSpan(program[i]),
                      "relation '" + define->name +
                          "' is defined but never used");
    }
  }

  // Whole-program pass: abstract interpretation of the command semantics
  // derives TTRA-W006..W009 (see absint.h).
  const std::vector<AbsState> abs_states = Interpret(
      program, InitialAbsState(initial_catalog, options.initial_txn),
      &stmt_has_error);
  CheckProgramAbsint(program, abs_states, stmt_has_error, sink);
}

Status AnalyzeStmt(const Stmt& stmt, const Catalog& catalog) {
  DiagnosticSink sink;
  CheckStmt(stmt, catalog, sink);
  return sink.FirstError();
}

Status AnalyzeProgram(const Program& program, Catalog catalog) {
  DiagnosticSink sink;
  CheckProgram(program, std::move(catalog), sink);
  return sink.FirstError();
}

}  // namespace ttra::lang
