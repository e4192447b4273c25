#include "lang/evaluator.h"

#include "historical/haggregate.h"
#include "historical/hoperators.h"
#include "lang/parser.h"
#include "snapshot/aggregate.h"
#include "snapshot/operators.h"

namespace ttra::lang {

namespace {

Result<StateValue> EvalExprImpl(const Expr& expr, const Database& db);

Result<StateValue> EvalBinary(const Expr& expr, const Database& db) {
  TTRA_ASSIGN_OR_RETURN(StateValue lhs, EvalExpr(expr.left(), db));
  TTRA_ASSIGN_OR_RETURN(StateValue rhs, EvalExpr(expr.right(), db));
  const bool lhs_hist = std::holds_alternative<HistoricalState>(lhs);
  const bool rhs_hist = std::holds_alternative<HistoricalState>(rhs);
  if (lhs_hist != rhs_hist) {
    return TypeMismatchError(
        std::string(BinaryOpName(expr.op())) +
        " mixes snapshot and historical operands");
  }
  if (!lhs_hist) {
    const SnapshotState& a = std::get<SnapshotState>(lhs);
    const SnapshotState& b = std::get<SnapshotState>(rhs);
    Result<SnapshotState> result = [&]() {
      switch (expr.op()) {
        case BinaryOp::kUnion:
          return snapshot_ops::Union(a, b);
        case BinaryOp::kMinus:
          return snapshot_ops::Difference(a, b);
        case BinaryOp::kTimes:
          return snapshot_ops::Product(a, b);
        case BinaryOp::kIntersect:
          return snapshot_ops::Intersect(a, b);
        case BinaryOp::kJoin:
          return snapshot_ops::NaturalJoin(a, b);
      }
      return Result<SnapshotState>(InternalError("unhandled op"));
    }();
    if (!result.ok()) return result.status();
    return StateValue(std::move(result).value());
  }
  const HistoricalState& a = std::get<HistoricalState>(lhs);
  const HistoricalState& b = std::get<HistoricalState>(rhs);
  Result<HistoricalState> result = [&]() {
    switch (expr.op()) {
      case BinaryOp::kUnion:
        return historical_ops::Union(a, b);
      case BinaryOp::kMinus:
        return historical_ops::Difference(a, b);
      case BinaryOp::kTimes:
        return historical_ops::Product(a, b);
      case BinaryOp::kIntersect:
        return historical_ops::Intersect(a, b);
      case BinaryOp::kJoin:
        return historical_ops::NaturalJoin(a, b);
    }
    return Result<HistoricalState>(InternalError("unhandled op"));
  }();
  if (!result.ok()) return result.status();
  return StateValue(std::move(result).value());
}

/// Applies the extend definitions to one schema, returning the result
/// schema, each definition bound to the child schema, and, for each result
/// attribute, where its value comes from (original position or definition
/// index).
struct ExtendPlan {
  Schema schema;
  std::vector<BoundScalar> definitions;
  // For each output attribute: if >= 0, index into definitions; if < 0,
  // ~value is the index into the child tuple.
  std::vector<int> sources;
};

Result<ExtendPlan> PlanExtend(
    const Schema& child,
    const std::vector<std::pair<std::string, ScalarExpr>>& definitions) {
  std::vector<Attribute> attrs(child.attributes().begin(),
                               child.attributes().end());
  std::vector<int> sources(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) sources[i] = ~static_cast<int>(i);
  std::vector<BoundScalar> bound;
  bound.reserve(definitions.size());
  for (size_t d = 0; d < definitions.size(); ++d) {
    const auto& [name, scalar] = definitions[d];
    TTRA_ASSIGN_OR_RETURN(ValueType type, scalar.TypeIn(child));
    TTRA_ASSIGN_OR_RETURN(BoundScalar definition,
                          BoundScalar::Bind(scalar, child));
    bound.push_back(std::move(definition));
    auto i = child.IndexOf(name);
    if (i.has_value()) {
      attrs[*i].type = type;
      sources[*i] = static_cast<int>(d);
    } else {
      attrs.push_back(Attribute{name, type});
      sources.push_back(static_cast<int>(d));
    }
  }
  TTRA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return ExtendPlan{std::move(schema), std::move(bound), std::move(sources)};
}

Result<Tuple> ApplyExtend(const ExtendPlan& plan, const Tuple& tuple) {
  Tuple::Builder builder(plan.sources.size());
  for (int source : plan.sources) {
    if (source >= 0) {
      TTRA_ASSIGN_OR_RETURN(Value v, plan.definitions[source].Eval(tuple));
      builder.Add(std::move(v));
    } else {
      builder.Add(tuple.at(static_cast<size_t>(~source)));
    }
  }
  return std::move(builder).Build();
}

Result<HistoricalTuple> ApplyExtend(const ExtendPlan& plan,
                                    const HistoricalTuple& ht) {
  TTRA_ASSIGN_OR_RETURN(Tuple mapped, ApplyExtend(plan, ht.tuple));
  return HistoricalTuple{std::move(mapped), ht.valid};
}

// Extend over either state kind: a historical tuple keeps its element.
template <typename State>
Result<StateValue> ExtendState(
    const State& state,
    const std::vector<std::pair<std::string, ScalarExpr>>& definitions) {
  TTRA_ASSIGN_OR_RETURN(ExtendPlan plan,
                        PlanExtend(state.schema(), definitions));
  std::vector<typename std::decay_t<decltype(state.tuples())>::value_type>
      tuples;
  tuples.reserve(state.size());
  for (const auto& t : state.tuples()) {
    TTRA_ASSIGN_OR_RETURN(auto mapped, ApplyExtend(plan, t));
    tuples.push_back(std::move(mapped));
  }
  auto result = State::Make(plan.schema, std::move(tuples));
  if (!result.ok()) return result.status();
  return StateValue(std::move(result).value());
}

Result<StateValue> EvalExtend(const Expr& expr, const Database& db) {
  TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
  if (const auto* state = std::get_if<SnapshotState>(&child)) {
    return ExtendState(*state, expr.definitions());
  }
  return ExtendState(std::get<HistoricalState>(child), expr.definitions());
}

Result<StateValue> EvalExprImpl(const Expr& expr, const Database& db) {
  switch (expr.kind()) {
    case Expr::Kind::kConst:
      return expr.constant();
    case Expr::Kind::kBinary:
      return EvalBinary(expr, db);
    case Expr::Kind::kProject: {
      TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
      if (std::holds_alternative<SnapshotState>(child)) {
        auto result = snapshot_ops::Project(std::get<SnapshotState>(child),
                                            expr.attributes());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      auto result = historical_ops::Project(std::get<HistoricalState>(child),
                                            expr.attributes());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
    case Expr::Kind::kSelect: {
      // Fuse σ_F(E1 × E2) into a theta join: equality conjuncts of F
      // become hash-join keys instead of filtering the materialized
      // product. Semantics (including error cases) are unchanged.
      if (expr.left().kind() == Expr::Kind::kBinary &&
          expr.left().op() == BinaryOp::kTimes) {
        const Expr& times = expr.left();
        TTRA_ASSIGN_OR_RETURN(StateValue lhs, EvalExpr(times.left(), db));
        TTRA_ASSIGN_OR_RETURN(StateValue rhs, EvalExpr(times.right(), db));
        const bool lhs_hist = std::holds_alternative<HistoricalState>(lhs);
        const bool rhs_hist = std::holds_alternative<HistoricalState>(rhs);
        if (lhs_hist != rhs_hist) {
          return TypeMismatchError(
              std::string(BinaryOpName(times.op())) +
              " mixes snapshot and historical operands");
        }
        if (!lhs_hist) {
          auto result = snapshot_ops::ThetaJoin(std::get<SnapshotState>(lhs),
                                                std::get<SnapshotState>(rhs),
                                                expr.predicate());
          if (!result.ok()) return result.status();
          return StateValue(std::move(result).value());
        }
        auto result = historical_ops::ThetaJoin(
            std::get<HistoricalState>(lhs), std::get<HistoricalState>(rhs),
            expr.predicate());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
      if (std::holds_alternative<SnapshotState>(child)) {
        auto result = snapshot_ops::Select(std::get<SnapshotState>(child),
                                           expr.predicate());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      auto result = historical_ops::Select(std::get<HistoricalState>(child),
                                           expr.predicate());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
    case Expr::Kind::kRename: {
      TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
      if (std::holds_alternative<SnapshotState>(child)) {
        auto result = snapshot_ops::Rename(std::get<SnapshotState>(child),
                                           expr.rename_from(),
                                           expr.rename_to());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      auto result = historical_ops::Rename(std::get<HistoricalState>(child),
                                           expr.rename_from(),
                                           expr.rename_to());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
    case Expr::Kind::kExtend:
      return EvalExtend(expr, db);
    case Expr::Kind::kDelta: {
      TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
      if (!std::holds_alternative<HistoricalState>(child)) {
        return TypeMismatchError(
            "delta applies to historical states only; operand is snapshot");
      }
      auto result = historical_ops::Delta(std::get<HistoricalState>(child),
                                          expr.temporal_pred(),
                                          expr.temporal_projection());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
    case Expr::Kind::kSummarize: {
      TTRA_ASSIGN_OR_RETURN(StateValue child, EvalExpr(expr.left(), db));
      if (std::holds_alternative<SnapshotState>(child)) {
        auto result = Aggregate(std::get<SnapshotState>(child),
                                expr.group_attrs(), expr.aggregates());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      auto result = historical_ops::Aggregate(
          std::get<HistoricalState>(child), expr.group_attrs(),
          expr.aggregates());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
    case Expr::Kind::kRollback: {
      if (expr.rollback_historical()) {
        auto result =
            db.RollbackHistorical(expr.relation_name(), expr.rollback_txn());
        if (!result.ok()) return result.status();
        return StateValue(std::move(result).value());
      }
      auto result = db.Rollback(expr.relation_name(), expr.rollback_txn());
      if (!result.ok()) return result.status();
      return StateValue(std::move(result).value());
    }
  }
  return InternalError("unhandled expression kind");
}

}  // namespace

Result<StateValue> EvalExpr(const Expr& expr, const Database& db) {
  auto result = EvalExprImpl(expr, db);
  if (!result.ok()) {
    // Attach the failing construct's source position; nested evaluations
    // have already stamped theirs (innermost wins), and programmatically
    // built trees carry no span, leaving the message untouched.
    return WithSpan(result.status(), expr.span());
  }
  return result;
}

Status ExecStmt(const Stmt& stmt, Database& db,
                std::vector<StateValue>* outputs, const ExecOptions& options) {
  Status status = std::visit(
      [&db, outputs](const auto& s) -> Status {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, DefineRelationStmt>) {
          return db.DefineRelation(s.name, s.type, s.schema);
        } else if constexpr (std::is_same_v<T, ModifyStateStmt>) {
          auto value = EvalExpr(s.expr, db);
          if (!value.ok()) return value.status();
          if (std::holds_alternative<SnapshotState>(*value)) {
            return db.ModifyState(s.name, std::get<SnapshotState>(*value));
          }
          return db.ModifyState(s.name, std::get<HistoricalState>(*value));
        } else if constexpr (std::is_same_v<T, DeleteRelationStmt>) {
          return db.DeleteRelation(s.name);
        } else if constexpr (std::is_same_v<T, ModifySchemaStmt>) {
          return db.ModifySchema(s.name, s.schema);
        } else {
          static_assert(std::is_same_v<T, ShowStmt>);
          auto value = EvalExpr(s.expr, db);
          if (!value.ok()) return value.status();
          if (outputs != nullptr) outputs->push_back(std::move(*value));
          return Status::Ok();
        }
      },
      stmt);
  if (!status.ok()) status = WithSpan(status, StmtSpan(stmt));
  if (!status.ok() && !options.strict) {
    // Paper-faithful mode: a failing command is C⟦·⟧'s `else d` — the
    // database is unchanged and the sentence continues.
    return Status::Ok();
  }
  return status;
}

Status ExecProgram(const Program& program, Database& db,
                   std::vector<StateValue>* outputs,
                   const ExecOptions& options) {
  for (const Stmt& stmt : program) {
    TTRA_RETURN_IF_ERROR(ExecStmt(stmt, db, outputs, options));
  }
  return Status::Ok();
}

Status Run(std::string_view source, Database& db,
           std::vector<StateValue>* outputs, const ExecOptions& options) {
  auto program = ParseProgram(source);
  if (!program.ok()) return program.status();
  return ExecProgram(*program, db, outputs, options);
}

Result<Database> EvalSentence(std::string_view source,
                              DatabaseOptions db_options,
                              const ExecOptions& options) {
  Database db(db_options);
  TTRA_RETURN_IF_ERROR(Run(source, db, nullptr, options));
  return db;
}

}  // namespace ttra::lang
