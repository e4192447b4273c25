#include "quel/quel.h"

#include "lang/parser.h"
#include "lang/token.h"

namespace ttra::quel {

namespace {

using lang::Expr;
using lang::ScalarExpr;
using lang::Token;
using lang::TokenKind;

/// Quel's verbs are ordinary identifiers to the shared lexer (they are not
/// reserved words of the algebraic language), so the parser matches on
/// identifier text.
class QuelParser {
 public:
  explicit QuelParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::vector<QuelStmt>> ParseAll() {
    std::vector<QuelStmt> stmts;
    while (!AtEnd()) {
      TTRA_ASSIGN_OR_RETURN(QuelStmt stmt, ParseOne());
      stmts.push_back(std::move(stmt));
      while (CheckKind(TokenKind::kSemicolon)) Advance();
    }
    if (stmts.empty()) {
      return ParseError("expected at least one quel statement");
    }
    return stmts;
  }

  Result<QuelStmt> ParseSingle() {
    TTRA_ASSIGN_OR_RETURN(QuelStmt stmt, ParseOne());
    while (CheckKind(TokenKind::kSemicolon)) Advance();
    if (!AtEnd()) {
      return ErrorAt(Peek(), "expected end of statement");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_];
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  bool CheckKind(TokenKind kind) const { return Peek().kind == kind; }
  bool CheckWord(std::string_view word) const {
    return (Peek().kind == TokenKind::kIdentifier ||
            Peek().kind == TokenKind::kKeyword) &&
           Peek().text == word;
  }

  Status ErrorAt(const Token& token, std::string_view message) const {
    return ParseError(std::string(message) + ", found " + token.Describe() +
                      " at line " + std::to_string(token.line) + ", column " +
                      std::to_string(token.column));
  }

  Status ExpectWord(std::string_view word) {
    if (!CheckWord(word)) {
      return ErrorAt(Peek(), "expected '" + std::string(word) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status Expect(TokenKind kind) {
    if (!CheckKind(kind)) {
      return ErrorAt(Peek(),
                     "expected " + std::string(lang::TokenKindName(kind)));
    }
    Advance();
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (!CheckKind(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected " + std::string(what));
    }
    return Advance().text;
  }

  Result<QuelStmt> ParseOne() {
    if (CheckWord("append")) return ParseAppend();
    if (CheckWord("delete")) return ParseDelete();
    if (CheckWord("replace")) return ParseReplace();
    if (CheckWord("retrieve")) return ParseRetrieve();
    return ErrorAt(Peek(),
                   "expected 'append', 'delete', 'replace' or 'retrieve'");
  }

  Result<std::vector<std::pair<std::string, ScalarExpr>>> ParseAssignments() {
    std::vector<std::pair<std::string, ScalarExpr>> assignments;
    for (;;) {
      TTRA_ASSIGN_OR_RETURN(std::string name,
                            ExpectIdentifier("attribute name"));
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kEq));
      TTRA_ASSIGN_OR_RETURN(ScalarExpr value,
                            lang::ParseScalarTokens(tokens_, pos_));
      assignments.emplace_back(std::move(name), std::move(value));
      if (!CheckKind(TokenKind::kComma)) break;
      Advance();
    }
    return assignments;
  }

  Result<Predicate> ParseWhere() {
    if (!CheckWord("where")) return Predicate::True();
    Advance();
    return lang::ParsePredicateTokens(tokens_, pos_);
  }

  Result<QuelStmt> ParseAppend() {
    Advance();  // append
    TTRA_RETURN_IF_ERROR(ExpectWord("to"));
    AppendStmt stmt;
    TTRA_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(stmt.values, ParseAssignments());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return QuelStmt(std::move(stmt));
  }

  Result<QuelStmt> ParseDelete() {
    Advance();  // delete
    DeleteStmt stmt;
    TTRA_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("relation name"));
    TTRA_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return QuelStmt(std::move(stmt));
  }

  Result<QuelStmt> ParseReplace() {
    Advance();  // replace
    ReplaceStmt stmt;
    TTRA_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(ExpectWord("set"));
    TTRA_ASSIGN_OR_RETURN(stmt.assignments, ParseAssignments());
    TTRA_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return QuelStmt(std::move(stmt));
  }

  Result<QuelStmt> ParseRetrieve() {
    Advance();  // retrieve
    RetrieveStmt stmt;
    TTRA_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("relation name"));
    if (CheckKind(TokenKind::kLParen)) {
      Advance();
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(std::string name,
                              ExpectIdentifier("attribute name"));
        stmt.attributes.push_back(std::move(name));
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    }
    // Optional aggregate clause.
    if (CheckWord("compute")) {
      Advance();
      if (!stmt.attributes.empty()) {
        return ErrorAt(Peek(),
                       "retrieve cannot combine an attribute list with "
                       "'compute'");
      }
      for (;;) {
        AggregateDef def;
        TTRA_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("aggregate name"));
        TTRA_RETURN_IF_ERROR(Expect(TokenKind::kEq));
        bool parsed = false;
        for (std::string_view func : {"count", "sum", "min", "max", "avg"}) {
          if (CheckWord(func)) {
            Advance();
            def.func = *ParseAggFunc(func);
            parsed = true;
            break;
          }
        }
        if (!parsed) return ErrorAt(Peek(), "expected an aggregate function");
        if (def.func == AggFunc::kCount) {
          if (CheckKind(TokenKind::kLParen)) {
            Advance();
            TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          }
        } else {
          TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
          TTRA_ASSIGN_OR_RETURN(def.attr,
                                ExpectIdentifier("aggregated attribute"));
          TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        }
        stmt.compute.push_back(std::move(def));
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
      if (CheckWord("by")) {
        Advance();
        for (;;) {
          TTRA_ASSIGN_OR_RETURN(std::string name,
                                ExpectIdentifier("grouping attribute"));
          stmt.by.push_back(std::move(name));
          if (!CheckKind(TokenKind::kComma)) break;
          Advance();
        }
      }
    }
    // Optional temporal clauses, in either order.
    for (;;) {
      if (CheckWord("as") && !stmt.as_of.has_value()) {
        Advance();
        TTRA_RETURN_IF_ERROR(ExpectWord("of"));
        if (!CheckKind(TokenKind::kIntLiteral)) {
          return ErrorAt(Peek(), "expected a transaction number after 'as of'");
        }
        stmt.as_of = static_cast<TransactionNumber>(Advance().int_value);
        continue;
      }
      if (CheckWord("when") && !stmt.when_overlaps.has_value()) {
        Advance();
        TTRA_RETURN_IF_ERROR(ExpectWord("overlaps"));
        TTRA_ASSIGN_OR_RETURN(TemporalElement element, ParseElement());
        stmt.when_overlaps = std::move(element);
        continue;
      }
      break;
    }
    TTRA_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return QuelStmt(std::move(stmt));
  }

  // Temporal-element literal: interval ('u' interval)* with the language's
  // [a, b) syntax (end may be 'inf').
  Result<TemporalElement> ParseElement() {
    std::vector<Interval> intervals;
    for (;;) {
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
      TTRA_ASSIGN_OR_RETURN(Chronon begin, ParseChronon(false));
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      TTRA_ASSIGN_OR_RETURN(Chronon end, ParseChronon(true));
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      intervals.push_back(Interval::Make(begin, end));
      if (!CheckWord("u")) break;
      Advance();
    }
    return TemporalElement::Of(std::move(intervals));
  }

  Result<Chronon> ParseChronon(bool allow_inf) {
    if (allow_inf && CheckWord("inf")) {
      Advance();
      return kChrononMax;
    }
    bool negative = false;
    if (CheckKind(TokenKind::kMinusSign)) {
      negative = true;
      Advance();
    }
    if (!CheckKind(TokenKind::kIntLiteral)) {
      return ErrorAt(Peek(), "expected a chronon");
    }
    const int64_t value = Advance().int_value;
    return negative ? -value : value;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// The current state of the target relation: ρ(R, ∞).
Expr CurrentState(const std::string& relation, const lang::Catalog& catalog) {
  const lang::Catalog::Entry* entry = catalog.Find(relation);
  const bool historical =
      entry != nullptr && !HoldsSnapshotStates(entry->type);
  return Expr::Rollback(relation, std::nullopt, historical);
}

Result<lang::Stmt> CompileAppend(const AppendStmt& stmt,
                                 const lang::Catalog& catalog) {
  const lang::Catalog::Entry* entry = catalog.Find(stmt.relation);
  if (entry == nullptr) {
    return UnknownIdentifierError("append to undefined relation: " +
                                  stmt.relation);
  }
  if (!HoldsSnapshotStates(entry->type)) {
    return TypeMismatchError(
        "quel append targets snapshot/rollback relations; '" + stmt.relation +
        "' is " + std::string(RelationTypeName(entry->type)));
  }
  // Build the appended tuple in scheme order.
  const Schema& schema = entry->schema;
  std::vector<Value> values(schema.size());
  std::vector<bool> assigned(schema.size(), false);
  const Schema empty_schema;
  const Tuple empty_tuple;
  for (const auto& [name, scalar] : stmt.values) {
    auto index = schema.IndexOf(name);
    if (!index.has_value()) {
      return SchemaMismatchError("append assigns unknown attribute '" + name +
                                 "' of relation " + stmt.relation);
    }
    if (assigned[*index]) {
      return InvalidArgumentError("append assigns attribute '" + name +
                                  "' twice");
    }
    if (!scalar.AttributeNames().empty()) {
      return InvalidArgumentError(
          "append values must be constant expressions");
    }
    TTRA_ASSIGN_OR_RETURN(const lang::BoundScalar constant,
                          lang::BoundScalar::Bind(scalar, empty_schema));
    TTRA_ASSIGN_OR_RETURN(Value value, constant.Eval(empty_tuple));
    values[*index] = std::move(value);
    assigned[*index] = true;
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!assigned[i]) {
      return InvalidArgumentError("append leaves attribute '" +
                                  schema.attribute(i).name + "' unassigned");
    }
  }
  TTRA_ASSIGN_OR_RETURN(
      SnapshotState constant,
      SnapshotState::Make(schema, {Tuple(std::move(values))}));
  Expr expr = Expr::Binary(lang::BinaryOp::kUnion,
                           CurrentState(stmt.relation, catalog),
                           Expr::Const(std::move(constant)));
  return lang::Stmt(lang::ModifyStateStmt{stmt.relation, std::move(expr)});
}

Result<lang::Stmt> CompileDelete(const DeleteStmt& stmt,
                                 const lang::Catalog& catalog) {
  if (catalog.Find(stmt.relation) == nullptr) {
    return UnknownIdentifierError("delete from undefined relation: " +
                                  stmt.relation);
  }
  Expr expr = Expr::Select(Predicate::Not(stmt.where),
                           CurrentState(stmt.relation, catalog));
  return lang::Stmt(lang::ModifyStateStmt{stmt.relation, std::move(expr)});
}

Result<lang::Stmt> CompileReplace(const ReplaceStmt& stmt,
                                  const lang::Catalog& catalog) {
  const lang::Catalog::Entry* entry = catalog.Find(stmt.relation);
  if (entry == nullptr) {
    return UnknownIdentifierError("replace in undefined relation: " +
                                  stmt.relation);
  }
  for (const auto& [name, scalar] : stmt.assignments) {
    if (!entry->schema.IndexOf(name).has_value()) {
      return SchemaMismatchError("replace assigns unknown attribute '" +
                                 name + "' of relation " + stmt.relation);
    }
  }
  Expr current = CurrentState(stmt.relation, catalog);
  Expr untouched = Expr::Select(Predicate::Not(stmt.where), current);
  Expr updated =
      Expr::Extend(stmt.assignments, Expr::Select(stmt.where, current));
  Expr expr = Expr::Binary(lang::BinaryOp::kUnion, std::move(untouched),
                           std::move(updated));
  return lang::Stmt(lang::ModifyStateStmt{stmt.relation, std::move(expr)});
}

Result<lang::Stmt> CompileRetrieve(const RetrieveStmt& stmt,
                                   const lang::Catalog& catalog) {
  const lang::Catalog::Entry* entry = catalog.Find(stmt.relation);
  if (entry == nullptr) {
    return UnknownIdentifierError("retrieve from undefined relation: " +
                                  stmt.relation);
  }
  const bool historical = !HoldsSnapshotStates(entry->type);
  // `as of N` → ρ(R, N) / ρ̂(R, N); otherwise the current state.
  if (stmt.as_of.has_value() && !RetainsHistory(entry->type)) {
    return InvalidRollbackError(
        "retrieve ... as of requires a rollback or temporal relation; '" +
        stmt.relation + "' is " +
        std::string(RelationTypeName(entry->type)));
  }
  Expr expr = Expr::Rollback(stmt.relation, stmt.as_of, historical);
  // `when overlaps E` → δ with overlap selection and element projection.
  if (stmt.when_overlaps.has_value()) {
    if (!historical) {
      return TypeMismatchError(
          "retrieve ... when overlaps requires valid time; '" +
          stmt.relation + "' is " +
          std::string(RelationTypeName(entry->type)));
    }
    TemporalExpr window = TemporalExpr::Const(*stmt.when_overlaps);
    expr = Expr::Delta(
        TemporalPred::Overlaps(TemporalExpr::Valid(), window),
        TemporalExpr::Intersect(TemporalExpr::Valid(), window),
        std::move(expr));
  }
  expr = Expr::Select(stmt.where, std::move(expr));
  if (!stmt.compute.empty()) {
    expr = Expr::Summarize(stmt.by, stmt.compute, std::move(expr));
  } else if (!stmt.attributes.empty()) {
    expr = Expr::Project(stmt.attributes, std::move(expr));
  }
  return lang::Stmt(lang::ShowStmt{std::move(expr)});
}

}  // namespace

Result<QuelStmt> ParseQuel(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lang::Tokenize(source));
  return QuelParser(std::move(tokens)).ParseSingle();
}

Result<std::vector<QuelStmt>> ParseQuelProgram(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lang::Tokenize(source));
  return QuelParser(std::move(tokens)).ParseAll();
}

Result<lang::Stmt> CompileQuel(const QuelStmt& stmt,
                               const lang::Catalog& catalog) {
  return std::visit(
      [&catalog](const auto& s) -> Result<lang::Stmt> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, AppendStmt>) {
          return CompileAppend(s, catalog);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return CompileDelete(s, catalog);
        } else if constexpr (std::is_same_v<T, ReplaceStmt>) {
          return CompileReplace(s, catalog);
        } else {
          static_assert(std::is_same_v<T, RetrieveStmt>);
          return CompileRetrieve(s, catalog);
        }
      },
      stmt);
}

Result<lang::Program> CompileQuelProgram(std::string_view source,
                                         const lang::Catalog& catalog) {
  TTRA_ASSIGN_OR_RETURN(std::vector<QuelStmt> stmts,
                        ParseQuelProgram(source));
  lang::Program program;
  program.reserve(stmts.size());
  for (const QuelStmt& stmt : stmts) {
    TTRA_ASSIGN_OR_RETURN(lang::Stmt compiled, CompileQuel(stmt, catalog));
    program.push_back(std::move(compiled));
  }
  return program;
}

}  // namespace ttra::quel
