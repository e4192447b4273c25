#include "lang/parser.h"

#include <algorithm>

namespace ttra::lang {

namespace {

/// Recursive-descent parser over a pre-lexed token stream, which the
/// caller keeps alive (a Quel statement parses its fragments from its own
/// stream in place).
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens, size_t pos = 0)
      : tokens_(tokens), pos_(pos) {}

  size_t position() const { return pos_; }

  /// Structured form of the last syntax error (valid iff has_error()).
  bool has_error() const { return has_error_; }
  const Diagnostic& last_error() const { return last_error_; }

  Result<Predicate> ParsePredicateFragment() { return ParsePredicate(); }
  Result<ScalarExpr> ParseScalarFragment() { return ParseScalarExpr(); }
  Result<Value> ParseLiteralFragment() { return ParseLiteral(); }

  Result<Program> ParseProgram() {
    Program program;
    while (!AtEnd()) {
      TTRA_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
      program.push_back(std::move(stmt));
      while (CheckKind(TokenKind::kSemicolon)) Advance();
    }
    if (program.empty()) {
      return ::ttra::ParseError("a sentence requires at least one command");
    }
    return program;
  }

  Result<Stmt> ParseSingleStmt() {
    TTRA_ASSIGN_OR_RETURN(Stmt stmt, ParseStmt());
    while (CheckKind(TokenKind::kSemicolon)) Advance();
    TTRA_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  Result<Expr> ParseSingleExpr() {
    TTRA_ASSIGN_OR_RETURN(Expr expr, ParseExpr());
    TTRA_RETURN_IF_ERROR(ExpectEnd());
    return expr;
  }

  Result<Predicate> ParseSinglePredicate() {
    TTRA_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate());
    TTRA_RETURN_IF_ERROR(ExpectEnd());
    return pred;
  }

 private:
  // --- Token-stream helpers ----------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool CheckKind(TokenKind kind, size_t ahead = 0) const {
    return Peek(ahead).kind == kind;
  }
  bool CheckKeyword(std::string_view word, size_t ahead = 0) const {
    return Peek(ahead).kind == TokenKind::kKeyword && Peek(ahead).text == word;
  }

  Status ErrorAt(const Token& token, std::string_view message) const {
    const std::string detail =
        std::string(message) + ", found " + token.Describe();
    last_error_ = Diagnostic{
        Severity::kError,
        std::string(DiagnosticCodeForError(ErrorCode::kParseError)),
        SpanOf(token), detail, ErrorCode::kParseError};
    has_error_ = true;
    return ::ttra::ParseError(detail + " at line " +
                              std::to_string(token.line) + ", column " +
                              std::to_string(token.column));
  }

  // --- Source spans --------------------------------------------------------

  static SourceSpan SpanOf(const Token& token) {
    return SourceSpan{{token.line, token.column},
                      {token.line, token.column + token.Width()}};
  }

  /// Span covering tokens_[start] through the last consumed token.
  SourceSpan SpanFrom(size_t start) const {
    const Token& first = tokens_[std::min(start, tokens_.size() - 1)];
    const size_t last_idx =
        std::min(pos_ > start ? pos_ - 1 : start, tokens_.size() - 1);
    const Token& last = tokens_[last_idx];
    return SourceSpan{{first.line, first.column},
                      {last.line, last.column + last.Width()}};
  }

  Status Expect(TokenKind kind) {
    if (!CheckKind(kind)) {
      return ErrorAt(Peek(), "expected " + std::string(TokenKindName(kind)));
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectKeyword(std::string_view word) {
    if (!CheckKeyword(word)) {
      return ErrorAt(Peek(), "expected keyword '" + std::string(word) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectEnd() {
    if (!AtEnd()) return ErrorAt(Peek(), "expected end of input");
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (!CheckKind(TokenKind::kIdentifier)) {
      return ErrorAt(Peek(), "expected " + std::string(what));
    }
    return Advance().text;
  }

  // --- Statements ----------------------------------------------------------

  Result<Stmt> ParseStmt() {
    const size_t start = pos_;
    TTRA_ASSIGN_OR_RETURN(Stmt stmt, ParseStmtInner());
    std::visit([&](auto& s) { s.span = SpanFrom(start); }, stmt);
    return stmt;
  }

  Result<Stmt> ParseStmtInner() {
    if (CheckKeyword("define_relation")) return ParseDefineRelation();
    if (CheckKeyword("modify_state")) return ParseModifyState();
    if (CheckKeyword("delete_relation")) return ParseDeleteRelation();
    if (CheckKeyword("modify_schema")) return ParseModifySchema();
    if (CheckKeyword("show")) return ParseShow();
    return ErrorAt(Peek(), "expected a command");
  }

  Result<Stmt> ParseDefineRelation() {
    Advance();  // define_relation
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(std::string name,
                          ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    TTRA_ASSIGN_OR_RETURN(RelationType type, ParseRelationTypeName());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    TTRA_ASSIGN_OR_RETURN(Schema schema, ParseSchema());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Stmt(DefineRelationStmt{std::move(name), type, std::move(schema)});
  }

  Result<Stmt> ParseModifyState() {
    Advance();  // modify_state
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(std::string name,
                          ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    TTRA_ASSIGN_OR_RETURN(Expr expr, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Stmt(ModifyStateStmt{std::move(name), std::move(expr)});
  }

  Result<Stmt> ParseDeleteRelation() {
    Advance();  // delete_relation
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(std::string name,
                          ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Stmt(DeleteRelationStmt{std::move(name)});
  }

  Result<Stmt> ParseModifySchema() {
    Advance();  // modify_schema
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(std::string name,
                          ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    TTRA_ASSIGN_OR_RETURN(Schema schema, ParseSchema());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Stmt(ModifySchemaStmt{std::move(name), std::move(schema)});
  }

  Result<Stmt> ParseShow() {
    Advance();  // show
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr expr, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Stmt(ShowStmt{std::move(expr)});
  }

  Result<RelationType> ParseRelationTypeName() {
    for (std::string_view name :
         {"snapshot", "rollback", "historical", "temporal"}) {
      if (CheckKeyword(name)) {
        Advance();
        return *ParseRelationType(name);
      }
    }
    return ErrorAt(Peek(), "expected a relation type");
  }

  // --- Schemas --------------------------------------------------------------

  Result<Schema> ParseSchema() {
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    std::vector<Attribute> attrs;
    if (!CheckKind(TokenKind::kRParen)) {
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(std::string name,
                              ExpectIdentifier("attribute name"));
        TTRA_RETURN_IF_ERROR(Expect(TokenKind::kColon));
        TTRA_ASSIGN_OR_RETURN(ValueType type, ParseTypeName());
        attrs.push_back(Attribute{std::move(name), type});
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    auto schema = Schema::Make(std::move(attrs));
    if (!schema.ok()) return ErrorAt(Peek(), schema.status().message());
    return std::move(schema).value();
  }

  Result<ValueType> ParseTypeName() {
    for (std::string_view name : {"int", "double", "string", "bool",
                                  "usertime"}) {
      if (CheckKeyword(name)) {
        Advance();
        return *ParseValueType(name);
      }
    }
    return ErrorAt(Peek(), "expected an attribute type");
  }

  // --- Expressions -----------------------------------------------------------

  // Precedence (loosest to tightest): union/intersect, minus, times/join.
  Result<Expr> ParseExpr() {
    const size_t start = pos_;
    TTRA_ASSIGN_OR_RETURN(Expr lhs, ParseDiffExpr());
    while (CheckKeyword("union") || CheckKeyword("intersect")) {
      const BinaryOp op = Peek().text == "union" ? BinaryOp::kUnion
                                                 : BinaryOp::kIntersect;
      Advance();
      TTRA_ASSIGN_OR_RETURN(Expr rhs, ParseDiffExpr());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs))
                .WithSpan(SpanFrom(start));
    }
    return lhs;
  }

  Result<Expr> ParseDiffExpr() {
    const size_t start = pos_;
    TTRA_ASSIGN_OR_RETURN(Expr lhs, ParseProdExpr());
    while (CheckKeyword("minus")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(Expr rhs, ParseProdExpr());
      lhs = Expr::Binary(BinaryOp::kMinus, std::move(lhs), std::move(rhs))
                .WithSpan(SpanFrom(start));
    }
    return lhs;
  }

  Result<Expr> ParseProdExpr() {
    const size_t start = pos_;
    TTRA_ASSIGN_OR_RETURN(Expr lhs, ParsePrimaryExpr());
    while (CheckKeyword("times") || CheckKeyword("join")) {
      const BinaryOp op =
          Peek().text == "times" ? BinaryOp::kTimes : BinaryOp::kJoin;
      Advance();
      TTRA_ASSIGN_OR_RETURN(Expr rhs, ParsePrimaryExpr());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs))
                .WithSpan(SpanFrom(start));
    }
    return lhs;
  }

  Result<Expr> ParsePrimaryExpr() {
    const size_t start = pos_;
    TTRA_ASSIGN_OR_RETURN(Expr expr, ParsePrimaryExprInner());
    return std::move(expr).WithSpan(SpanFrom(start));
  }

  Result<Expr> ParsePrimaryExprInner() {
    if (CheckKeyword("project")) return ParseProject();
    if (CheckKeyword("select")) return ParseSelect();
    if (CheckKeyword("rename")) return ParseRename();
    if (CheckKeyword("extend")) return ParseExtend();
    if (CheckKeyword("delta")) return ParseDelta();
    if (CheckKeyword("summarize")) return ParseSummarize();
    if (CheckKeyword("rho")) return ParseRollback(/*historical=*/false);
    if (CheckKeyword("hrho")) return ParseRollback(/*historical=*/true);
    if (CheckKeyword("snapshot") || CheckKeyword("historical")) {
      return ParseConstant();
    }
    if (CheckKind(TokenKind::kLParen)) {
      // '(' begins either a constant (its schema) or a parenthesized
      // expression; a schema continues with `ident :` or closes
      // immediately before '{'.
      const bool is_constant =
          (CheckKind(TokenKind::kIdentifier, 1) && CheckKind(TokenKind::kColon, 2)) ||
          (CheckKind(TokenKind::kRParen, 1) && CheckKind(TokenKind::kLBrace, 2));
      if (is_constant) return ParseConstant();
      Advance();  // '('
      TTRA_ASSIGN_OR_RETURN(Expr expr, ParseExpr());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return expr;
    }
    return ErrorAt(Peek(), "expected an expression");
  }

  Result<Expr> ParseProject() {
    Advance();  // project
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    std::vector<std::string> names;
    if (!CheckKind(TokenKind::kRBracket)) {
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(std::string name,
                              ExpectIdentifier("attribute name"));
        names.push_back(std::move(name));
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Project(std::move(names), std::move(child));
  }

  Result<Expr> ParseSelect() {
    Advance();  // select
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    TTRA_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Select(std::move(pred), std::move(child));
  }

  Result<Expr> ParseRename() {
    Advance();  // rename
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    TTRA_ASSIGN_OR_RETURN(std::string from,
                          ExpectIdentifier("attribute name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kArrow));
    TTRA_ASSIGN_OR_RETURN(std::string to, ExpectIdentifier("attribute name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Rename(std::move(from), std::move(to), std::move(child));
  }

  Result<Expr> ParseExtend() {
    Advance();  // extend
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    std::vector<std::pair<std::string, ScalarExpr>> definitions;
    for (;;) {
      TTRA_ASSIGN_OR_RETURN(std::string name,
                            ExpectIdentifier("attribute name"));
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kEq));
      TTRA_ASSIGN_OR_RETURN(ScalarExpr value, ParseScalarExpr());
      definitions.emplace_back(std::move(name), std::move(value));
      if (!CheckKind(TokenKind::kComma)) break;
      Advance();
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Extend(std::move(definitions), std::move(child));
  }

  Result<Expr> ParseDelta() {
    Advance();  // delta
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    TTRA_ASSIGN_OR_RETURN(TemporalPred pred, ParseTemporalPred());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    TTRA_ASSIGN_OR_RETURN(TemporalExpr projection, ParseTemporalExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Delta(std::move(pred), std::move(projection),
                       std::move(child));
  }

  // summarize[group, attrs; out = func(attr), n = count](E)
  Result<Expr> ParseSummarize() {
    Advance();  // summarize
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    std::vector<std::string> group;
    if (!CheckKind(TokenKind::kSemicolon)) {
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(std::string name,
                              ExpectIdentifier("group attribute"));
        group.push_back(std::move(name));
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    std::vector<AggregateDef> aggregates;
    for (;;) {
      AggregateDef def;
      TTRA_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("aggregate name"));
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kEq));
      bool parsed_func = false;
      for (std::string_view func : {"count", "sum", "min", "max", "avg"}) {
        if (CheckKeyword(func)) {
          Advance();
          def.func = *ParseAggFunc(func);
          parsed_func = true;
          break;
        }
      }
      if (!parsed_func) {
        return ErrorAt(Peek(), "expected an aggregate function");
      }
      if (def.func == AggFunc::kCount) {
        // count takes no attribute; "count()" is also accepted.
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
      aggregates.push_back(std::move(def));
      if (!CheckKind(TokenKind::kComma)) break;
      Advance();
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(Expr child, ParseExpr());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Summarize(std::move(group), std::move(aggregates),
                           std::move(child));
  }

  Result<Expr> ParseRollback(bool historical) {
    Advance();  // rho / hrho
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TTRA_ASSIGN_OR_RETURN(std::string name,
                          ExpectIdentifier("relation name"));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    std::optional<TransactionNumber> txn;
    if (CheckKeyword("inf")) {
      Advance();
    } else if (CheckKind(TokenKind::kIntLiteral)) {
      const int64_t value = Advance().int_value;
      if (value < 0) {
        return ErrorAt(Peek(), "transaction numbers are non-negative");
      }
      txn = static_cast<TransactionNumber>(value);
    } else {
      return ErrorAt(Peek(), "expected a transaction number or 'inf'");
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Rollback(std::move(name), txn, historical);
  }

  // --- Constants --------------------------------------------------------------

  enum class ConstKind { kAuto, kSnapshot, kHistorical };

  Result<Expr> ParseConstant() {
    ConstKind kind = ConstKind::kAuto;
    if (CheckKeyword("snapshot")) {
      kind = ConstKind::kSnapshot;
      Advance();
    } else if (CheckKeyword("historical")) {
      kind = ConstKind::kHistorical;
      Advance();
    }
    TTRA_ASSIGN_OR_RETURN(Schema schema, ParseSchema());
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    std::vector<Tuple> tuples;
    std::vector<HistoricalTuple> htuples;
    if (!CheckKind(TokenKind::kRBrace)) {
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(Tuple tuple, ParseTuple());
        if (CheckAtSign()) {
          if (kind == ConstKind::kSnapshot) {
            return ErrorAt(Peek(),
                           "snapshot constant must not carry valid time");
          }
          kind = ConstKind::kHistorical;
          ConsumeAtSign();
          TTRA_ASSIGN_OR_RETURN(TemporalElement element,
                                ParseTemporalElement());
          htuples.push_back(
              HistoricalTuple{std::move(tuple), std::move(element)});
        } else {
          if (kind == ConstKind::kHistorical) {
            return ErrorAt(Peek(),
                           "historical constant requires '@ element' after "
                           "each tuple");
          }
          kind = ConstKind::kSnapshot;
          tuples.push_back(std::move(tuple));
        }
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    if (kind == ConstKind::kHistorical) {
      auto state = HistoricalState::Make(std::move(schema), std::move(htuples));
      if (!state.ok()) return ErrorAt(Peek(), state.status().message());
      return Expr::Const(std::move(state).value());
    }
    auto state = SnapshotState::Make(std::move(schema), std::move(tuples));
    if (!state.ok()) return ErrorAt(Peek(), state.status().message());
    return Expr::Const(std::move(state).value());
  }

  bool CheckAtSign() const { return CheckKind(TokenKind::kAtSign); }
  void ConsumeAtSign() { Advance(); }

  Result<Tuple> ParseTuple() {
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    std::vector<Value> values;
    if (!CheckKind(TokenKind::kRParen)) {
      for (;;) {
        TTRA_ASSIGN_OR_RETURN(Value value, ParseLiteral());
        values.push_back(std::move(value));
        if (!CheckKind(TokenKind::kComma)) break;
        Advance();
      }
    }
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Tuple(std::move(values));
  }

  Result<Value> ParseLiteral() {
    bool negative = false;
    if (CheckKind(TokenKind::kMinusSign)) {
      negative = true;
      Advance();
    }
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kIntLiteral:
        Advance();
        return Value::Int(negative ? -token.int_value : token.int_value);
      case TokenKind::kDoubleLiteral:
        Advance();
        return Value::Double(negative ? -token.double_value
                                      : token.double_value);
      case TokenKind::kStringLiteral:
        if (negative) return ErrorAt(token, "cannot negate a string");
        Advance();
        return Value::String(token.text);
      case TokenKind::kTimeLiteral:
        if (negative) return ErrorAt(token, "write negative times as @-n");
        Advance();
        return Value::Time(token.int_value);
      case TokenKind::kKeyword:
        if (token.text == "true" || token.text == "false") {
          if (negative) return ErrorAt(token, "cannot negate a bool");
          Advance();
          return Value::Bool(token.text == "true");
        }
        [[fallthrough]];
      default:
        return ErrorAt(token, "expected a literal value");
    }
  }

  // --- Predicates (domain 𝓕) ---------------------------------------------

  Result<Predicate> ParsePredicate() { return ParseOrPred(); }

  Result<Predicate> ParseOrPred() {
    TTRA_ASSIGN_OR_RETURN(Predicate lhs, ParseAndPred());
    while (CheckKeyword("or")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(Predicate rhs, ParseAndPred());
      lhs = Predicate::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Predicate> ParseAndPred() {
    TTRA_ASSIGN_OR_RETURN(Predicate lhs, ParseUnaryPred());
    while (CheckKeyword("and")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(Predicate rhs, ParseUnaryPred());
      lhs = Predicate::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Predicate> ParseUnaryPred() {
    if (CheckKeyword("not")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(Predicate operand, ParseUnaryPred());
      return Predicate::Not(std::move(operand));
    }
    if (CheckKeyword("true")) {
      // Either the constant `true` or the operand of a comparison like
      // `true = flag` — the latter is not supported; document as such.
      Advance();
      return Predicate::True();
    }
    if (CheckKeyword("false")) {
      Advance();
      return Predicate::False();
    }
    if (CheckKind(TokenKind::kLParen)) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(Predicate inner, ParsePredicate());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    return ParseComparison();
  }

  Result<Predicate> ParseComparison() {
    TTRA_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    TTRA_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
    TTRA_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());
    return Predicate::Comparison(std::move(lhs), op, std::move(rhs));
  }

  Result<Operand> ParseOperand() {
    if (CheckKind(TokenKind::kIdentifier)) {
      return Operand::Attr(Advance().text);
    }
    TTRA_ASSIGN_OR_RETURN(Value value, ParseLiteral());
    return Operand::Const(std::move(value));
  }

  Result<CompareOp> ParseCompareOp() {
    switch (Peek().kind) {
      case TokenKind::kEq:
        Advance();
        return CompareOp::kEq;
      case TokenKind::kNe:
        Advance();
        return CompareOp::kNe;
      case TokenKind::kLt:
        Advance();
        return CompareOp::kLt;
      case TokenKind::kLe:
        Advance();
        return CompareOp::kLe;
      case TokenKind::kGt:
        Advance();
        return CompareOp::kGt;
      case TokenKind::kGe:
        Advance();
        return CompareOp::kGe;
      default:
        return ErrorAt(Peek(), "expected a comparison operator");
    }
  }

  // --- Scalar expressions (extend) ------------------------------------------

  // Precedence: +,- then *,/ (tighter).
  Result<ScalarExpr> ParseScalarExpr() {
    TTRA_ASSIGN_OR_RETURN(ScalarExpr lhs, ParseScalarTerm());
    while (CheckKind(TokenKind::kPlus) || CheckKind(TokenKind::kMinusSign)) {
      const ScalarExpr::Op op = CheckKind(TokenKind::kPlus)
                                    ? ScalarExpr::Op::kAdd
                                    : ScalarExpr::Op::kSub;
      Advance();
      TTRA_ASSIGN_OR_RETURN(ScalarExpr rhs, ParseScalarTerm());
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExpr> ParseScalarTerm() {
    TTRA_ASSIGN_OR_RETURN(ScalarExpr lhs, ParseScalarFactor());
    while (CheckKind(TokenKind::kStar) || CheckKind(TokenKind::kSlash)) {
      const ScalarExpr::Op op = CheckKind(TokenKind::kStar)
                                    ? ScalarExpr::Op::kMul
                                    : ScalarExpr::Op::kDiv;
      Advance();
      TTRA_ASSIGN_OR_RETURN(ScalarExpr rhs, ParseScalarFactor());
      lhs = ScalarExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExpr> ParseScalarFactor() {
    if (CheckKind(TokenKind::kLParen)) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(ScalarExpr inner, ParseScalarExpr());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    if (CheckKind(TokenKind::kIdentifier)) {
      return ScalarExpr::Attr(Advance().text);
    }
    TTRA_ASSIGN_OR_RETURN(Value value, ParseLiteral());
    return ScalarExpr::Const(std::move(value));
  }

  // --- Temporal expressions and predicates (domains 𝒱 and 𝒢) ---------------

  Result<TemporalExpr> ParseTemporalExpr() {
    TTRA_ASSIGN_OR_RETURN(TemporalExpr lhs, ParseTemporalTerm());
    while (CheckKeyword("union") || CheckKeyword("intersect") ||
           CheckKeyword("minus")) {
      const std::string op = Advance().text;
      TTRA_ASSIGN_OR_RETURN(TemporalExpr rhs, ParseTemporalTerm());
      if (op == "union") {
        lhs = TemporalExpr::Union(std::move(lhs), std::move(rhs));
      } else if (op == "intersect") {
        lhs = TemporalExpr::Intersect(std::move(lhs), std::move(rhs));
      } else {
        lhs = TemporalExpr::Difference(std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<TemporalExpr> ParseTemporalTerm() {
    if (CheckKeyword("valid")) {
      Advance();
      return TemporalExpr::Valid();
    }
    if (CheckKind(TokenKind::kLBracket)) {
      TTRA_ASSIGN_OR_RETURN(TemporalElement element, ParseTemporalElement());
      return TemporalExpr::Const(std::move(element));
    }
    if (CheckKind(TokenKind::kLParen)) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(TemporalExpr inner, ParseTemporalExpr());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    return ErrorAt(Peek(), "expected a temporal expression");
  }

  Result<TemporalElement> ParseTemporalElement() {
    // "[)" is the empty element; otherwise intervals joined by 'u'.
    if (CheckKind(TokenKind::kLBracket) && CheckKind(TokenKind::kRParen, 1)) {
      Advance();
      Advance();
      return TemporalElement();
    }
    std::vector<Interval> intervals;
    for (;;) {
      TTRA_ASSIGN_OR_RETURN(Interval interval, ParseInterval());
      intervals.push_back(interval);
      if (!CheckKeyword("u")) break;
      Advance();
    }
    return TemporalElement::Of(std::move(intervals));
  }

  Result<Interval> ParseInterval() {
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    TTRA_ASSIGN_OR_RETURN(Chronon begin, ParseChronon(/*allow_inf=*/false));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    TTRA_ASSIGN_OR_RETURN(Chronon end, ParseChronon(/*allow_inf=*/true));
    TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Interval::Make(begin, end);
  }

  Result<Chronon> ParseChronon(bool allow_inf) {
    if (allow_inf && CheckKeyword("inf")) {
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

  Result<TemporalPred> ParseTemporalPred() { return ParseTOrPred(); }

  Result<TemporalPred> ParseTOrPred() {
    TTRA_ASSIGN_OR_RETURN(TemporalPred lhs, ParseTAndPred());
    while (CheckKeyword("or")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(TemporalPred rhs, ParseTAndPred());
      lhs = TemporalPred::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<TemporalPred> ParseTAndPred() {
    TTRA_ASSIGN_OR_RETURN(TemporalPred lhs, ParseTUnaryPred());
    while (CheckKeyword("and")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(TemporalPred rhs, ParseTUnaryPred());
      lhs = TemporalPred::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<TemporalPred> ParseTUnaryPred() {
    if (CheckKeyword("not")) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(TemporalPred operand, ParseTUnaryPred());
      return TemporalPred::Not(std::move(operand));
    }
    if (CheckKeyword("true")) {
      Advance();
      return TemporalPred::True();
    }
    if (CheckKeyword("false")) {
      Advance();
      return TemporalPred::False();
    }
    if (CheckKind(TokenKind::kLParen)) {
      Advance();
      TTRA_ASSIGN_OR_RETURN(TemporalPred inner, ParseTemporalPred());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    for (std::string_view name : {"overlaps", "contains", "before",
                                  "equals"}) {
      if (CheckKeyword(name)) {
        Advance();
        TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        TTRA_ASSIGN_OR_RETURN(TemporalExpr lhs, ParseTemporalExpr());
        TTRA_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        TTRA_ASSIGN_OR_RETURN(TemporalExpr rhs, ParseTemporalExpr());
        TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        if (name == "overlaps") {
          return TemporalPred::Overlaps(std::move(lhs), std::move(rhs));
        }
        if (name == "contains") {
          return TemporalPred::Contains(std::move(lhs), std::move(rhs));
        }
        if (name == "before") {
          return TemporalPred::Before(std::move(lhs), std::move(rhs));
        }
        return TemporalPred::Equals(std::move(lhs), std::move(rhs));
      }
    }
    if (CheckKeyword("isempty")) {
      Advance();
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      TTRA_ASSIGN_OR_RETURN(TemporalExpr operand, ParseTemporalExpr());
      TTRA_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return TemporalPred::Empty(std::move(operand));
    }
    return ErrorAt(Peek(), "expected a temporal predicate");
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  // ErrorAt is const (callable from const helpers), so the structured copy
  // of the last error is recorded through mutable state.
  mutable Diagnostic last_error_;
  mutable bool has_error_ = false;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(const std::vector<Token> tokens, Tokenize(source));
  return Parser(tokens).ParseProgram();
}

namespace {

/// Drops the trailing " at line L, column C" human suffix — the structured
/// span carries the position instead.
std::string StripPositionSuffix(std::string message) {
  const size_t at = message.rfind(" at line ");
  if (at != std::string::npos) message.erase(at);
  return message;
}

}  // namespace

Result<Program> ParseProgramDiag(std::string_view source, Diagnostic* diag) {
  size_t error_line = 0;
  size_t error_column = 0;
  auto tokens = Tokenize(source, &error_line, &error_column);
  if (!tokens.ok()) {
    if (diag != nullptr) {
      SourceSpan span;
      if (error_line > 0) {
        span = SourceSpan{{error_line, error_column},
                          {error_line, error_column + 1}};
      }
      *diag = Diagnostic{
          Severity::kError,
          std::string(DiagnosticCodeForError(tokens.status().code())), span,
          StripPositionSuffix(tokens.status().message()),
          tokens.status().code()};
    }
    return tokens.status();
  }
  Parser parser(*tokens);
  auto program = parser.ParseProgram();
  if (!program.ok() && diag != nullptr) {
    if (parser.has_error()) {
      *diag = parser.last_error();
    } else {
      *diag = Diagnostic{
          Severity::kError,
          std::string(DiagnosticCodeForError(program.status().code())),
          SourceSpan{}, program.status().message(), program.status().code()};
    }
  }
  return program;
}

Result<Stmt> ParseStmt(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(const std::vector<Token> tokens, Tokenize(source));
  return Parser(tokens).ParseSingleStmt();
}

Result<Expr> ParseExpr(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(const std::vector<Token> tokens, Tokenize(source));
  return Parser(tokens).ParseSingleExpr();
}

Result<Predicate> ParsePredicate(std::string_view source) {
  TTRA_ASSIGN_OR_RETURN(const std::vector<Token> tokens, Tokenize(source));
  return Parser(tokens).ParseSinglePredicate();
}

Result<Predicate> ParsePredicateTokens(const std::vector<Token>& tokens,
                                       size_t& pos) {
  Parser parser(tokens, pos);
  auto result = parser.ParsePredicateFragment();
  if (result.ok()) pos = parser.position();
  return result;
}

Result<ScalarExpr> ParseScalarTokens(const std::vector<Token>& tokens,
                                     size_t& pos) {
  Parser parser(tokens, pos);
  auto result = parser.ParseScalarFragment();
  if (result.ok()) pos = parser.position();
  return result;
}

Result<Value> ParseLiteralTokens(const std::vector<Token>& tokens,
                                 size_t& pos) {
  Parser parser(tokens, pos);
  auto result = parser.ParseLiteralFragment();
  if (result.ok()) pos = parser.position();
  return result;
}

}  // namespace ttra::lang
