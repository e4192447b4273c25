#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "lang/ast.h"
#include "lang/parser.h"
#include "lang/token.h"

namespace ttra::lang {
namespace {

// --- Lexer --------------------------------------------------------------------

std::vector<Token> Lex(std::string_view source) {
  auto tokens = Tokenize(source);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto tokens = Lex("emp select Select");
  ASSERT_EQ(tokens.size(), 4u);  // + end
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "emp");
  EXPECT_EQ(tokens[1].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[1].text, "select");
  // Keywords are case-sensitive; "Select" is an identifier.
  EXPECT_EQ(tokens[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[3].kind, TokenKind::kEnd);
}

TEST(TokenTest, KeywordTableMatchesReference) {
  // The language's reserved words, listed independently of the lexer.
  const std::set<std::string> reference = {
      "define_relation", "modify_state", "delete_relation", "modify_schema",
      "show", "snapshot", "rollback", "historical", "temporal", "union",
      "minus", "times", "intersect", "join", "project", "select", "rename",
      "extend", "delta", "rho", "hrho", "summarize", "count", "sum", "min",
      "max", "avg", "and", "or", "not", "true", "false", "valid", "overlaps",
      "contains", "before", "equals", "isempty", "u", "inf", "int", "double",
      "string", "bool", "usertime"};
  auto lexes_as = [](const std::string& word) {
    auto tokens = Tokenize(word);
    EXPECT_TRUE(tokens.ok()) << word;
    EXPECT_EQ(tokens->size(), 2u) << word;
    EXPECT_EQ((*tokens)[0].text, word);
    return (*tokens)[0].kind;
  };
  for (const std::string& keyword : reference) {
    EXPECT_TRUE(IsKeyword(keyword)) << keyword;
    EXPECT_EQ(lexes_as(keyword), TokenKind::kKeyword) << keyword;
    // Every proper prefix that is not itself a keyword, every extension
    // and every case variant is an identifier.
    for (size_t n = 1; n < keyword.size(); ++n) {
      const std::string prefix = keyword.substr(0, n);
      if (reference.contains(prefix)) continue;
      EXPECT_EQ(lexes_as(prefix), TokenKind::kIdentifier) << prefix;
    }
    for (const std::string& longer :
         {keyword + "s", keyword + "_", keyword + "1", "_" + keyword}) {
      EXPECT_EQ(lexes_as(longer), TokenKind::kIdentifier) << longer;
    }
    std::string upper = keyword;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    std::string capitalized = keyword;
    capitalized[0] = upper[0];
    for (const std::string& variant : {upper, capitalized}) {
      EXPECT_FALSE(IsKeyword(variant)) << variant;
      EXPECT_EQ(lexes_as(variant), TokenKind::kIdentifier) << variant;
    }
  }
  EXPECT_FALSE(IsKeyword(""));
}

TEST(LexerTest, NumericLiterals) {
  auto tokens = Lex("42 3.5 1e3 2E-2");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 3.5);
  EXPECT_EQ(tokens[2].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 1000.0);
  EXPECT_EQ(tokens[3].kind, TokenKind::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.02);
  // A bare '.' is not part of any token.
  EXPECT_FALSE(Tokenize("7.").ok());
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Lex(R"("hello" "a\"b" "line\nbreak")");
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "a\"b");
  EXPECT_EQ(tokens[2].text, "line\nbreak");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(LexerTest, TimeLiteralsAndAtSign) {
  auto tokens = Lex("@123 @-5 @ [");
  EXPECT_EQ(tokens[0].kind, TokenKind::kTimeLiteral);
  EXPECT_EQ(tokens[0].int_value, 123);
  EXPECT_EQ(tokens[1].kind, TokenKind::kTimeLiteral);
  EXPECT_EQ(tokens[1].int_value, -5);
  EXPECT_EQ(tokens[2].kind, TokenKind::kAtSign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kLBracket);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto tokens = Lex("( ) { } [ ] , ; : -> = != < <= > >= + - * /");
  const std::vector<TokenKind> expected = {
      TokenKind::kLParen,   TokenKind::kRParen,    TokenKind::kLBrace,
      TokenKind::kRBrace,   TokenKind::kLBracket,  TokenKind::kRBracket,
      TokenKind::kComma,    TokenKind::kSemicolon, TokenKind::kColon,
      TokenKind::kArrow,    TokenKind::kEq,        TokenKind::kNe,
      TokenKind::kLt,       TokenKind::kLe,        TokenKind::kGt,
      TokenKind::kGe,       TokenKind::kPlus,      TokenKind::kMinusSign,
      TokenKind::kStar,     TokenKind::kSlash,     TokenKind::kEnd,
  };
  ASSERT_EQ(tokens.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << i;
  }
}

TEST(LexerTest, CommentsAndPositions) {
  auto tokens = Lex("a -- comment to end of line\n  b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 3u);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Tokenize("a # b").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());  // '!' requires '='
}

// --- Expression parsing ----------------------------------------------------------

Expr MustParseExpr(std::string_view source) {
  auto e = ParseExpr(source);
  EXPECT_TRUE(e.ok()) << source << " → " << e.status();
  return e.ok() ? *e : Expr();
}

TEST(ParserTest, SnapshotConstant) {
  Expr e = MustParseExpr(R"((id: int, name: string) {(1, "a"), (2, "b")})");
  ASSERT_EQ(e.kind(), Expr::Kind::kConst);
  const auto& state = std::get<SnapshotState>(e.constant());
  EXPECT_EQ(state.size(), 2u);
  EXPECT_EQ(state.schema().ToString(), "(id: int, name: string)");
}

TEST(ParserTest, EmptyConstant) {
  Expr e = MustParseExpr("(n: int) {}");
  EXPECT_TRUE(std::get<SnapshotState>(e.constant()).empty());
  Expr empty_schema = MustParseExpr("() {}");
  EXPECT_TRUE(std::get<SnapshotState>(empty_schema.constant()).schema().empty());
}

TEST(ParserTest, HistoricalConstant) {
  Expr e = MustParseExpr(
      "(n: int) {(1) @ [0, 5) u [7, inf), (2) @ [3, 4)}");
  ASSERT_EQ(e.kind(), Expr::Kind::kConst);
  const auto& state = std::get<HistoricalState>(e.constant());
  EXPECT_EQ(state.size(), 2u);
  EXPECT_EQ(state.ValidTimeOf(Tuple{Value::Int(1)}).ToString(),
            "[0, 5) u [7, inf)");
}

TEST(ParserTest, TaggedHistoricalConstantMayBeEmpty) {
  Expr e = MustParseExpr("historical (n: int) {}");
  EXPECT_TRUE(std::holds_alternative<HistoricalState>(e.constant()));
  Expr s = MustParseExpr("snapshot (n: int) {}");
  EXPECT_TRUE(std::holds_alternative<SnapshotState>(s.constant()));
}

TEST(ParserTest, MixedConstantFails) {
  EXPECT_FALSE(ParseExpr("(n: int) {(1) @ [0, 2), (2)}").ok());
  EXPECT_FALSE(ParseExpr("(n: int) {(1), (2) @ [0, 2)}").ok());
  EXPECT_FALSE(ParseExpr("snapshot (n: int) {(1) @ [0, 2)}").ok());
}

TEST(ParserTest, LiteralValues) {
  Expr e = MustParseExpr(
      R"((a: int, b: double, c: string, d: bool, e: usertime)
         {(-5, 2.5, "x", true, @9)})");
  const auto& state = std::get<SnapshotState>(e.constant());
  ASSERT_EQ(state.size(), 1u);
  const Tuple& t = state.tuples()[0];
  EXPECT_EQ(t.at(0), Value::Int(-5));
  EXPECT_EQ(t.at(1), Value::Double(2.5));
  EXPECT_EQ(t.at(2), Value::String("x"));
  EXPECT_EQ(t.at(3), Value::Bool(true));
  EXPECT_EQ(t.at(4), Value::Time(9));
}

TEST(ParserTest, BinaryPrecedence) {
  // times binds tighter than minus binds tighter than union.
  Expr e = MustParseExpr("rho(a, inf) union rho(b, inf) minus rho(c, inf)");
  ASSERT_EQ(e.kind(), Expr::Kind::kBinary);
  EXPECT_EQ(e.op(), BinaryOp::kUnion);
  EXPECT_EQ(e.right().op(), BinaryOp::kMinus);
  Expr f = MustParseExpr("rho(a, inf) minus rho(b, inf) times rho(c, inf)");
  EXPECT_EQ(f.op(), BinaryOp::kMinus);
  EXPECT_EQ(f.right().op(), BinaryOp::kTimes);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Expr e = MustParseExpr("(rho(a, inf) union rho(b, inf)) minus rho(c, inf)");
  EXPECT_EQ(e.op(), BinaryOp::kMinus);
  EXPECT_EQ(e.left().op(), BinaryOp::kUnion);
}

TEST(ParserTest, RollbackForms) {
  Expr inf_form = MustParseExpr("rho(emp, inf)");
  EXPECT_EQ(inf_form.kind(), Expr::Kind::kRollback);
  EXPECT_FALSE(inf_form.rollback_txn().has_value());
  EXPECT_FALSE(inf_form.rollback_historical());

  Expr finite = MustParseExpr("rho(emp, 42)");
  ASSERT_TRUE(finite.rollback_txn().has_value());
  EXPECT_EQ(*finite.rollback_txn(), 42u);

  Expr historical = MustParseExpr("hrho(emp, 7)");
  EXPECT_TRUE(historical.rollback_historical());
}

TEST(ParserTest, ProjectSelectRenameExtendDelta) {
  Expr p = MustParseExpr("project[a, b](rho(r, inf))");
  EXPECT_EQ(p.kind(), Expr::Kind::kProject);
  EXPECT_EQ(p.attributes(), (std::vector<std::string>{"a", "b"}));

  Expr s = MustParseExpr(
      "select[a > 5 and not (b = \"x\")](rho(r, inf))");
  EXPECT_EQ(s.kind(), Expr::Kind::kSelect);
  EXPECT_EQ(s.predicate().ToString(), "(a > 5 and not (b = \"x\"))");

  Expr rn = MustParseExpr("rename[a -> b](rho(r, inf))");
  EXPECT_EQ(rn.rename_from(), "a");
  EXPECT_EQ(rn.rename_to(), "b");

  Expr ex = MustParseExpr("extend[total = a + b * 2](rho(r, inf))");
  ASSERT_EQ(ex.definitions().size(), 1u);
  EXPECT_EQ(ex.definitions()[0].second.ToString(), "(a + (b * 2))");

  Expr d = MustParseExpr(
      "delta[overlaps(valid, [0, 10)); valid intersect [0, 10)]"
      "(hrho(t, inf))");
  EXPECT_EQ(d.kind(), Expr::Kind::kDelta);
  EXPECT_EQ(d.temporal_pred().ToString(), "overlaps(valid, [0, 10))");
}

TEST(ParserTest, RhoRejectsNegativeAndGarbageTxn) {
  EXPECT_FALSE(ParseExpr("rho(emp, -3)").ok());
  EXPECT_FALSE(ParseExpr("rho(emp, x)").ok());
  EXPECT_FALSE(ParseExpr("rho(emp)").ok());
}

TEST(ParserTest, ReservedWordsAreNotRelationNames) {
  EXPECT_FALSE(ParseExpr("rho(select, inf)").ok());
}

// --- Statement / program parsing ---------------------------------------------------

TEST(ParserTest, DefineRelationStatement) {
  auto stmt = ParseStmt(
      "define_relation(emp, rollback, (name: string, salary: int))");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& s = std::get<DefineRelationStmt>(*stmt);
  EXPECT_EQ(s.name, "emp");
  EXPECT_EQ(s.type, RelationType::kRollback);
  EXPECT_EQ(s.schema.ToString(), "(name: string, salary: int)");
}

TEST(ParserTest, ModifyAndShowAndDeleteAndModifySchema) {
  EXPECT_TRUE(ParseStmt("modify_state(emp, rho(emp, inf))").ok());
  EXPECT_TRUE(ParseStmt("show(rho(emp, 3))").ok());
  EXPECT_TRUE(ParseStmt("delete_relation(emp)").ok());
  EXPECT_TRUE(
      ParseStmt("modify_schema(emp, (name: string, dept: string))").ok());
}

TEST(ParserTest, ProgramSequencing) {
  auto program = ParseProgram(
      "define_relation(r, rollback, (n: int));\n"
      "modify_state(r, (n: int) {(1)});\n"
      "show(rho(r, inf));");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->size(), 3u);
  EXPECT_TRUE(std::holds_alternative<DefineRelationStmt>((*program)[0]));
  EXPECT_TRUE(std::holds_alternative<ModifyStateStmt>((*program)[1]));
  EXPECT_TRUE(std::holds_alternative<ShowStmt>((*program)[2]));
}

TEST(ParserTest, EmptyProgramFails) {
  EXPECT_FALSE(ParseProgram("").ok());
  EXPECT_FALSE(ParseProgram("   -- just a comment\n").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto r = ParseProgram("define_relation(emp, bogus, (n: int))");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
  EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
}

// --- Print → parse round-trips -----------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(
    Exprs, RoundTripTest,
    ::testing::Values(
        "(n: int) {(1), (2)}",
        "() {}",
        "historical (n: int) {}",
        "(n: int) {(1) @ [0, 5) u [7, inf)}",
        "rho(emp, inf)",
        "rho(emp, 17)",
        "hrho(hist, inf)",
        "(rho(a, inf) union rho(b, inf))",
        "(rho(a, inf) minus (rho(b, inf) times rho(c, inf)))",
        "project[x, y](rho(r, inf))",
        "select[(x > 5 or not (y = \"s\"))](rho(r, inf))",
        "select[x >= @77](rho(r, inf))",
        "rename[a -> b](rho(r, inf))",
        "extend[t = (a + (b * 2))](rho(r, inf))",
        "extend[half = (a / 2), neg = (0 - a)](rho(r, inf))",
        "delta[contains(valid, [1, 2)); (valid union [10, 20))]"
        "(hrho(t, 5))",
        "delta[(isempty((valid minus [0, 5))) and true); valid]"
        "(hrho(t, inf))"));

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  auto first = ParseExpr(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << " → " << first.status();
  const std::string printed = first->ToString();
  auto second = ParseExpr(printed);
  ASSERT_TRUE(second.ok()) << printed << " → " << second.status();
  EXPECT_EQ(*first, *second) << printed;
  EXPECT_EQ(second->ToString(), printed);
}

TEST(RoundTripTest, StatementsRoundTrip) {
  const char* sources[] = {
      "define_relation(emp, temporal, (name: string))",
      "modify_state(emp, (hrho(emp, inf) union historical (name: string) "
      "{(\"ed\") @ [0, inf)}))",
      "delete_relation(emp)",
      "modify_schema(emp, (name: string, dept: string))",
      "show(select[x = 1](rho(r, inf)))",
  };
  for (const char* source : sources) {
    auto first = ParseStmt(source);
    ASSERT_TRUE(first.ok()) << source << " → " << first.status();
    const std::string printed = StmtToString(*first);
    auto second = ParseStmt(printed);
    ASSERT_TRUE(second.ok()) << printed << " → " << second.status();
    EXPECT_EQ(StmtToString(*second), printed);
  }
}

// --- Source spans -------------------------------------------------------------

TEST(SpanTest, DefaultExprSharesOneNode) {
  // The default expression (the empty snapshot constant) is one shared
  // immutable node, so every default Expr — and every AST node slot that
  // holds one — points at the same span.
  const Expr a;
  const Expr b;
  EXPECT_EQ(&a.span(), &b.span());
  EXPECT_FALSE(a.span().valid());
  EXPECT_EQ(a, Expr::Const(SnapshotState()));
}

TEST(SpanTest, StatementsCoverTheirSource) {
  auto program = ParseProgram(
      "define_relation(emp, rollback, (n: int));\n"
      "show(rho(emp, inf))");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->size(), 2u);
  EXPECT_EQ(StmtSpan((*program)[0]).begin, (SourcePos{1, 1}));
  EXPECT_EQ(StmtSpan((*program)[0]).end, (SourcePos{1, 41}));
  EXPECT_EQ(StmtSpan((*program)[1]).begin, (SourcePos{2, 1}));
  EXPECT_EQ(StmtSpan((*program)[1]).end, (SourcePos{2, 20}));
}

TEST(SpanTest, ExpressionsCarryNestedSpans) {
  auto stmt = ParseStmt("show(rho(a, inf) union rho(b, 7))");
  ASSERT_TRUE(stmt.ok());
  const Expr* expr = StmtExpr(*stmt);
  ASSERT_NE(expr, nullptr);
  ASSERT_EQ(expr->kind(), Expr::Kind::kBinary);
  // The union node spans both operands; each operand points at itself.
  EXPECT_EQ(expr->span().begin, (SourcePos{1, 6}));
  EXPECT_EQ(expr->span().end, (SourcePos{1, 33}));
  EXPECT_EQ(expr->left().span().begin, (SourcePos{1, 6}));
  EXPECT_EQ(expr->left().span().end, (SourcePos{1, 17}));
  EXPECT_EQ(expr->right().span().begin, (SourcePos{1, 24}));
  EXPECT_EQ(expr->right().span().end, (SourcePos{1, 33}));
}

TEST(SpanTest, SpansSurviveMultiLineStatements) {
  auto stmt = ParseStmt(
      "show(project[n](\n"
      "  select[n > 3](rho(r, inf))))");
  ASSERT_TRUE(stmt.ok());
  const Expr* expr = StmtExpr(*stmt);
  ASSERT_NE(expr, nullptr);
  EXPECT_EQ(expr->span().begin, (SourcePos{1, 6}));
  EXPECT_EQ(expr->span().end.line, 2u);
  EXPECT_EQ(expr->left().span().begin, (SourcePos{2, 3}));
}

TEST(SpanTest, EqualityAndPrintingIgnoreSpans) {
  auto parsed = ParseStmt("show(rho(emp, inf))");
  ASSERT_TRUE(parsed.ok());
  const Stmt built = ShowStmt{Expr::Rollback("emp", std::nullopt, false)};
  // Same tree modulo spans: equal, and prints identically.
  EXPECT_EQ(*parsed, built);
  EXPECT_EQ(StmtToString(*parsed), StmtToString(built));
  // But the parsed one has positions while the built one does not.
  EXPECT_TRUE(StmtSpan(*parsed).valid());
  EXPECT_FALSE(StmtSpan(built).valid());
  EXPECT_FALSE(StmtExpr(built)->span().valid());
}

TEST(SpanTest, TokensRecordPositionsAndWidths) {
  auto tokens = Lex("rho(emp,\n  42)");
  ASSERT_EQ(tokens.size(), 7u);  // rho ( emp , 42 ) end
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[0].column, 1u);
  EXPECT_EQ(tokens[0].Width(), 3u);
  EXPECT_EQ(tokens[4].line, 2u);
  EXPECT_EQ(tokens[4].column, 3u);
  EXPECT_EQ(tokens[4].Width(), 2u);
}

TEST(SpanTest, TokenizeReportsErrorPosition) {
  size_t line = 0, column = 0;
  auto tokens = Tokenize("rho(emp,\n   ?)", &line, &column);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(line, 2u);
  EXPECT_EQ(column, 4u);
}

}  // namespace
}  // namespace ttra::lang
