// Randomized robustness suites: print→parse round-trips over generated
// ASTs, parser behaviour on garbage input, and deep-nesting stress.

#include <gtest/gtest.h>

#include "lang/evaluator.h"
#include "lang/parser.h"
#include "workload/generator.h"

namespace ttra::lang {
namespace {

// --- Generated-AST round trips -----------------------------------------------

class ExprRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ExprRoundTripFuzz,
                         ::testing::Range<uint64_t>(0, 30));

TEST_P(ExprRoundTripFuzz, RandomExprsPrintParseStable) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  std::vector<Expr> bases = {
      Expr::Rollback("r", std::nullopt, false),
      Expr::Rollback("r", 1 + gen.rng().Uniform(100), false),
      Expr::Const(gen.RandomState(schema, 5)),
  };
  for (int trial = 0; trial < 10; ++trial) {
    Expr original = gen.RandomExpr(bases, schema, 5);
    const std::string printed = original.ToString();
    auto reparsed = ParseExpr(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << " → " << reparsed.status();
    EXPECT_EQ(*reparsed, original) << printed;
    EXPECT_EQ(reparsed->ToString(), printed);
  }
}

TEST_P(ExprRoundTripFuzz, RandomHistoricalConstantsRoundTrip) {
  workload::Generator gen(GetParam() + 300);
  const Schema schema = gen.RandomSchema();
  for (int trial = 0; trial < 5; ++trial) {
    HistoricalState state = gen.RandomHistoricalState(schema, 8);
    Expr original = Expr::Const(state);
    auto reparsed = ParseExpr(original.ToString());
    ASSERT_TRUE(reparsed.ok()) << original.ToString();
    EXPECT_EQ(*reparsed, original);
  }
}

TEST_P(ExprRoundTripFuzz, RandomPredicatesRoundTrip) {
  workload::Generator gen(GetParam() + 600);
  const Schema schema = gen.RandomSchema();
  for (int trial = 0; trial < 10; ++trial) {
    Predicate original = gen.RandomPredicate(schema, 4);
    auto reparsed = ParsePredicate(original.ToString());
    ASSERT_TRUE(reparsed.ok()) << original.ToString();
    EXPECT_EQ(*reparsed, original) << original.ToString();
  }
}

// --- Garbage input never crashes -------------------------------------------------

class GarbageInputFuzz : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, GarbageInputFuzz,
                         ::testing::Range<uint64_t>(0, 20));

TEST_P(GarbageInputFuzz, RandomBytesParseToErrorNotCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    const size_t length = rng.Uniform(120);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(96) + 32));
    }
    // Any outcome is fine as long as it is a clean Result.
    auto program = ParseProgram(garbage);
    if (!program.ok()) {
      EXPECT_EQ(program.status().code(), ErrorCode::kParseError);
    }
    (void)ParseExpr(garbage);
    (void)ParsePredicate(garbage);
  }
}

TEST_P(GarbageInputFuzz, TokenSoupParsesToErrorNotCrash) {
  // Structured garbage: valid tokens in random order.
  Rng rng(GetParam() + 1000);
  static const char* kTokens[] = {
      "select", "project", "rho",   "(",    ")",     "[",      "]",
      "{",      "}",       ",",     ";",    "union", "minus",  "1",
      "2.5",    "\"s\"",   "ident", "true", "inf",   "valid",  "@3",
      "delta",  "u",       "->",    "=",    "<",     "modify_state",
      "summarize", "count", "extend", "historical",
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup;
    const size_t tokens = rng.Uniform(40);
    for (size_t i = 0; i < tokens; ++i) {
      soup += kTokens[rng.Uniform(std::size(kTokens))];
      soup += ' ';
    }
    (void)ParseProgram(soup);
    (void)ParseExpr(soup);
  }
}

// --- Deep nesting ------------------------------------------------------------------

TEST(DeepNestingTest, DeepSelectChainsParseAndEvaluate) {
  std::string source = "(n: int) {(1), (2), (3)}";
  for (int i = 0; i < 200; ++i) {
    source = "select[n > 0](" + source + ")";
  }
  auto expr = ParseExpr(source);
  ASSERT_TRUE(expr.ok()) << expr.status();
  Database db;
  auto value = EvalExpr(*expr, db);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<SnapshotState>(*value).size(), 3u);
}

TEST(DeepNestingTest, DeepParenthesesParse) {
  std::string source = "(n: int) {}";
  for (int i = 0; i < 300; ++i) source = "(" + source + ")";
  auto expr = ParseExpr(source);
  ASSERT_TRUE(expr.ok()) << expr.status();
}

TEST(DeepNestingTest, DeepPredicateNesting) {
  std::string pred = "n = 1";
  for (int i = 0; i < 200; ++i) pred = "not (" + pred + ")";
  auto parsed = ParsePredicate(pred);
  ASSERT_TRUE(parsed.ok());
  Schema schema = *Schema::Make({{"n", ValueType::kInt}});
  auto bound = BoundPredicate::Bind(*parsed, schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Eval(Tuple{Value::Int(1)}));  // 200 negations cancel out
}

// --- Evaluator under randomized programs --------------------------------------------

class ProgramFuzz : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz, ::testing::Range<uint64_t>(0, 10));

TEST_P(ProgramFuzz, PrintedProgramsReExecuteIdentically) {
  // Generate a command stream, convert to a language program, print it,
  // re-parse, and check both programs produce identical databases.
  workload::Generator gen(GetParam());
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 10,
                                          8, 0.4);
  Program program;
  for (const Command& cmd : commands) {
    if (std::holds_alternative<DefineRelationCmd>(cmd)) {
      const auto& c = std::get<DefineRelationCmd>(cmd);
      program.push_back(DefineRelationStmt{c.name, c.type, c.schema});
    } else {
      const auto& c = std::get<ModifySnapshotCmd>(cmd);
      program.push_back(ModifyStateStmt{c.name, Expr::Const(c.state)});
    }
  }
  const std::string printed = ProgramToString(program);
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << printed << "\n→ " << reparsed.status();

  Database direct;
  ASSERT_TRUE(ExecProgram(program, direct).ok());
  Database via_text;
  ASSERT_TRUE(ExecProgram(*reparsed, via_text).ok());
  ASSERT_EQ(direct.transaction_number(), via_text.transaction_number());
  for (TransactionNumber txn = 0; txn <= direct.transaction_number();
       ++txn) {
    EXPECT_EQ(*direct.Rollback("r", txn), *via_text.Rollback("r", txn));
  }
}

}  // namespace
}  // namespace ttra::lang
