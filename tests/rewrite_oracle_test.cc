// Oracle for the facts-driven rewriter (OptimizeWithFacts/OptimizeProgram):
// a rewritten program must be observably equivalent to the original — same
// statuses, same show outputs, byte-identical final database. This is the
// soundness gate for the abstract interpreter's consumers (DESIGN.md §10):
// if a fact ever over-claims, some seed here diverges.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/absint.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "rollback/persistence.h"
#include "workload/generator.h"

namespace ttra {
namespace {

struct RunOutcome {
  bool ok = false;
  std::string status;
  std::vector<lang::StateValue> outputs;
  TransactionNumber txn = 0;
  std::string encoded;
};

RunOutcome Execute(const lang::Program& program) {
  Database db;
  RunOutcome out;
  const Status status =
      lang::ExecProgram(program, db, &out.outputs, {.strict = true});
  out.ok = status.ok();
  out.status = status.ToString();
  out.txn = db.transaction_number();
  out.encoded = EncodeDatabase(db);
  return out;
}

void ExpectEquivalent(const lang::Program& original,
                      const lang::Program& rewritten) {
  const RunOutcome a = Execute(original);
  const RunOutcome b = Execute(rewritten);
  EXPECT_EQ(a.ok, b.ok) << a.status << " vs " << b.status;
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.encoded, b.encoded) << "final database states differ";
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_TRUE(a.outputs[i] == b.outputs[i]) << "show output " << i;
  }
}

lang::Program MustParse(const std::string& source) {
  auto program = lang::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? *program : lang::Program{};
}

/// Whole-program path: OptimizeProgram from the empty database, then the
/// equivalence check. Returns the rewrite count so callers can assert the
/// test is not vacuous.
int CheckWholeProgram(const lang::Program& program) {
  optimizer::RewriteStats stats;
  const lang::Program rewritten = optimizer::OptimizeProgram(
      program, lang::Catalog(), lang::AbsStateFromDatabase(Database()),
      &stats);
  ExpectEquivalent(program, rewritten);
  return stats.applications;
}

int CheckWholeProgram(const std::string& source) {
  return CheckWholeProgram(MustParse(source));
}

/// Per-statement path: each statement is optimized against live facts from
/// the database it is about to run on (exactly what `ttra run --optimize`
/// does), in strict and lax modes.
void CheckPerStatement(const lang::Program& program, bool strict) {
  SCOPED_TRACE(strict ? "strict" : "lax");
  Database a;
  Database b;
  std::vector<lang::StateValue> out_a, out_b;
  const lang::ExecOptions exec{.strict = strict};
  for (const lang::Stmt& stmt : program) {
    const lang::Catalog catalog(b);
    const lang::AbsState facts = lang::AbsStateFromDatabase(b);
    lang::Stmt optimized = stmt;
    if (auto* modify = std::get_if<lang::ModifyStateStmt>(&optimized)) {
      modify->expr = optimizer::OptimizeWithFacts(modify->expr, catalog,
                                                  facts);
    } else if (auto* show = std::get_if<lang::ShowStmt>(&optimized)) {
      show->expr = optimizer::OptimizeWithFacts(show->expr, catalog, facts);
    }
    const Status sa = lang::ExecStmt(stmt, a, &out_a, exec);
    const Status sb = lang::ExecStmt(optimized, b, &out_b, exec);
    EXPECT_EQ(sa.ok(), sb.ok()) << sa.ToString() << " vs " << sb.ToString();
    if (strict && (!sa.ok() || !sb.ok())) break;
  }
  EXPECT_EQ(a.transaction_number(), b.transaction_number());
  EXPECT_EQ(EncodeDatabase(a), EncodeDatabase(b));
  ASSERT_EQ(out_a.size(), out_b.size());
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_TRUE(out_a[i] == out_b[i]) << "show output " << i;
  }
}

// --- Hand-built programs exercising each rewrite family ---------------------

TEST(RewriteOracle, RollbackEmptyFoldAndInfNormalize) {
  const int applications = CheckWholeProgram(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1)});
    show(rho(r, 0));
    show(rho(r, 1));
    show(rho(r, 2));
    show(rho(r, 1000));
    show(rho(r, inf));
  )");
  // rho(r, 0) and rho(r, 1) fold to ∅; rho(r, 2) and rho(r, 1000)
  // normalize to rho(r, inf).
  EXPECT_GE(applications, 4);
}

TEST(RewriteOracle, HistoricalRollbackFolds) {
  const int applications = CheckWholeProgram(R"(
    define_relation(t, temporal, (n: int));
    modify_state(t, (n: int) {(1) @ [0, 10)});
    modify_state(t, hrho(t, inf) union (n: int) {(2) @ [20, 30)});
    show(hrho(t, 1));
    show(hrho(t, 500));
  )");
  EXPECT_GE(applications, 2);
}

TEST(RewriteOracle, EmptyOperandPruning) {
  const int applications = CheckWholeProgram(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1), (2)});
    show(rho(r, inf) union rho(r, 0));
    show(rho(r, 0) minus rho(r, inf));
    show(rho(r, inf) minus rho(r, 0));
    show(rho(r, 0) intersect rho(r, inf));
    show(rho(r, 0) join rho(r, inf));
    show(rho(r, 0) times rename[n -> m](rho(r, inf)));
  )");
  EXPECT_GE(applications, 6);
}

TEST(RewriteOracle, ConstantFolding) {
  const int applications = CheckWholeProgram(R"(
    define_relation(r, snapshot, (n: int));
    modify_state(r, select[n > 1]((n: int) {(1), (2), (3)}));
    show((n: int) {(1)} union (n: int) {(2)});
    show(project[n]((n: int, m: int) {(1, 2)}));
  )");
  EXPECT_GE(applications, 3);
}

TEST(RewriteOracle, ValueDependentFailureIsPreserved) {
  // The extend divides by zero: relation-free, but evaluation fails, so
  // the fold must NOT fire and the rewritten program must fail at run time
  // exactly like the original.
  CheckWholeProgram(R"(
    define_relation(r, snapshot, (n: int));
    show(extend[z = (n / 0)]((n: int) {(1)}));
  )");
}

TEST(RewriteOracle, SchemaEvolutionBlocksUnsoundPruning) {
  // rho(e, 0) observes the *define-time* scheme (a: int), not the current
  // (a: int, b: int): the union's run-time schema check fails even though
  // static analysis (typed against the current scheme) accepts it. The
  // ∅-pruning gate (RuntimeSchemaProvable) must refuse to erase that
  // run-time error, so original and rewritten both fail.
  CheckWholeProgram(R"(
    define_relation(e, rollback, (a: int));
    modify_state(e, (a: int) {(1)});
    modify_schema(e, (a: int, b: int));
    modify_state(e, (a: int, b: int) {(1, 2)});
    show(rho(e, inf) union rho(e, 0));
  )");
}

TEST(RewriteOracle, SchemaEvolutionOldStateObservation) {
  // rho(e, 2) observes the old-scheme state (TTRA-W007 territory); show
  // prints it fine. The rewriter must leave it alone (no fold applies) and
  // rho(e, 1000) may still normalize to ∞ (same observed state).
  CheckWholeProgram(R"(
    define_relation(e, rollback, (a: int));
    modify_state(e, (a: int) {(1)});
    modify_schema(e, (a: int, b: int));
    modify_state(e, (a: int, b: int) {(1, 2)});
    show(rho(e, 2));
    show(rho(e, 1000));
  )");
}

TEST(RewriteOracle, AnalyzerRejectedStatementsAreUntouched) {
  // Statement 2 references an unknown relation: the analyzer rejects it,
  // OptimizeProgram must leave it verbatim, and strict execution stops
  // there in both versions.
  const lang::Program program = MustParse(R"(
    define_relation(r, rollback, (n: int));
    show(rho(ghost, inf));
    show(rho(r, 0));
  )");
  optimizer::RewriteStats stats;
  const lang::Program rewritten = optimizer::OptimizeProgram(
      program, lang::Catalog(), lang::AbsStateFromDatabase(Database()),
      &stats);
  ASSERT_EQ(rewritten.size(), program.size());
  EXPECT_TRUE(rewritten[1] == program[1]);
  ExpectEquivalent(program, rewritten);
}

// --- Randomized programs --------------------------------------------------------

class RewriteOracleSeeds : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RewriteOracleSeeds,
                         ::testing::Range<uint64_t>(0, 12));

lang::Program GeneratedProgram(uint64_t seed) {
  workload::Generator gen(seed);
  const Schema schema = gen.RandomSchema();
  lang::Program program;
  program.push_back(
      lang::DefineRelationStmt{"r", RelationType::kRollback, schema});
  const size_t updates = 2 + seed % 3;
  for (size_t i = 0; i < updates; ++i) {
    program.push_back(lang::ModifyStateStmt{
        "r", lang::Expr::Const(gen.RandomState(schema, 8))});
  }
  // Probes at the boundaries the rewriter reasons about: before the
  // define, at the define, mid-history, beyond the last state, and ∞.
  std::vector<lang::Expr> bases;
  bases.push_back(lang::Expr::Rollback("r", std::nullopt, false));
  bases.push_back(lang::Expr::Rollback("r", 0, false));
  bases.push_back(lang::Expr::Rollback("r", 1, false));
  bases.push_back(lang::Expr::Rollback("r", 1 + updates / 2, false));
  bases.push_back(lang::Expr::Rollback("r", 1000000, false));
  bases.push_back(lang::Expr::Const(gen.RandomState(schema, 5)));
  bases.push_back(lang::Expr::Const(SnapshotState::Empty(schema)));
  for (int i = 0; i < 4; ++i) {
    program.push_back(lang::ShowStmt{gen.RandomExpr(bases, schema, 3)});
  }
  program.push_back(
      lang::ModifyStateStmt{"r", gen.RandomExpr(bases, schema, 2)});
  program.push_back(lang::ShowStmt{lang::Expr::Rollback("r", std::nullopt,
                                                        false)});
  return program;
}

TEST_P(RewriteOracleSeeds, WholeProgramEquivalence) {
  CheckWholeProgram(GeneratedProgram(GetParam()));
}

TEST_P(RewriteOracleSeeds, PerStatementLiveFactsEquivalence) {
  const lang::Program program = GeneratedProgram(GetParam());
  CheckPerStatement(program, /*strict=*/true);
  CheckPerStatement(program, /*strict=*/false);
}

}  // namespace
}  // namespace ttra
