// End-to-end scenarios across every layer: language → evaluator →
// database → state logs → serialization, plus the Quel front-end and
// the optimizer in one pipeline.

#include <gtest/gtest.h>

#include "lang/analyzer.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "quel/quel.h"
#include "storage/serialize.h"
#include "workload/generator.h"

namespace ttra {
namespace {

using lang::StateValue;

TEST(IntegrationTest, PaperLifecycleScenario) {
  // The full §3 machinery: define, update via algebra over ρ(R, ∞), and
  // roll back to every past transaction.
  Database db;
  ASSERT_TRUE(lang::Run(R"(
    define_relation(emp, rollback, (name: string, dept: string));
    modify_state(emp, (name: string, dept: string) {("ed", "cs")});
    modify_state(emp, rho(emp, inf) union
                      (name: string, dept: string) {("amy", "ee")});
    modify_state(emp, select[dept = "cs"](rho(emp, inf)));
    modify_state(emp, extend[dept = dept + "!"](rho(emp, inf)));
  )", db).ok());
  ASSERT_EQ(db.transaction_number(), 5u);
  EXPECT_EQ(db.Rollback("emp", 2)->size(), 1u);
  EXPECT_EQ(db.Rollback("emp", 3)->size(), 2u);
  EXPECT_EQ(db.Rollback("emp", 4)->size(), 1u);
  EXPECT_TRUE(db.Rollback("emp", 5)->Contains(
      Tuple{Value::String("ed"), Value::String("cs!")}));
  // ρ composes into bigger queries over past states.
  std::vector<StateValue> outputs;
  ASSERT_TRUE(lang::Run(
      "show(rho(emp, 3) minus rho(emp, 4));", db, &outputs).ok());
  EXPECT_EQ(std::get<SnapshotState>(outputs[0]).size(), 1u);
}

TEST(IntegrationTest, MixedQuelAndAlgebraHistory) {
  Database db;
  ASSERT_TRUE(lang::Run(
      "define_relation(acct, rollback, (owner: string, bal: int));", db)
          .ok());
  auto run_quel = [&db](std::string_view q) {
    auto stmt = quel::ParseQuel(q);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto compiled = quel::CompileQuel(*stmt, lang::Catalog(db));
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(lang::ExecStmt(*compiled, db).ok());
  };
  run_quel(R"(append to acct (owner = "a", bal = 100))");
  run_quel(R"(append to acct (owner = "b", bal = 200))");
  ASSERT_TRUE(lang::Run(
      "modify_state(acct, extend[bal = bal * 2](rho(acct, inf)));", db)
          .ok());
  run_quel(R"(delete acct where owner = "a")");
  ASSERT_EQ(db.transaction_number(), 5u);
  EXPECT_EQ(db.Rollback("acct", 3)->size(), 2u);
  EXPECT_TRUE(db.Rollback("acct", 4)->Contains(
      Tuple{Value::String("a"), Value::Int(200)}));
  EXPECT_EQ(db.Rollback("acct")->size(), 1u);
}

TEST(IntegrationTest, OptimizerInTheExecutionPipeline) {
  // Parse → analyze → optimize → evaluate must agree with the direct
  // path on a real database.
  Database db;
  ASSERT_TRUE(lang::Run(R"(
    define_relation(l, rollback, (a: int, b: string));
    define_relation(r, rollback, (c: int, d: string));
    modify_state(l, (a: int, b: string) {(1, "x"), (2, "y"), (3, "z")});
    modify_state(r, (c: int, d: string) {(1, "p"), (3, "q")});
  )", db).ok());
  lang::Catalog catalog(db);
  auto expr = lang::ParseExpr(
      "select[a < 3 and d = \"p\" and a = c](rho(l, inf) times rho(r, inf))");
  ASSERT_TRUE(expr.ok());
  ASSERT_TRUE(lang::Analyze(*expr, catalog).ok());
  lang::Expr optimized = optimizer::Optimize(*expr, catalog);
  auto direct = lang::EvalExpr(*expr, db);
  auto via_opt = lang::EvalExpr(optimized, db);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_opt.ok());
  EXPECT_TRUE(*direct == *via_opt);
  EXPECT_EQ(std::get<SnapshotState>(*direct).size(), 1u);
}

TEST(IntegrationTest, PersistAndRestoreAcrossEngines) {
  // Build a history, serialize its logical sequence, restore it into a
  // fresh database by replay, and verify rollback answers match at every
  // transaction.
  workload::Generator gen(99);
  Database db;
  const Schema schema = gen.RandomSchema();
  ASSERT_TRUE(db.DefineRelation("r", RelationType::kRollback, schema).ok());
  SnapshotState state = gen.RandomState(schema, 30);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.ModifyState("r", state).ok());
    state = gen.MutateState(state, 0.25);
  }
  // Serialize.
  const Relation* relation = db.Find("r");
  std::vector<std::pair<SnapshotState, TransactionNumber>> sequence;
  for (size_t i = 0; i < relation->history_length(); ++i) {
    sequence.emplace_back(*relation->SnapshotAt(relation->TxnAt(i)),
                          relation->TxnAt(i));
  }
  const std::string bytes = EncodeStateSequence(sequence);
  // Restore by replay.
  auto decoded = DecodeStateSequence<SnapshotState>(bytes);
  ASSERT_TRUE(decoded.ok());
  Database restored;
  ASSERT_TRUE(
      restored.DefineRelation("r", RelationType::kRollback, schema).ok());
  for (const auto& [s, txn] : *decoded) {
    ASSERT_TRUE(restored.ModifyState("r", s).ok());
  }
  // Transaction numbers differ (replay recommits), but the k-th recorded
  // state must be identical.
  const Relation* restored_rel = restored.Find("r");
  ASSERT_EQ(restored_rel->history_length(), relation->history_length());
  for (size_t i = 0; i < relation->history_length(); ++i) {
    EXPECT_EQ(*restored_rel->SnapshotAt(restored_rel->TxnAt(i)),
              *relation->SnapshotAt(relation->TxnAt(i)));
  }
}

TEST(IntegrationTest, FourRelationTypesSideBySide) {
  // Orthogonality: one database holding all four relation types, each
  // updated and queried through its proper operators.
  Database db;
  ASSERT_TRUE(lang::Run(R"(
    define_relation(s, snapshot, (n: int));
    define_relation(r, rollback, (n: int));
    define_relation(h, historical, (n: int));
    define_relation(t, temporal, (n: int));
    modify_state(s, (n: int) {(1)});
    modify_state(r, (n: int) {(1)});
    modify_state(h, (n: int) {(1) @ [0, 5)});
    modify_state(t, (n: int) {(1) @ [0, 5)});
    modify_state(s, (n: int) {(2)});
    modify_state(r, (n: int) {(2)});
    modify_state(h, (n: int) {(1) @ [0, 9)});
    modify_state(t, (n: int) {(1) @ [0, 9)});
  )", db).ok());
  EXPECT_EQ(db.transaction_number(), 12u);
  // snapshot / historical: only the latest state survives.
  EXPECT_EQ(db.Find("s")->history_length(), 1u);
  EXPECT_EQ(db.Find("h")->history_length(), 1u);
  // rollback / temporal: both states retained.
  EXPECT_EQ(db.Find("r")->history_length(), 2u);
  EXPECT_EQ(db.Find("t")->history_length(), 2u);
  // Past queries only where history is kept.
  EXPECT_EQ(db.Rollback("r", 6)->size(), 1u);
  EXPECT_TRUE(db.Rollback("r", 6)->Contains(Tuple{Value::Int(1)}));
  EXPECT_EQ(db.RollbackHistorical("t", 8)
                ->ValidTimeOf(Tuple{Value::Int(1)}),
            TemporalElement::Span(0, 5));
}

TEST(IntegrationTest, SchemeEvolutionEndToEnd) {
  Database db;
  ASSERT_TRUE(lang::Run(R"(
    define_relation(emp, rollback, (name: string));
    modify_state(emp, (name: string) {("ed")});
    modify_schema(emp, (name: string, dept: string));
    modify_state(emp, extend[dept = "cs"](rho(emp, 2)));
  )", db).ok());
  // Past state keeps the narrow scheme; current state has the wide one.
  EXPECT_EQ(db.Rollback("emp", 2)->schema().size(), 1u);
  auto current = db.Rollback("emp");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->schema().size(), 2u);
  EXPECT_TRUE(current->Contains(
      Tuple{Value::String("ed"), Value::String("cs")}));
}

TEST(IntegrationTest, AnalyzerAcceptsExactlyWhatEvaluatorAccepts) {
  // Randomized agreement test: for generated programs, static analysis
  // and execution agree on success.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    workload::Generator gen(seed);
    auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 5,
                                            10, 0.3);
    // Convert the plain commands into language statements.
    lang::Program program;
    for (const Command& cmd : commands) {
      if (std::holds_alternative<DefineRelationCmd>(cmd)) {
        const auto& c = std::get<DefineRelationCmd>(cmd);
        program.push_back(
            lang::DefineRelationStmt{c.name, c.type, c.schema});
      } else if (std::holds_alternative<ModifySnapshotCmd>(cmd)) {
        const auto& c = std::get<ModifySnapshotCmd>(cmd);
        program.push_back(
            lang::ModifyStateStmt{c.name, lang::Expr::Const(c.state)});
      }
    }
    EXPECT_TRUE(lang::AnalyzeProgram(program, lang::Catalog()).ok());
    Database db;
    EXPECT_TRUE(lang::ExecProgram(program, db).ok());
  }
}

TEST(IntegrationTest, LargeSentenceStressAcrossEngines) {
  // A longer randomized sentence; the language path and the plain-command
  // path must land in identical databases.
  workload::Generator gen(4242);
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 60,
                                          40, 0.25);
  Database via_commands;
  ASSERT_TRUE(ApplySentence(via_commands, commands).ok());
  Database via_lang;
  lang::Program program;
  for (const Command& cmd : commands) {
    if (std::holds_alternative<DefineRelationCmd>(cmd)) {
      const auto& c = std::get<DefineRelationCmd>(cmd);
      program.push_back(lang::DefineRelationStmt{c.name, c.type, c.schema});
    } else {
      const auto& c = std::get<ModifySnapshotCmd>(cmd);
      program.push_back(
          lang::ModifyStateStmt{c.name, lang::Expr::Const(c.state)});
    }
  }
  ASSERT_TRUE(lang::ExecProgram(program, via_lang).ok());
  ASSERT_EQ(via_commands.transaction_number(), via_lang.transaction_number());
  for (TransactionNumber txn = 0; txn <= via_commands.transaction_number();
       ++txn) {
    EXPECT_EQ(*via_commands.Rollback("r", txn), *via_lang.Rollback("r", txn));
  }
}

}  // namespace
}  // namespace ttra
