// Unit tests for the abstract interpreter (lang/absint.h): the interval
// lattice, the per-statement transfer function, seeding from a live
// database, and the provability queries the optimizer and the W006..W009
// warnings are built on. Facts seeded from a database share its relations'
// state logs; FactsEquivalence checks them against the full transaction
// lists they replace.

#include "lang/absint.h"

#include <gtest/gtest.h>

#include "lang/evaluator.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "optimizer/rewriter.h"
#include "workload/generator.h"

namespace ttra::lang {
namespace {

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? *program : Program{};
}

std::vector<AbsState> InterpretSource(const std::string& source,
                                      const std::vector<bool>* errors =
                                          nullptr) {
  const Program program = MustParse(source);
  return Interpret(program, InitialAbsState(Catalog(), 0), errors);
}

// --- TxnInterval lattice -----------------------------------------------------

TEST(TxnInterval, JoinIsHull) {
  const TxnInterval a = TxnInterval::Range(2, 5);
  const TxnInterval b = TxnInterval::Range(4, 9);
  EXPECT_EQ(a.Join(b), TxnInterval::Range(2, 9));
  EXPECT_EQ(b.Join(a), TxnInterval::Range(2, 9));
  EXPECT_EQ(a.Join(TxnInterval::AtLeast(3)), TxnInterval::AtLeast(2));
  EXPECT_EQ(a.Join(a), a);
}

TEST(TxnInterval, PlusShiftsBounds) {
  EXPECT_EQ(TxnInterval::Exact(3).Plus(1, 1), TxnInterval::Exact(4));
  EXPECT_EQ(TxnInterval::Range(2, 5).Plus(0, 1), TxnInterval::Range(2, 6));
  EXPECT_EQ(TxnInterval::AtLeast(2).Plus(1, 1), TxnInterval::AtLeast(3));
}

TEST(TxnInterval, ProvabilityNeedsTheRightBound) {
  const TxnInterval exact = TxnInterval::Exact(5);
  EXPECT_TRUE(exact.ProvablyLt(6));
  EXPECT_TRUE(exact.ProvablyGt(4));
  EXPECT_TRUE(exact.ProvablyLe(5));
  EXPECT_TRUE(exact.ProvablyGe(5));
  EXPECT_FALSE(exact.ProvablyLt(5));
  EXPECT_FALSE(exact.ProvablyGt(5));

  const TxnInterval open = TxnInterval::AtLeast(3);
  EXPECT_FALSE(open.ProvablyLt(100));  // no upper bound, nothing < provable
  EXPECT_FALSE(open.ProvablyLe(100));
  EXPECT_TRUE(open.ProvablyGt(2));
  EXPECT_TRUE(open.ProvablyGe(3));
}

TEST(TxnInterval, ToStringForms) {
  EXPECT_EQ(TxnInterval::Exact(3).ToString(), "3");
  EXPECT_EQ(TxnInterval::Range(3, 7).ToString(), "[3,7]");
  EXPECT_EQ(TxnInterval::AtLeast(3).ToString(), "[3,inf)");
}

// --- Transfer function -------------------------------------------------------

TEST(Interpret, CountsCommitsExactly) {
  const auto states = InterpretSource(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1)});
    show(rho(r, inf));
    modify_state(r, (n: int) {(2)});
  )");
  ASSERT_EQ(states.size(), 5u);
  EXPECT_EQ(states[0].counter, TxnInterval::Exact(0));
  EXPECT_EQ(states[1].counter, TxnInterval::Exact(1));  // after define
  EXPECT_EQ(states[2].counter, TxnInterval::Exact(2));  // after modify
  EXPECT_EQ(states[3].counter, TxnInterval::Exact(2));  // show commits nothing
  EXPECT_EQ(states[4].counter, TxnInterval::Exact(3));
}

TEST(Interpret, RollbackRelationsAppendStates) {
  const auto states = InterpretSource(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1)});
    modify_state(r, (n: int) {(2)});
  )");
  const AbsRelation* r = states.back().Find("r");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->states_complete);
  ASSERT_EQ(r->state_txns.size(), 2u);
  EXPECT_EQ(r->state_txns[0], TxnInterval::Exact(2));
  EXPECT_EQ(r->state_txns[1], TxnInterval::Exact(3));
  EXPECT_EQ(r->defined_at, TxnInterval::Exact(1));
}

TEST(Interpret, SnapshotRelationsReplaceTheirState) {
  const auto states = InterpretSource(R"(
    define_relation(s, snapshot, (n: int));
    modify_state(s, (n: int) {(1)});
    modify_state(s, (n: int) {(2)});
  )");
  const AbsRelation* s = states.back().Find("s");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->state_txns.size(), 1u);
  EXPECT_EQ(s->state_txns[0], TxnInterval::Exact(3));
}

TEST(Interpret, TemporalRelationsAppendLikeRollback) {
  const auto states = InterpretSource(R"(
    define_relation(t, temporal, (n: int));
    modify_state(t, (n: int) {(1) @ [0, 10)});
    modify_state(t, hrho(t, inf) union (n: int) {(2) @ [20, 30)});
  )");
  const AbsRelation* t = states.back().Find("t");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->state_txns.size(), 2u);
  EXPECT_EQ(t->state_txns[1], TxnInterval::Exact(3));
}

TEST(Interpret, DeleteErasesAndSchemaChangeAppendsHistory) {
  const auto states = InterpretSource(R"(
    define_relation(e, rollback, (a: int));
    modify_schema(e, (a: int, b: int));
    delete_relation(e);
  )");
  const AbsRelation* mid = states[1].Find("e");
  ASSERT_NE(mid, nullptr);
  ASSERT_EQ(mid->schema_history.size(), 1u);
  const AbsRelation* evolved = states[2].Find("e");
  ASSERT_NE(evolved, nullptr);
  ASSERT_EQ(evolved->schema_history.size(), 2u);
  EXPECT_EQ(evolved->schema_history[1].second, TxnInterval::Exact(2));
  EXPECT_EQ(states.back().Find("e"), nullptr);
}

TEST(Interpret, RejectedStatementsHaveNoEffect) {
  // A failing command leaves the database — including the counter —
  // unchanged, so a statically-rejected statement is abstractly a no-op.
  const Program program = MustParse(R"(
    define_relation(r, rollback, (n: int));
    modify_state(ghost, (n: int) {(1)});
    modify_state(r, (n: int) {(2)});
  )");
  const std::vector<bool> errors = {false, true, false};
  const auto states = Interpret(program, InitialAbsState(Catalog(), 0),
                                &errors);
  EXPECT_EQ(states[2].counter, TxnInterval::Exact(1));
  EXPECT_EQ(states[3].counter, TxnInterval::Exact(2));
  const AbsRelation* r = states.back().Find("r");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->state_txns.size(), 1u);
  EXPECT_EQ(r->state_txns[0], TxnInterval::Exact(2));
}

TEST(Interpret, UnknownInitialCounterStaysAnInterval) {
  const Program program = MustParse(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1)});
  )");
  const auto states =
      Interpret(program, InitialAbsState(Catalog(), std::nullopt), nullptr);
  EXPECT_EQ(states[0].counter, TxnInterval::AtLeast(0));
  EXPECT_EQ(states[2].counter, TxnInterval::AtLeast(2));
  const AbsRelation* r = states.back().Find("r");
  ASSERT_NE(r, nullptr);
  // The state's transaction is only bounded from below — and the relation
  // can still never be provably empty at any probe above the bound.
  EXPECT_FALSE(r->ProvablyEmptyAt(2));
  EXPECT_TRUE(r->ProvablyEmptyAt(0));
}

TEST(Interpret, PreexistingCatalogRelationsHaveUnknownHistory) {
  Database db;
  ASSERT_TRUE(db.DefineRelation("old", RelationType::kRollback,
                                *Schema::Make({{"n", ValueType::kInt}}))
                  .ok());
  const Catalog catalog(db);
  const AbsState initial = InitialAbsState(catalog, db.transaction_number());
  const AbsRelation* old = initial.Find("old");
  ASSERT_NE(old, nullptr);
  EXPECT_FALSE(old->states_complete);
  EXPECT_FALSE(old->ProvablyEmptyAt(0));  // history invisible: no claims
  EXPECT_EQ(old->ProvableSchemaAt(0), nullptr);
  EXPECT_EQ(old->ProvableObservedSchemaAt(std::nullopt), nullptr);
}

// --- Seeding from a live database -------------------------------------------

TEST(AbsStateFromDatabase, IsExact) {
  Database db;
  Status status = ttra::lang::Run(R"(
    define_relation(r, rollback, (a: int));
    modify_state(r, (a: int) {(1)});
    modify_schema(r, (a: int, b: int));
    modify_state(r, (a: int, b: int) {(1, 2)});
  )",
                      db);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const AbsState state = AbsStateFromDatabase(db);
  EXPECT_EQ(state.counter, TxnInterval::Exact(4));
  const AbsRelation* r = state.Find("r");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->states_complete);
  ASSERT_EQ(r->StateCount(), 2u);
  EXPECT_EQ(r->StateTxnAt(0), TxnInterval::Exact(2));
  EXPECT_EQ(r->StateTxnAt(1), TxnInterval::Exact(4));
  ASSERT_EQ(r->schema_history.size(), 2u);
  EXPECT_EQ(r->schema_history[1].second, TxnInterval::Exact(3));
}

// --- Shared facts vs. full transaction lists -----------------------------------

/// The facts of a live database with every recorded state transaction
/// copied into state_txns — how AbsStateFromDatabase represented them
/// before it shared the database's state logs. The reference here.
AbsState FullListFacts(const Database& db) {
  AbsState state;
  state.counter = TxnInterval::Exact(db.transaction_number());
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = db.Find(name);
    AbsRelation r;
    r.type = rel->type();
    r.schema = rel->schema();
    for (const auto& [schema, txn] : rel->schema_history()) {
      r.schema_history.emplace_back(schema, TxnInterval::Exact(txn));
    }
    r.defined_at = r.schema_history.front().second;
    for (size_t i = 0; i < rel->history_length(); ++i) {
      r.state_txns.push_back(TxnInterval::Exact(rel->TxnAt(i)));
    }
    r.states_complete = true;
    state.relations.emplace(name, std::move(r));
  }
  return state;
}

void ExpectSameSchema(const Schema* got, const Schema* want,
                      const std::string& what) {
  ASSERT_EQ(got == nullptr, want == nullptr) << what;
  if (got != nullptr) {
    EXPECT_EQ(*got, *want) << what;
  }
}

void ExpectSameFacts(const AbsState& got, const AbsState& want,
                     TransactionNumber max_probe) {
  ASSERT_EQ(got.counter, want.counter);
  ASSERT_EQ(got.relations.size(), want.relations.size());
  for (const auto& [name, w] : want.relations) {
    SCOPED_TRACE(name);
    const AbsRelation* g = got.Find(name);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->states_complete, w.states_complete);
    ASSERT_EQ(g->StateCount(), w.StateCount());
    for (size_t i = 0; i < w.StateCount(); ++i) {
      EXPECT_EQ(g->StateTxnAt(i), w.StateTxnAt(i)) << "state " << i;
    }
    EXPECT_EQ(g->LastStateTxn(), w.LastStateTxn());
    for (TransactionNumber txn = 0; txn <= max_probe; ++txn) {
      const std::string at = "txn " + std::to_string(txn);
      EXPECT_EQ(g->ProvablyEmptyAt(txn), w.ProvablyEmptyAt(txn)) << at;
      ExpectSameSchema(g->ProvableObservedSchemaAt(txn),
                       w.ProvableObservedSchemaAt(txn), at);
      ExpectSameSchema(g->ProvableSchemaAt(txn), w.ProvableSchemaAt(txn), at);
    }
    ExpectSameSchema(g->ProvableObservedSchemaAt(std::nullopt),
                     w.ProvableObservedSchemaAt(std::nullopt), "inf");
  }
}

std::string OptimizedText(const Program& program, const Catalog& catalog,
                          const AbsState& facts) {
  std::string out;
  for (const Stmt& stmt : program) {
    if (const Expr* expr = StmtExpr(stmt)) {
      out += FormatExprTree(optimizer::OptimizeWithFacts(*expr, catalog,
                                                         facts)) +
             "\n";
    }
  }
  return out;
}

class FactsEquivalence : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FactsEquivalence,
                         ::testing::Range<uint64_t>(0, 8));

TEST_P(FactsEquivalence, SharedLogsAnswerLikeFullLists) {
  workload::Generator gen(GetParam() + 4100);
  Rng& rng = gen.rng();
  const Schema narrow = *Schema::Make({{"a", ValueType::kInt}});
  const Schema wide =
      *Schema::Make({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Database db;
  // One relation of each type, a rollback relation that never records a
  // state, and one that is defined and deleted again.
  ASSERT_TRUE(db.DefineRelation("r", RelationType::kRollback, narrow).ok());
  ASSERT_TRUE(db.DefineRelation("t", RelationType::kTemporal, narrow).ok());
  ASSERT_TRUE(db.DefineRelation("s", RelationType::kSnapshot, narrow).ok());
  ASSERT_TRUE(db.DefineRelation("h", RelationType::kHistorical, narrow).ok());
  ASSERT_TRUE(db.DefineRelation("e", RelationType::kRollback, narrow).ok());
  ASSERT_TRUE(db.DefineRelation("gone", RelationType::kRollback, narrow).ok());
  ASSERT_TRUE(db.DeleteRelation("gone").ok());
  const std::vector<std::string> names = {"r", "t", "s", "h"};
  const size_t steps = 20 + rng.Uniform(120);
  for (size_t step = 0; step < steps; ++step) {
    const std::string& name = names[rng.Uniform(names.size())];
    const Relation* rel = db.Find(name);
    if (rng.Uniform(100) < 12) {
      ASSERT_TRUE(
          db.ModifySchema(name, rel->schema() == narrow ? wide : narrow)
              .ok());
    } else if (HoldsSnapshotStates(rel->type())) {
      ASSERT_TRUE(db.ModifyState(name, gen.RandomState(rel->schema(), 3)).ok());
    } else {
      ASSERT_TRUE(
          db.ModifyState(name, gen.RandomHistoricalState(rel->schema(), 3))
              .ok());
    }
  }
  const TransactionNumber now = db.transaction_number();
  const AbsState shared = AbsStateFromDatabase(db);
  const AbsState full = FullListFacts(db);
  ExpectSameFacts(shared, full, now + 2);

  // The optimizer's output is the same for rollbacks anywhere in time,
  // alone and combined, on every relation.
  std::string source;
  for (TransactionNumber txn = 0; txn <= now + 2; ++txn) {
    const std::string n = std::to_string(txn);
    const std::string m = std::to_string(rng.Uniform(now + 3));
    source += "show(rho(r, " + n + "));\nshow(hrho(t, " + n + "));\n";
    source += "show(rho(e, " + n + "));\nshow(rho(s, " + n + "));\n";
    source += "show(rho(r, " + n + ") union rho(r, " + m + "));\n";
    source += "show(hrho(t, " + n + ") minus hrho(t, " + m + "));\n";
  }
  source += "show(rho(r, inf));\nshow(hrho(h, inf));\n";
  const Program probes = MustParse(source);
  const Catalog catalog(db);
  EXPECT_EQ(OptimizedText(probes, catalog, shared),
            OptimizedText(probes, catalog, full));

  // Facts after the program's own commits on top of the seeded ones.
  const Program program = MustParse(R"(
    modify_state(r, rho(r, inf));
    modify_state(s, rho(s, inf));
    modify_state(e, rho(e, inf));
    modify_state(t, hrho(t, inf));
  )");
  const auto from_shared = Interpret(program, shared, nullptr);
  const auto from_full = Interpret(program, full, nullptr);
  ASSERT_EQ(from_shared.size(), from_full.size());
  for (size_t i = 0; i < from_full.size(); ++i) {
    SCOPED_TRACE("program point " + std::to_string(i));
    ExpectSameFacts(from_shared[i], from_full[i], now + 6);
  }
  EXPECT_EQ(OptimizedText(probes, catalog, from_shared.back()),
            OptimizedText(probes, catalog, from_full.back()));
}

// --- Provability queries -----------------------------------------------------

TEST(Provability, EmptinessAndSchemaResolution) {
  const auto states = InterpretSource(R"(
    define_relation(e, rollback, (a: int));
    modify_state(e, (a: int) {(1)});
    modify_schema(e, (a: int, b: int));
    modify_state(e, (a: int, b: int) {(1, 2)});
  )");
  const AbsRelation* e = states.back().Find("e");
  ASSERT_NE(e, nullptr);
  // States recorded at 2 and 4; schemas installed at 1 and 3.
  EXPECT_TRUE(e->ProvablyEmptyAt(0));
  EXPECT_TRUE(e->ProvablyEmptyAt(1));
  EXPECT_FALSE(e->ProvablyEmptyAt(2));

  const Schema old_schema = e->schema_history[0].first;
  ASSERT_NE(e->ProvableSchemaAt(2), nullptr);
  EXPECT_EQ(*e->ProvableSchemaAt(2), old_schema);
  ASSERT_NE(e->ProvableSchemaAt(3), nullptr);
  EXPECT_EQ(*e->ProvableSchemaAt(3), e->schema);
  // Before the first install, SchemaAt clamps to the define-time scheme.
  EXPECT_EQ(*e->ProvableSchemaAt(0), old_schema);
}

TEST(Provability, ObservedSchemaTracksTheStateNotTheProbe) {
  const auto states = InterpretSource(R"(
    define_relation(e, rollback, (a: int));
    modify_state(e, (a: int) {(1)});
    modify_schema(e, (a: int, b: int));
    modify_state(e, (a: int, b: int) {(1, 2)});
  )");
  const AbsRelation* e = states.back().Find("e");
  ASSERT_NE(e, nullptr);
  const Schema old_schema = e->schema_history[0].first;
  // A probe at 3 lands between the old-scheme state (txn 2) and the new
  // one (txn 4): FINDSTATE observes the txn-2 state, recorded under the
  // old scheme, even though the probe's own scheme epoch is the new one.
  ASSERT_NE(e->ProvableObservedSchemaAt(3), nullptr);
  EXPECT_EQ(*e->ProvableObservedSchemaAt(3), old_schema);
  ASSERT_NE(e->ProvableObservedSchemaAt(std::nullopt), nullptr);
  EXPECT_EQ(*e->ProvableObservedSchemaAt(std::nullopt), e->schema);
  // A probe before any state observes the empty state under the scheme
  // current at the probe.
  ASSERT_NE(e->ProvableObservedSchemaAt(0), nullptr);
  EXPECT_EQ(*e->ProvableObservedSchemaAt(0), old_schema);
}

TEST(Provability, NeverEvolvedRelationObservesItsOnlySchema) {
  const auto states = InterpretSource(R"(
    define_relation(r, rollback, (n: int));
    modify_state(r, (n: int) {(1)});
  )");
  const AbsRelation* r = states.back().Find("r");
  ASSERT_NE(r, nullptr);
  for (const auto probe :
       {std::optional<TransactionNumber>(0),
        std::optional<TransactionNumber>(100),
        std::optional<TransactionNumber>()}) {
    ASSERT_NE(r->ProvableObservedSchemaAt(probe), nullptr);
    EXPECT_EQ(*r->ProvableObservedSchemaAt(probe), r->schema);
  }
}

}  // namespace
}  // namespace ttra::lang
