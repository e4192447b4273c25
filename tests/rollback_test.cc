#include <gtest/gtest.h>

#include "rollback/commands.h"
#include "rollback/database.h"
#include "rollback/relation.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Schema EmpSchema() {
  return *Schema::Make({{"name", ValueType::kString},
                        {"salary", ValueType::kInt}});
}

SnapshotState EmpState(std::vector<std::pair<std::string, int64_t>> rows) {
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size());
  for (auto& [name, salary] : rows) {
    tuples.push_back(Tuple{Value::String(name), Value::Int(salary)});
  }
  return *SnapshotState::Make(EmpSchema(), std::move(tuples));
}

HistoricalState EmpHistory(
    std::vector<std::tuple<std::string, int64_t, Interval>> rows) {
  std::vector<HistoricalTuple> tuples;
  for (auto& [name, salary, valid] : rows) {
    tuples.push_back(
        HistoricalTuple{Tuple{Value::String(name), Value::Int(salary)},
                        TemporalElement::Of({valid})});
  }
  return *HistoricalState::Make(EmpSchema(), std::move(tuples));
}

// --- RelationType helpers ----------------------------------------------------

TEST(RelationTypeTest, NamesRoundTrip) {
  for (RelationType t : {RelationType::kSnapshot, RelationType::kRollback,
                         RelationType::kHistorical, RelationType::kTemporal}) {
    auto parsed = ParseRelationType(RelationTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(ParseRelationType("bitemporal").ok());
}

TEST(RelationTypeTest, Classification) {
  EXPECT_TRUE(HoldsSnapshotStates(RelationType::kSnapshot));
  EXPECT_TRUE(HoldsSnapshotStates(RelationType::kRollback));
  EXPECT_FALSE(HoldsSnapshotStates(RelationType::kHistorical));
  EXPECT_FALSE(HoldsSnapshotStates(RelationType::kTemporal));
  EXPECT_FALSE(RetainsHistory(RelationType::kSnapshot));
  EXPECT_TRUE(RetainsHistory(RelationType::kRollback));
  EXPECT_FALSE(RetainsHistory(RelationType::kHistorical));
  EXPECT_TRUE(RetainsHistory(RelationType::kTemporal));
}

// --- Relation: modify_state dispatch (paper §3.5) -----------------------------

TEST(RelationTest, SnapshotRelationReplacesItsSingleState) {
  Relation r = Relation::Make(RelationType::kSnapshot, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"ed", 100}}), 2).ok());
  ASSERT_TRUE(r.SetState(EmpState({{"rick", 200}}), 3).ok());
  EXPECT_EQ(r.history_length(), 1u);  // always a single-element sequence
  auto current = r.SnapshotAt(3);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, EmpState({{"rick", 200}}));
}

TEST(RelationTest, RollbackRelationAppends) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"ed", 100}}), 2).ok());
  ASSERT_TRUE(r.SetState(EmpState({{"ed", 100}, {"rick", 200}}), 5).ok());
  ASSERT_TRUE(r.SetState(EmpState({{"rick", 200}}), 9).ok());
  EXPECT_EQ(r.history_length(), 3u);
  EXPECT_EQ(r.TxnAt(0), 2u);
  EXPECT_EQ(r.TxnAt(2), 9u);
}

TEST(RelationTest, FindStateInterpolates) {
  // FINDSTATE returns the state with the largest txn <= N (paper §3.3).
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"a", 1}}), 3).ok());
  ASSERT_TRUE(r.SetState(EmpState({{"b", 2}}), 7).ok());
  EXPECT_EQ(*r.SnapshotAt(3), EmpState({{"a", 1}}));
  EXPECT_EQ(*r.SnapshotAt(5), EmpState({{"a", 1}}));  // gap → interpolate
  EXPECT_EQ(*r.SnapshotAt(6), EmpState({{"a", 1}}));
  EXPECT_EQ(*r.SnapshotAt(7), EmpState({{"b", 2}}));
  EXPECT_EQ(*r.SnapshotAt(1000), EmpState({{"b", 2}}));
}

TEST(RelationTest, FindStateBeforeFirstTxnIsEmpty) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"a", 1}}), 5).ok());
  auto early = r.SnapshotAt(4);
  ASSERT_TRUE(early.ok());
  EXPECT_TRUE(early->empty());
  EXPECT_EQ(early->schema(), EmpSchema());  // typed empty state
}

TEST(RelationTest, EmptyRelationYieldsEmptyState) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  auto state = r.SnapshotAt(100);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->empty());
}

TEST(RelationTest, StateKindMismatchErrors) {
  Relation snap = Relation::Make(RelationType::kSnapshot, EmpSchema(), 1);
  EXPECT_EQ(snap.SetState(EmpHistory({}), 2).code(),
            ErrorCode::kTypeMismatch);
  EXPECT_EQ(snap.HistoricalAt(5).status().code(),
            ErrorCode::kInvalidRollback);
  Relation temp = Relation::Make(RelationType::kTemporal, EmpSchema(), 1);
  EXPECT_EQ(temp.SetState(EmpState({}), 2).code(), ErrorCode::kTypeMismatch);
  EXPECT_EQ(temp.SnapshotAt(5).status().code(), ErrorCode::kInvalidRollback);
}

TEST(RelationTest, SchemaMismatchOnSetState) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  SnapshotState wrong = *SnapshotState::Make(
      *Schema::Make({{"x", ValueType::kInt}}), {});
  EXPECT_EQ(r.SetState(wrong, 2).code(), ErrorCode::kSchemaMismatch);
}

TEST(RelationTest, TemporalRelationStoresHistoricalStates) {
  Relation r = Relation::Make(RelationType::kTemporal, EmpSchema(), 1);
  HistoricalState v1 = EmpHistory({{"ed", 100, Interval::Make(0, 10)}});
  HistoricalState v2 = EmpHistory({{"ed", 100, Interval::Make(0, 10)},
                                   {"ed", 150, Interval::Make(10, 20)}});
  ASSERT_TRUE(r.SetState(v1, 2).ok());
  ASSERT_TRUE(r.SetState(v2, 3).ok());
  EXPECT_EQ(r.history_length(), 2u);
  EXPECT_EQ(*r.HistoricalAt(2), v1);
  EXPECT_EQ(*r.HistoricalAt(3), v2);
}

TEST(RelationTest, SchemaEvolutionVersionsSchemes) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"a", 1}}), 2).ok());
  Schema wider = *Schema::Make({{"name", ValueType::kString},
                                {"salary", ValueType::kInt},
                                {"dept", ValueType::kString}});
  ASSERT_TRUE(r.SetSchema(wider, 3).ok());
  EXPECT_EQ(r.schema(), wider);
  EXPECT_EQ(r.SchemaAt(2), EmpSchema());
  EXPECT_EQ(r.SchemaAt(3), wider);
  // Old states keep the old scheme.
  EXPECT_EQ(r.SnapshotAt(2)->schema(), EmpSchema());
  // New states must conform to the new scheme.
  EXPECT_FALSE(r.SetState(EmpState({{"b", 2}}), 4).ok());
  SnapshotState wide_state = *SnapshotState::Make(
      wider, {Tuple{Value::String("b"), Value::Int(2),
                    Value::String("cs")}});
  EXPECT_TRUE(r.SetState(wide_state, 4).ok());
  EXPECT_EQ(*r.SnapshotAt(4), wide_state);
}

TEST(RelationTest, CloneIsDeep) {
  Relation r = Relation::Make(RelationType::kRollback, EmpSchema(), 1);
  ASSERT_TRUE(r.SetState(EmpState({{"a", 1}}), 2).ok());
  Relation copy = r;
  ASSERT_TRUE(copy.SetState(EmpState({{"b", 2}}), 3).ok());
  EXPECT_EQ(r.history_length(), 1u);
  EXPECT_EQ(copy.history_length(), 2u);
}

// --- Database: the command denotations (paper §3.5, §3.6) ---------------------

TEST(DatabaseTest, EmptyDatabaseMatchesPaperDefinition) {
  Database db;
  EXPECT_EQ(db.transaction_number(), 0u);  // P⟦C⟧ = C⟦C⟧(EMPTY, 0)
  EXPECT_EQ(db.Find("anything"), nullptr);  // all identifiers map to ⊥
  EXPECT_TRUE(db.RelationNames().empty());
}

TEST(DatabaseTest, DefineRelationBindsAndIncrements) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  EXPECT_EQ(db.transaction_number(), 1u);
  ASSERT_NE(db.Find("emp"), nullptr);
  EXPECT_EQ(db.Find("emp")->type(), RelationType::kRollback);
}

TEST(DatabaseTest, RedefineLeavesDatabaseUnchanged) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  Status status =
      db.DefineRelation("emp", RelationType::kSnapshot, EmpSchema());
  EXPECT_EQ(status.code(), ErrorCode::kAlreadyDefined);
  // The paper's `else d`: nothing changed, not even the txn counter.
  EXPECT_EQ(db.transaction_number(), 1u);
  EXPECT_EQ(db.Find("emp")->type(), RelationType::kRollback);
}

TEST(DatabaseTest, ModifyStateAssignsCommitTxn) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  ASSERT_TRUE(db.ModifyState("emp", EmpState({{"ed", 100}})).ok());
  EXPECT_EQ(db.transaction_number(), 2u);
  EXPECT_EQ(db.Find("emp")->TxnAt(0), 2u);  // state stamped with n+1
}

TEST(DatabaseTest, ModifyUndefinedRelationFailsUnchanged) {
  Database db;
  Status status = db.ModifyState("ghost", EmpState({}));
  EXPECT_EQ(status.code(), ErrorCode::kUnknownIdentifier);
  EXPECT_EQ(db.transaction_number(), 0u);
}

TEST(DatabaseTest, FailedModifyDoesNotBurnTxn) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kTemporal, EmpSchema()).ok());
  // Wrong state kind for a temporal relation.
  EXPECT_FALSE(db.ModifyState("emp", EmpState({})).ok());
  EXPECT_EQ(db.transaction_number(), 1u);
}

TEST(DatabaseTest, RollbackCurrentOnSnapshotAndRollback) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("s", RelationType::kSnapshot, EmpSchema()).ok());
  ASSERT_TRUE(
      db.DefineRelation("r", RelationType::kRollback, EmpSchema()).ok());
  ASSERT_TRUE(db.ModifyState("s", EmpState({{"a", 1}})).ok());
  ASSERT_TRUE(db.ModifyState("r", EmpState({{"b", 2}})).ok());
  // ρ(I, ∞) works for both types.
  EXPECT_EQ(*db.Rollback("s"), EmpState({{"a", 1}}));
  EXPECT_EQ(*db.Rollback("r"), EmpState({{"b", 2}}));
}

TEST(DatabaseTest, RollbackToPastRequiresRollbackRelation) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("s", RelationType::kSnapshot, EmpSchema()).ok());
  ASSERT_TRUE(db.ModifyState("s", EmpState({{"a", 1}})).ok());
  auto r = db.Rollback("s", 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidRollback);
}

TEST(DatabaseTest, RollbackRetrievesPastStates) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  ASSERT_TRUE(db.ModifyState("emp", EmpState({{"ed", 100}})).ok());  // txn 2
  ASSERT_TRUE(
      db.ModifyState("emp", EmpState({{"ed", 100}, {"rick", 200}})).ok());
  ASSERT_TRUE(db.ModifyState("emp", EmpState({{"rick", 250}})).ok());  // txn 4
  EXPECT_EQ(*db.Rollback("emp", 2), EmpState({{"ed", 100}}));
  EXPECT_EQ(*db.Rollback("emp", 3), EmpState({{"ed", 100}, {"rick", 200}}));
  EXPECT_EQ(*db.Rollback("emp", 4), EmpState({{"rick", 250}}));
  EXPECT_EQ(*db.Rollback("emp"), EmpState({{"rick", 250}}));
  EXPECT_TRUE(db.Rollback("emp", 1)->empty());  // before first modify
}

TEST(DatabaseTest, RollbackOfUndefinedRelationFails) {
  Database db;
  EXPECT_EQ(db.Rollback("ghost").status().code(),
            ErrorCode::kUnknownIdentifier);
}

TEST(DatabaseTest, HistoricalRollbackTypeRules) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("h", RelationType::kHistorical, EmpSchema()).ok());
  ASSERT_TRUE(
      db.DefineRelation("t", RelationType::kTemporal, EmpSchema()).ok());
  HistoricalState v = EmpHistory({{"ed", 100, Interval::Make(0, 10)}});
  ASSERT_TRUE(db.ModifyState("h", v).ok());
  ASSERT_TRUE(db.ModifyState("t", v).ok());
  EXPECT_EQ(*db.RollbackHistorical("h"), v);
  EXPECT_EQ(*db.RollbackHistorical("t"), v);
  // ρ̂ with a finite txn only on temporal relations.
  EXPECT_EQ(db.RollbackHistorical("h", 3).status().code(),
            ErrorCode::kInvalidRollback);
  EXPECT_TRUE(db.RollbackHistorical("t", 4).ok());
  // ρ on historical relations is invalid, and vice versa.
  EXPECT_EQ(db.Rollback("h").status().code(), ErrorCode::kInvalidRollback);
}

TEST(DatabaseTest, TemporalRollbackRetrievesPastHistories) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("t", RelationType::kTemporal, EmpSchema()).ok());
  HistoricalState v1 = EmpHistory({{"ed", 100, Interval::Make(0, 10)}});
  HistoricalState v2 = EmpHistory({{"ed", 100, Interval::Make(0, 10)},
                                   {"ed", 150, Interval::Make(10, 20)}});
  ASSERT_TRUE(db.ModifyState("t", v1).ok());  // txn 2
  ASSERT_TRUE(db.ModifyState("t", v2).ok());  // txn 3
  EXPECT_EQ(*db.RollbackHistorical("t", 2), v1);
  EXPECT_EQ(*db.RollbackHistorical("t", 3), v2);
  EXPECT_EQ(*db.RollbackHistorical("t"), v2);
}

TEST(DatabaseTest, DeleteRelationUnbinds) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  ASSERT_TRUE(db.DeleteRelation("emp").ok());
  EXPECT_EQ(db.transaction_number(), 2u);
  EXPECT_EQ(db.Find("emp"), nullptr);
  EXPECT_EQ(db.DeleteRelation("emp").code(), ErrorCode::kUnknownIdentifier);
  // The identifier can be rebound afterwards.
  EXPECT_TRUE(
      db.DefineRelation("emp", RelationType::kSnapshot, EmpSchema()).ok());
}

TEST(DatabaseTest, ModifySchemaIncrementsTxn) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  Schema wider = *Schema::Make({{"name", ValueType::kString},
                                {"salary", ValueType::kInt},
                                {"dept", ValueType::kString}});
  ASSERT_TRUE(db.ModifySchema("emp", wider).ok());
  EXPECT_EQ(db.transaction_number(), 2u);
  EXPECT_EQ(db.Find("emp")->schema(), wider);
}

TEST(DatabaseTest, CloneIsIndependent) {
  Database db;
  ASSERT_TRUE(
      db.DefineRelation("emp", RelationType::kRollback, EmpSchema()).ok());
  ASSERT_TRUE(db.ModifyState("emp", EmpState({{"a", 1}})).ok());
  Database copy = db;
  ASSERT_TRUE(copy.ModifyState("emp", EmpState({{"b", 2}})).ok());
  EXPECT_EQ(*db.Rollback("emp"), EmpState({{"a", 1}}));
  EXPECT_EQ(*copy.Rollback("emp"), EmpState({{"b", 2}}));
  EXPECT_EQ(db.transaction_number(), 2u);
  EXPECT_EQ(copy.transaction_number(), 3u);
}

// --- Command streams and invariants (experiment E4) ----------------------------

TEST(CommandsTest, ApplySentenceRunsInOrder) {
  std::vector<Command> sentence = {
      DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()},
      ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})},
      ModifySnapshotCmd{"emp", EmpState({{"ed", 150}})},
  };
  auto db = EvalSentence(sentence);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->transaction_number(), 3u);
  EXPECT_EQ(*db->Rollback("emp"), EmpState({{"ed", 150}}));
  EXPECT_EQ(*db->Rollback("emp", 2), EmpState({{"ed", 100}}));
}

TEST(CommandsTest, FailingCommandContinuesSequence) {
  // The denotations have no error exit: C⟦C1, C2⟧ applies C2 to whatever
  // C1 produced, and a failing command produces the unchanged database.
  std::vector<Command> sentence = {
      DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()},
      ModifySnapshotCmd{"ghost", EmpState({})},  // fails, db unchanged
      ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})},
  };
  Database db;
  Status first_error = ApplySentence(db, sentence);
  EXPECT_EQ(first_error.code(), ErrorCode::kUnknownIdentifier);
  EXPECT_EQ(db.transaction_number(), 2u);
  EXPECT_EQ(*db.Rollback("emp"), EmpState({{"ed", 100}}));
}

class InvariantTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, InvariantTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST_P(InvariantTest, RollbackTxnsStrictlyIncreaseAndAppendOnly) {
  workload::Generator gen(GetParam());
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback,
                                          /*updates=*/40, /*state_size=*/20,
                                          /*change_fraction=*/0.3);
  Database db;
  std::vector<SnapshotState> recorded;
  std::vector<TransactionNumber> txns;
  for (const Command& cmd : commands) {
    ASSERT_TRUE(ApplyCommand(db, cmd).ok());
    if (std::holds_alternative<ModifySnapshotCmd>(cmd)) {
      recorded.push_back(std::get<ModifySnapshotCmd>(cmd).state);
      txns.push_back(db.transaction_number());
    }
  }
  const Relation* r = db.Find("r");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->history_length(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    // Strictly increasing transaction numbers (paper §3.2).
    if (i > 0) {
      EXPECT_LT(r->TxnAt(i - 1), r->TxnAt(i));
    }
    EXPECT_EQ(r->TxnAt(i), txns[i]);
    // Append-only: every past state is still retrievable, bit-for-bit.
    EXPECT_EQ(*db.Rollback("r", txns[i]), recorded[i]);
  }
}

TEST_P(InvariantTest, TemporalRelationSameInvariants) {
  // The identical construction works over historical states (§4, E6).
  workload::Generator gen(GetParam() + 99);
  auto commands = gen.RandomCommandStream("t", RelationType::kTemporal,
                                          /*updates=*/25, /*state_size=*/12,
                                          /*change_fraction=*/0.3);
  Database db;
  std::vector<HistoricalState> recorded;
  std::vector<TransactionNumber> txns;
  for (const Command& cmd : commands) {
    ASSERT_TRUE(ApplyCommand(db, cmd).ok());
    if (std::holds_alternative<ModifyHistoricalCmd>(cmd)) {
      recorded.push_back(std::get<ModifyHistoricalCmd>(cmd).state);
      txns.push_back(db.transaction_number());
    }
  }
  const Relation* t = db.Find("t");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->history_length(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(*db.RollbackHistorical("t", txns[i]), recorded[i]);
  }
}

TEST_P(InvariantTest, SnapshotRelationKeepsOnlyCurrent) {
  workload::Generator gen(GetParam() + 222);
  auto commands = gen.RandomCommandStream("s", RelationType::kSnapshot,
                                          /*updates=*/20, /*state_size=*/15,
                                          /*change_fraction=*/0.4);
  Database db;
  SnapshotState last;
  for (const Command& cmd : commands) {
    ASSERT_TRUE(ApplyCommand(db, cmd).ok());
    if (std::holds_alternative<ModifySnapshotCmd>(cmd)) {
      last = std::get<ModifySnapshotCmd>(cmd).state;
    }
  }
  EXPECT_EQ(db.Find("s")->history_length(), 1u);
  EXPECT_EQ(*db.Rollback("s"), last);
}

}  // namespace
}  // namespace ttra
