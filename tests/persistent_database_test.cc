// Version isolation of the persistent Database (DESIGN.md §4). Copying a
// database is O(#relations): copies share every relation, and a relation's
// state log shares its recorded history through immutable chunks. These
// tests check that no version ever sees what another version does — byte
// for byte, for every relation type — that
// FINDSTATE is exact around chunk boundaries, and that randomized forks,
// commands and drops agree with a deep-copy reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <variant>

#include "historical/hoperators.h"
#include "rollback/commands.h"
#include "rollback/database.h"
#include "rollback/persistence.h"
#include "snapshot/operators.h"
#include "storage/state_log.h"
#include "workload/generator.h"

namespace ttra {
namespace {

constexpr size_t kChunk = kStateLogChunkSize;

Schema Narrow() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

Schema Wide() {
  return *Schema::Make({{"id", ValueType::kInt},
                        {"v", ValueType::kInt},
                        {"w", ValueType::kString}});
}

using StateValue = std::variant<SnapshotState, HistoricalState>;

/// A deterministic state of the kind `type` holds, over `schema`.
StateValue MakeState(RelationType type, const Schema& schema, uint64_t seed) {
  workload::Generator gen(seed);
  if (HoldsSnapshotStates(type)) return gen.RandomState(schema, 4);
  return gen.RandomHistoricalState(schema, 4);
}

Status Modify(Database& db, const std::string& name, const StateValue& state) {
  return std::visit([&](const auto& s) { return db.ModifyState(name, s); },
                    state);
}

Command ModifyCommand(const std::string& name, const StateValue& state) {
  if (const auto* s = std::get_if<SnapshotState>(&state)) {
    return ModifySnapshotCmd{name, *s};
  }
  return ModifyHistoricalCmd{name, std::get<HistoricalState>(state)};
}

/// FINDSTATE on the relation itself (any type), as a comparable value.
StateValue StateAt(const Relation& relation, TransactionNumber txn) {
  if (HoldsSnapshotStates(relation.type())) return *relation.SnapshotAt(txn);
  return *relation.HistoricalAt(txn);
}

// --- Version isolation, per relation type ---------------------------------------

class PersistentDatabaseTest : public ::testing::TestWithParam<RelationType> {
 protected:
  RelationType type() const { return GetParam(); }

  /// "r" of the parameter type with `states` states (so a retaining
  /// relation crosses chunk boundaries), plus a rollback relation "side".
  Database Preloaded(size_t states) const {
    Database db;
    EXPECT_TRUE(db.DefineRelation("r", type(), Narrow()).ok());
    EXPECT_TRUE(
        db.DefineRelation("side", RelationType::kRollback, Narrow()).ok());
    for (size_t i = 0; i < states; ++i) {
      EXPECT_TRUE(Modify(db, "r", MakeState(type(), Narrow(), i)).ok());
    }
    for (uint64_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(
          Modify(db, "side", MakeState(RelationType::kRollback, Narrow(), i))
              .ok());
    }
    return db;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Types, PersistentDatabaseTest,
    ::testing::Values(RelationType::kSnapshot, RelationType::kRollback,
                      RelationType::kHistorical, RelationType::kTemporal),
    [](const auto& info) {
      return std::string(RelationTypeName(info.param));
    });

TEST_P(PersistentDatabaseTest, OldCopyUnchangedByEveryCommand) {
  Database db = Preloaded(kChunk + 3);
  // Each step runs on a fresh copy of the previous step's result; the
  // copy it was taken from must encode exactly as before.
  const std::vector<std::pair<std::string, std::function<Status(Database&)>>>
      steps = {
          {"modify_state",
           [&](Database& d) {
             return Modify(d, "r", MakeState(type(), Narrow(), 100));
           }},
          {"modify_state twice (the second write is in place)",
           [&](Database& d) {
             TTRA_RETURN_IF_ERROR(
                 Modify(d, "r", MakeState(type(), Narrow(), 101)));
             return Modify(d, "r", MakeState(type(), Narrow(), 102));
           }},
          {"modify_schema",
           [&](Database& d) { return d.ModifySchema("r", Wide()); }},
          {"modify_state under the new scheme",
           [&](Database& d) {
             return Modify(d, "r", MakeState(type(), Wide(), 103));
           }},
          {"delete_relation",
           [&](Database& d) { return d.DeleteRelation("side"); }},
      };
  for (const auto& [what, step] : steps) {
    SCOPED_TRACE(what);
    const Database old = db;
    const std::string before = EncodeDatabase(old);
    Database next = old;
    ASSERT_TRUE(step(next).ok());
    EXPECT_EQ(EncodeDatabase(old), before);
    EXPECT_NE(EncodeDatabase(next), before);
    db = std::move(next);
  }

  // A failed atomic sentence: its scratch copy writes "r" and then fails;
  // dropping the scratch leaves both the database and any older copy as
  // they were.
  const Database old = db;
  const std::string before = EncodeDatabase(db);
  {
    Database scratch = db;
    const std::vector<Command> sentence = {
        ModifyCommand("r", MakeState(type(), Wide(), 104)),
        ModifyCommand("missing", MakeState(type(), Wide(), 105))};
    ASSERT_FALSE(ApplySentence(scratch, sentence).ok());
    EXPECT_NE(EncodeDatabase(scratch), before);
  }
  EXPECT_EQ(EncodeDatabase(db), before);
  EXPECT_EQ(EncodeDatabase(old), before);
  // The database still appends normally after the abort.
  ASSERT_TRUE(Modify(db, "r", MakeState(type(), Wide(), 106)).ok());
  EXPECT_EQ(EncodeDatabase(old), before);
}

TEST_P(PersistentDatabaseTest, TwoCopiesDivergeAfterAppends) {
  const Database base = Preloaded(kChunk - 2);
  const std::string base_bytes = EncodeDatabase(base);
  const TransactionNumber base_txn = base.transaction_number();
  Database a = base;
  Database b = base;
  // Enough appends on each side to seal chunks independently.
  const size_t appends = kChunk + 5;
  for (size_t i = 0; i < appends; ++i) {
    ASSERT_TRUE(Modify(a, "r", MakeState(type(), Narrow(), 1000 + i)).ok());
    ASSERT_TRUE(Modify(b, "r", MakeState(type(), Narrow(), 5000 + i)).ok());
  }
  EXPECT_EQ(EncodeDatabase(base), base_bytes);
  ASSERT_EQ(a.transaction_number(), base_txn + appends);
  ASSERT_EQ(b.transaction_number(), base_txn + appends);

  const Relation& ra = *a.Find("r");
  const Relation& rb = *b.Find("r");
  const Relation& r0 = *base.Find("r");
  const size_t shared = r0.history_length();
  const size_t expected_length =
      RetainsHistory(type()) ? shared + appends : 1;
  EXPECT_EQ(ra.history_length(), expected_length);
  EXPECT_EQ(rb.history_length(), expected_length);
  // The common prefix reads the same in all three versions (a relation
  // that keeps one state has replaced it in both copies).
  for (TransactionNumber txn = 0; txn <= base_txn && RetainsHistory(type());
       ++txn) {
    EXPECT_EQ(StateAt(ra, txn), StateAt(r0, txn)) << "txn " << txn;
    EXPECT_EQ(StateAt(rb, txn), StateAt(r0, txn)) << "txn " << txn;
  }
  // After it, each version sees only its own appends.
  for (size_t i = RetainsHistory(type()) ? 0 : appends - 1; i < appends;
       ++i) {
    const TransactionNumber txn = base_txn + 1 + i;
    EXPECT_EQ(StateAt(ra, txn), MakeState(type(), Narrow(), 1000 + i));
    EXPECT_EQ(StateAt(rb, txn), MakeState(type(), Narrow(), 5000 + i));
  }
}

// --- FINDSTATE around chunk boundaries ------------------------------------------

TEST(ChunkBoundaryTest, FindStateIsExactAtEverySizeAroundTheChunk) {
  // Entry i holds states[i] at txn 10(i+1), so every probe between two
  // entries has a well-defined floor. A copy of the log is kept at each
  // size around a chunk and a group boundary (kChunk² entries); the
  // original keeps appending past all of them.
  const std::vector<size_t> sizes = {
      kChunk - 1,          kChunk,          kChunk + 1,
      2 * kChunk - 1,      2 * kChunk,      2 * kChunk + 1,
      kChunk * kChunk - 1, kChunk * kChunk, kChunk * kChunk + 1};
  const size_t total = sizes.back() + 1;
  workload::Generator gen(7);
  std::vector<SnapshotState> states = {gen.RandomState(Narrow(), 6)};
  for (size_t i = 1; i < total; ++i) {
    states.push_back(gen.MutateState(states.back(), 0.3));
  }
  StateLog<SnapshotState> log;
  std::map<size_t, StateLog<SnapshotState>> versions;
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(log.Append(states[i], 10 * (i + 1)).ok());
    if (std::find(sizes.begin(), sizes.end(), i + 1) != sizes.end()) {
      versions.emplace(i + 1, log);
    }
  }
  for (const auto& [size, version] : versions) {
    SCOPED_TRACE("size " + std::to_string(size));
    ASSERT_EQ(version.size(), size);
    for (size_t i = 0; i < size; ++i) {
      ASSERT_EQ(version.TxnAt(i), 10 * (i + 1));
    }
    // Probe just before, at and after the entries on either side of every
    // chunk and group boundary, the ends, and a stride through the rest.
    std::vector<TransactionNumber> probes = {0, UINT64_MAX};
    for (size_t i = 0; i <= size + 1; ++i) {
      const size_t in_chunk = i % kChunk;
      if (in_chunk <= 1 || in_chunk == kChunk - 1 || i + 2 >= size ||
          i % 97 == 0) {
        for (TransactionNumber txn : {10 * i + 9, 10 * i + 10, 10 * i + 11}) {
          probes.push_back(txn);
        }
      }
    }
    for (TransactionNumber txn : probes) {
      const size_t count = std::min<size_t>(txn / 10, size);
      ASSERT_EQ(version.CountAtOrBefore(txn), count) << "txn " << txn;
      auto state = version.StateAt(txn);
      if (count == 0) {
        ASSERT_EQ(state, nullptr) << "txn " << txn;
      } else {
        ASSERT_NE(state, nullptr) << "txn " << txn;
        ASSERT_EQ(*state, states[count - 1]) << "txn " << txn;
      }
    }
  }
}

// --- Randomized differential run against a deep-copy model ----------------------

/// The reference: a database version as plain values, copied deeply.
struct ModelRelation {
  RelationType type = RelationType::kSnapshot;
  std::vector<std::pair<Schema, TransactionNumber>> schemas;
  std::vector<std::pair<StateValue, TransactionNumber>> states;
};

struct Model {
  TransactionNumber txn = 0;
  std::map<std::string, ModelRelation> relations;
};

void ExpectMatches(const Database& db, const Model& model, bool deep) {
  ASSERT_EQ(db.transaction_number(), model.txn);
  std::vector<std::string> names;
  for (const auto& [name, relation] : model.relations) names.push_back(name);
  ASSERT_EQ(db.RelationNames(), names);
  for (const auto& [name, expected] : model.relations) {
    SCOPED_TRACE(name);
    const Relation* relation = db.Find(name);
    ASSERT_NE(relation, nullptr);
    ASSERT_EQ(relation->type(), expected.type);
    ASSERT_EQ(relation->schema_history(), expected.schemas);
    ASSERT_EQ(relation->history_length(), expected.states.size());
    if (expected.states.empty()) continue;
    const size_t first = deep ? 0 : expected.states.size() - 1;
    for (size_t i = first; i < expected.states.size(); ++i) {
      const auto& [state, txn] = expected.states[i];
      ASSERT_EQ(relation->TxnAt(i), txn);
      ASSERT_EQ(StateAt(*relation, txn), state) << "state " << i;
    }
  }
}

class PersistentDatabaseModelTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentDatabaseModelTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(PersistentDatabaseModelTest, ForksCommandsAndDropsAgreeWithModel) {
  workload::Generator gen(GetParam() * 7919);
  Rng& rng = gen.rng();
  std::vector<std::pair<Database, Model>> versions;
  versions.emplace_back(Database(), Model());
  const std::vector<std::string> names = {"a", "b", "c"};
  const std::vector<RelationType> types = {
      RelationType::kSnapshot, RelationType::kRollback,
      RelationType::kHistorical, RelationType::kTemporal};
  uint64_t seed = 0;

  for (int step = 0; step < 600; ++step) {
    const size_t pick = rng.Uniform(versions.size());
    const uint64_t op = rng.Uniform(100);
    if (op < 10 && versions.size() < 6) {
      versions.push_back(versions[pick]);  // fork: both copies are values
    } else if (op < 16 && versions.size() > 1) {
      versions.erase(versions.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      auto& [db, model] = versions[pick];
      const std::string& name = names[rng.Uniform(names.size())];
      auto it = model.relations.find(name);
      if (it == model.relations.end()) {
        const RelationType type = types[rng.Uniform(types.size())];
        ASSERT_TRUE(db.DefineRelation(name, type, Narrow()).ok());
        ++model.txn;
        model.relations[name] =
            ModelRelation{type, {{Narrow(), model.txn}}, {}};
      } else if (op < 20) {
        ASSERT_TRUE(db.DeleteRelation(name).ok());
        ++model.txn;
        model.relations.erase(it);
      } else if (op < 26) {
        ModelRelation& relation = it->second;
        const Schema next =
            relation.schemas.back().first == Narrow() ? Wide() : Narrow();
        ASSERT_TRUE(db.ModifySchema(name, next).ok());
        ++model.txn;
        relation.schemas.emplace_back(next, model.txn);
      } else if (op < 32) {
        // A failed atomic sentence on a scratch copy, then dropped.
        ModelRelation& relation = it->second;
        Database scratch = db;
        const std::vector<Command> sentence = {
            ModifyCommand(name, MakeState(relation.type,
                                          relation.schemas.back().first,
                                          ++seed)),
            DeleteRelationCmd{"never-defined"}};
        ASSERT_FALSE(ApplySentence(scratch, sentence).ok());
      } else {
        ModelRelation& relation = it->second;
        StateValue state =
            MakeState(relation.type, relation.schemas.back().first, ++seed);
        ASSERT_TRUE(Modify(db, name, state).ok());
        ++model.txn;
        if (!RetainsHistory(relation.type)) relation.states.clear();
        relation.states.emplace_back(std::move(state), model.txn);
      }
    }
    const bool deep = step % 50 == 49;
    for (size_t v = 0; v < versions.size(); ++v) {
      SCOPED_TRACE("step " + std::to_string(step) + " version " +
                   std::to_string(v));
      ExpectMatches(versions[v].first, versions[v].second, deep);
      if (HasFatalFailure()) return;
    }
  }
  for (const auto& [db, model] : versions) ExpectMatches(db, model, true);
}

// --- Shared tuple payloads across history ------------------------------------

/// A history of one-tuple commits holds one tuple payload per distinct
/// tuple, not one per tuple per state: each commit unions one new tuple
/// into the current state (a kernel that copies the kept tuples across),
/// and FINDSTATE must hand back states whose tuples are those payloads.
Tuple NumberedRow(int64_t i) { return Tuple{Value::Int(i), Value::Int(-i)}; }

TEST(PayloadSharingTest, OneTupleCommitsAddOnePayloadEach) {
  constexpr int64_t kInitial = 32;
  constexpr int64_t kCommits = 40;
  Database db;
  ASSERT_TRUE(db.DefineRelation("acct", RelationType::kRollback, Narrow()).ok());
  ASSERT_TRUE(db.DefineRelation("hist", RelationType::kTemporal, Narrow()).ok());
  std::vector<Tuple> initial;
  std::vector<HistoricalTuple> initial_history;
  for (int64_t i = 0; i < kInitial; ++i) {
    initial.push_back(NumberedRow(i));
    initial_history.push_back(
        HistoricalTuple{NumberedRow(i), TemporalElement::Span(i, i + 5)});
  }
  ASSERT_TRUE(
      db.ModifyState("acct", *SnapshotState::Make(Narrow(), initial)).ok());
  ASSERT_TRUE(db.ModifyState("hist", *HistoricalState::Make(
                                         Narrow(), initial_history))
                  .ok());
  const TransactionNumber first = db.transaction_number() - 1;
  for (int64_t i = kInitial; i < kInitial + kCommits; ++i) {
    auto one = SnapshotState::Make(Narrow(), {NumberedRow(i)});
    auto next = snapshot_ops::Union(*db.Rollback("acct"), *one);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(db.ModifyState("acct", *next).ok());
    auto one_history = HistoricalState::Make(
        Narrow(), {HistoricalTuple{NumberedRow(i), TemporalElement::Point(i)}});
    auto next_history =
        historical_ops::Union(*db.RollbackHistorical("hist"), *one_history);
    ASSERT_TRUE(next_history.ok());
    ASSERT_TRUE(db.ModifyState("hist", *next_history).ok());
  }

  // Every state of both histories, each read by FINDSTATE on this version.
  std::set<const Value*> payloads;
  std::set<const Value*> history_payloads;
  size_t tuple_states = 0;
  for (TransactionNumber txn = first; txn <= db.transaction_number(); ++txn) {
    auto state = db.Rollback("acct", txn);
    ASSERT_TRUE(state.ok());
    for (const Tuple& t : state->tuples()) payloads.insert(t.values().data());
    auto history = db.RollbackHistorical("hist", txn);
    ASSERT_TRUE(history.ok());
    for (const HistoricalTuple& ht : history->tuples()) {
      history_payloads.insert(ht.tuple.values().data());
    }
    tuple_states += state->size();
  }
  EXPECT_GT(tuple_states, static_cast<size_t>(kInitial * kCommits));
  EXPECT_LE(payloads.size(), static_cast<size_t>(kInitial + kCommits));
  EXPECT_LE(history_payloads.size(), static_cast<size_t>(kInitial + kCommits));
}

}  // namespace
}  // namespace ttra
